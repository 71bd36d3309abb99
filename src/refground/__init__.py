"""refground: grounds referred objects across multiple RGB-D views and asks
a clarifying question when the grounding is ambiguous, mismatched, or missing.
"""

from .aggregation import AggregationSession, GraphRegistry, InstanceRecord, merge_regions
from .config import PipelineConfig, load_config
from .discriminator import DialogueState, GroundingOutcome, classify, generate_query
from .geometry import (
    BoundingBox,
    CameraIntrinsics,
    DepthFrame,
    GridSpec,
    Pose,
    to_world,
)
from .graph import ObjectGraph, attribute_paths, serialize
from .language import parse_tags, phrase_to_graph, realize, tag, tokenize
from .lexicon import Lexicon, default_lexicon, load_lexicon
from .metrics import corpus_bleu
from .simulator import (
    Detection,
    RoomSpec,
    SceneObject,
    apply_errors,
    emit_instructions,
    generate_room,
    plan_trajectory,
    scene_graphs,
)
from .render import gt_detections

__version__ = "0.1.0"
