"""End-to-end grounding: stream observations into an aggregation session,
fuse instances for the referred class, classify, and phrase the query.

The same entry points also produce the oracle outcome for an episode by
running the discriminator on ground-truth instance graphs, which serves as
the reference for evaluation.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path

from .aggregation import AggregationSession, InstanceRecord
from .config import PipelineConfig
from .discriminator import DialogueState, GroundingOutcome, classify, generate_query
from .episodes import FrameRecord, load_episode, trajectory_frames
from .geometry import bbox_cloud_arrays, voxelize_bev_arrays
from .graph import ObjectGraph
from .language import PhraseError, phrase_to_graph, realize
from .lexicon import Lexicon
from .oracle import oracle_classify, oracle_paths
from .simulator import (
    ErrorConfig,
    FrameContext,
    RoomSpec,
    apply_errors,
    derive_relations,
    generate_room,
    object_graph,
)


def stream_seed_for(name: str) -> int:
    """Stable per-episode noise stream id derived from the directory name."""
    return zlib.crc32(name.encode("utf-8"))


def query_seed_for(base_seed: int, key: str) -> int:
    """Deterministic per-instruction seed shared by pipeline and oracle."""
    return (base_seed * 1000003 + zlib.crc32(key.encode("utf-8"))) & 0x7FFFFFFF


_BANK_CLASSES = (
    "cup", "book", "lamp", "bowl", "laptop", "plant",
    "chair", "armchair", "sofa", "table", "desk", "counter",
)


def build_observation_bank(config: PipelineConfig) -> tuple:
    """(bbox, caption) of every detection along 10 poses of a different seeded
    room, one object of each bank class; used by the false-positive model."""
    room = generate_room(config.seed + 9999, dict.fromkeys(_BANK_CLASSES, 1), config, min_extent=6.5)
    return tuple(
        (det.bbox, det.caption)
        for _, _, detections in trajectory_frames(room, config, n_poses=10)
        for det in detections
    )


def needs_bank(config: PipelineConfig, noise_preset: str) -> bool:
    """Whether the preset's false-positive model draws from the observation bank."""
    return config.error_config(noise_preset).p_fp > 0


@dataclass
class StreamStats:
    frames: int = 0
    detections: int = 0
    skipped_captions: int = 0
    dropped_points: int = 0


def build_session(
    frames: list[FrameRecord],
    config: PipelineConfig,
    lexicon: Lexicon | None = None,
    noise: ErrorConfig | None = None,
    bank: tuple = (),
    stream_seed: int = 0,
) -> tuple[AggregationSession, StreamStats]:
    """Accumulate every detection of every frame into one session.

    Captions are parsed once each (cached); detections whose caption fails
    to parse are skipped and counted.
    """
    lexicon = lexicon or config.lexicon()
    session = AggregationSession(config.grid_spec())
    stats = StreamStats()
    graph_cache: dict[str, ObjectGraph | None] = {}
    for frame in frames:
        detections = list(frame.detections)
        if noise is not None:
            ctx = FrameContext(
                frame.index, frame.intrinsics.width, frame.intrinsics.height, bank, stream_seed
            )
            detections = apply_errors(detections, ctx, noise)
        if not detections:
            stats.frames += 1
            continue
        depth = frame.load_depth(max_range=config.max_range)
        for det in detections:
            graph = graph_cache.get(det.caption, Ellipsis)
            if graph is Ellipsis:
                try:
                    graph = phrase_to_graph(det.caption, lexicon)
                except PhraseError:
                    graph = None
                graph_cache[det.caption] = graph
            if graph is None:
                stats.skipped_captions += 1
                continue
            points, weights = bbox_cloud_arrays(
                det.bbox, depth, frame.intrinsics, frame.pose, config.sigma_frac, config.stride
            )
            cells, means, _, dropped = voxelize_bev_arrays(points, weights, session.grid)
            stats.dropped_points += dropped
            if len(cells):
                session.observe(graph, cells, means)
            stats.detections += 1
        stats.frames += 1
    return session, stats


def _sorted_records(records: list[InstanceRecord]) -> list[InstanceRecord]:
    return sorted(records, key=lambda r: (realize(r.graph), r.centroid))


def ground_in_session(
    session: AggregationSession,
    instruction: str,
    config: PipelineConfig,
    lexicon: Lexicon | None = None,
    query_seed: int = 0,
) -> tuple[GroundingOutcome, ObjectGraph]:
    """Parse the instruction, fuse instances of its class, classify, phrase."""
    g = phrase_to_graph(instruction, lexicon or config.lexicon())
    records = session.fuse_across_graphs(g.root, config.region_dx, config.region_dy, config.gamma)
    records = _sorted_records(records)
    outcome = classify(g, records)
    outcome = outcome.with_query(generate_query(outcome, query_seed, config.templates()))
    return outcome, g


def session_for_episode(
    episode_dir: str | Path,
    config: PipelineConfig,
    noise_preset: str = "none",
    lexicon: Lexicon | None = None,
    bank: tuple | None = None,
) -> AggregationSession:
    episode_dir = Path(episode_dir)
    frames = load_episode(episode_dir)
    noise = None if noise_preset == "none" else config.error_config(noise_preset)
    if bank is None and needs_bank(config, noise_preset):
        bank = build_observation_bank(config)
    session, _ = build_session(
        frames,
        config,
        lexicon=lexicon,
        noise=noise,
        bank=bank or (),
        stream_seed=stream_seed_for(episode_dir.name),
    )
    return session


# -- oracle reference ---------------------------------------------------------


def oracle_records(
    room: RoomSpec, root: str, tau_near: float
) -> list[InstanceRecord]:
    """Ground-truth instance records for one class, ordered like the pipeline."""
    relations = derive_relations(room, tau_near)
    records = []
    for obj in room.objects_of(root):
        g = object_graph(room, obj, relations)
        cx, cy, _ = obj.centroid
        records.append(
            InstanceRecord(
                graph=g,
                regions=frozenset(),
                centroid=(cx, cy),
                score=1.0,
                contributors=((g, 1.0),),
            )
        )
    return _sorted_records(records)


def oracle_outcome(
    room: RoomSpec,
    g: ObjectGraph,
    config: PipelineConfig,
    query_seed: int,
) -> GroundingOutcome:
    """Reference outcome: the discriminator run on oracle instance graphs.

    The state and candidate sets come from the independent subset oracle;
    query phrasing shares the pipeline's templates and seed so a correct
    pipeline reproduces the reference text exactly.
    """
    records = oracle_records(room, g.root, config.tau_near)
    state, indices = oracle_classify(g, [r.graph for r in records])

    def diff_for(record: InstanceRecord) -> frozenset:
        want = oracle_paths(g)
        have = oracle_paths(record.graph)
        return frozenset(want - have)

    if state is DialogueState.INFORM_MISSING:
        outcome = GroundingOutcome(state)
    elif state is DialogueState.CONFIRM:
        outcome = GroundingOutcome(state, matched=records[indices[0]])
    else:
        cands = tuple((records[i], diff_for(records[i])) for i in indices)
        outcome = GroundingOutcome(state, candidates=cands)
    return outcome.with_query(generate_query(outcome, query_seed, config.templates()))
