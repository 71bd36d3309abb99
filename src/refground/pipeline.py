"""End-to-end grounding: stream observations into an aggregation session,
fuse instances for the referred class, classify, and phrase the query.

The same entry points also produce the oracle outcome for an episode by
running the discriminator on ground-truth instance graphs, which serves as
the reference for evaluation.
"""

from __future__ import annotations

import zlib
from dataclasses import replace
from pathlib import Path

from .aggregation import AggregationSession, InstanceRecord
from .config import PipelineConfig
from .discriminator import GroundingOutcome, classify, generate_query
from .episodes import FrameRecord, load_episode, trajectory_frames
from .geometry import bbox_cloud_arrays, voxelize_bev_arrays
from .graph import ObjectGraph, root_key
from .language import PhraseError, phrase_to_graph
from .lexicon import Lexicon
from .oracle import oracle_classify, oracle_paths
from .simulator import GenerationError, RoomSpec, apply_errors, generate_room, retry_room, scene_graphs


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
    room, at least 6.5 m a side, with one object of each bank class; used by
    the false-positive model. A room that cannot be placed is retried under
    bumped seeds, as a dataset room is."""
    bank_config = replace(
        config, room_x=max(6.5, config.room_x), room_y=max(6.5, config.room_y), n_waypoints=10
    )
    seed = config.seed + 9999
    try:
        room = retry_room(seed, lambda s: generate_room(s, dict.fromkeys(_BANK_CLASSES, 1), bank_config))
    except GenerationError as exc:
        raise GenerationError(f"false-positive bank room (seed {seed}): {exc}") from None
    return tuple(
        (det.bbox, det.caption)
        for _, _, detections in trajectory_frames(room, bank_config)
        for det in detections
    )


def needs_bank(config: PipelineConfig, noise_preset: str) -> bool:
    """Whether the preset's false-positive model draws from the observation bank."""
    return "fp" in config.noise_models(noise_preset) and config.p_fp > 0


def build_session(
    frames: list[FrameRecord],
    config: PipelineConfig,
    lexicon: Lexicon,
    models: frozenset[str],
    bank: tuple,
    stream_seed: int,
    root: str | None,
) -> AggregationSession:
    """Accumulate every detection of every frame into one session.

    `models` names the detector error models applied to each frame's
    detections. Captions are parsed once each (cached); detections whose
    caption fails to parse are skipped. With a `root`, only detections
    whose graph has that root class are accumulated:
    fusing the root reads no other graph and keeps its graphs' relative
    order, so it gives the full session's records. Errors are still drawn
    for every detection and depth still read for every frame with one, so
    the noise streams and the depth checks are those of the full session.
    """
    key = None if root is None else root_key(root)
    session = AggregationSession(config.grid_spec())
    graph_cache: dict[str, ObjectGraph | None] = {}
    for frame in frames:
        detections = list(frame.detections)
        if models:
            detections = apply_errors(
                detections, frame.index, frame.intrinsics.width, frame.intrinsics.height,
                config, models, bank, stream_seed,
            )
        if not detections:
            continue
        depth = frame.load_depth(max_range=config.max_range)
        for det in detections:
            graph = graph_cache.get(det.caption, Ellipsis)
            if graph is Ellipsis:
                try:
                    graph = phrase_to_graph(det.caption, lexicon)
                except PhraseError:
                    graph = None
                if graph is not None and key is not None and graph.root != key:
                    graph = None
                graph_cache[det.caption] = graph
            if graph is None:
                continue
            points, weights = bbox_cloud_arrays(
                det.bbox, depth, frame.intrinsics, frame.pose, config.sigma_frac, config.stride
            )
            cells, means, _, _ = voxelize_bev_arrays(points, weights, session.grid)
            if len(cells):
                session.observe(graph, cells, means)
    return session


def _sorted_records(records: list[InstanceRecord]) -> list[InstanceRecord]:
    return sorted(records, key=lambda r: (r.text, r.centroid))


def ground_in_session(
    session: AggregationSession,
    instruction: str,
    config: PipelineConfig,
    lexicon: Lexicon,
    query_seed: int,
) -> tuple[GroundingOutcome, ObjectGraph]:
    """Parse the instruction, fuse instances of its class, classify, phrase."""
    g = phrase_to_graph(instruction, lexicon)
    records = session.fuse_across_graphs(g.root, config.region_dx, config.region_dy, config.gamma)
    state, candidates = classify(g, _sorted_records(records))
    return GroundingOutcome(state, candidates, generate_query(state, candidates, query_seed, config)), g


def session_for_episode(
    episode_dir: str | Path,
    config: PipelineConfig,
    noise_preset: str,
    lexicon: Lexicon,
    bank: tuple | None = None,
    root: str | None = None,
) -> AggregationSession:
    """build_session over the episode's frames under the preset, with the
    episode's noise stream; `root` as in build_session."""
    episode_dir = Path(episode_dir)
    frames = load_episode(episode_dir)
    models = config.noise_models(noise_preset)
    if bank is None and needs_bank(config, noise_preset):
        bank = build_observation_bank(config)
    return build_session(
        frames,
        config,
        lexicon=lexicon,
        models=models,
        bank=bank or (),
        stream_seed=stream_seed_for(episode_dir.name),
        root=root,
    )


# -- oracle reference ---------------------------------------------------------


def oracle_records(
    room: RoomSpec, root: str, tau_near: float
) -> list[InstanceRecord]:
    """Ground-truth instance records for one class, ordered like the pipeline."""
    graphs = scene_graphs(room, tau_near)
    records = []
    for obj in room.objects_of(root):
        g = graphs[obj.id]
        cx, cy, _ = obj.centroid
        records.append(
            InstanceRecord(
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
    want = oracle_paths(g)
    cands = tuple((records[i], frozenset(want - oracle_paths(records[i].graph))) for i in indices)
    return GroundingOutcome(state, cands, generate_query(state, cands, query_seed, config))
