import json

import numpy as np
import pytest

from refground.aggregation import AggregationSession
from refground.config import PipelineConfig
from refground.discriminator import DialogueState, outcome_to_dict
from refground.episodes import (
    DatasetError,
    load_episode,
    load_instructions,
    load_room,
    simulate_episode,
)
from refground.geometry import bbox_cloud_arrays
from refground.graph import ObjectGraph
from refground.language import realize
from refground.pipeline import (
    build_observation_bank,
    build_session,
    ground_in_session,
    oracle_outcome,
    query_seed_for,
    session_for_episode,
    stream_seed_for,
)
from refground.simulator import Detection, generate_room


@pytest.fixture(scope="module")
def episode(tmp_path_factory):
    cfg = PipelineConfig()
    room = generate_room(42, {"cup": 2, "table": 1, "desk": 1, "lamp": 1, "sofa": 1}, cfg)
    out = tmp_path_factory.mktemp("episodes") / "episode_00000"
    simulate_episode(out, room, cfg)
    return cfg, room, out


def test_episode_layout(episode):
    _, _, out = episode
    assert (out / "room.json").exists()
    assert (out / "episode.jsonl").exists()
    assert (out / "instructions.jsonl").exists()
    frames = load_episode(out)
    assert len(frames) == 12
    for frame in frames:
        assert frame.depth_path.exists()


def test_episode_round_trip(episode):
    cfg, room, out = episode
    assert load_room(out).to_dict() == room.to_dict()
    frames = load_episode(out)
    depth = frames[0].load_depth(cfg.max_range)
    assert depth.width == cfg.frame_width
    rec = json.loads((out / "episode.jsonl").read_text().splitlines()[0])
    assert len(rec["pose"]) == 16
    assert rec["depth_file"] == "frame_00000.depth"
    cases = load_instructions(out)
    assert cases and all(c.graph is not None for c in cases)


def test_missing_files_raise(tmp_path):
    with pytest.raises(DatasetError):
        load_episode(tmp_path)
    with pytest.raises(DatasetError):
        load_room(tmp_path)


def test_depth_correctness_against_boxes(episode):
    # detection pixels back-project into the detected object's inflated box
    cfg, room, out = episode
    frames = load_episode(out)
    by_id = {o.id: o for o in room.objects}
    checked = 0
    for frame in frames[:4]:
        depth = frame.load_depth(cfg.max_range)
        for det in frame.detections:
            obj = by_id[det.gt_object_id]
            pts, _ = bbox_cloud_arrays(det.bbox, depth, frame.intrinsics, frame.pose, 0.25, 1)
            lo = np.array(obj.box_min) - cfg.cell_size
            hi = np.array(obj.box_max) + cfg.cell_size
            inside = np.all((pts >= lo) & (pts <= hi), axis=1)
            # the bbox also covers background; but the pixel at the detected
            # object's visible center must land inside the inflated box
            assert inside.any()
            checked += 1
    assert checked > 0


def test_build_session_registers_graphs(episode):
    cfg, room, out = episode
    session, stats = build_session(load_episode(out), cfg)
    assert stats.skipped_captions == 0
    assert stats.frames == 12
    roots = {g.root for _, g in session.registry.items()}
    assert roots == set(room.classes())


def test_build_session_counts_unparseable_captions(episode):
    cfg, _, out = episode
    frames = load_episode(out)
    # an unknown word, and two values for one attribute kind
    bad = tuple(
        Detection(frames[0].detections[0].bbox, caption, None)
        for caption in ("weird unknown caption", "a red blue cup")
    )
    patched = [frames[0].__class__(
        frames[0].index, frames[0].pose, frames[0].intrinsics,
        tuple(frames[0].detections) + bad, frames[0].depth_path,
    )] + frames[1:]
    _, stats = build_session(patched, cfg)
    assert stats.skipped_captions == 2


def test_ground_states_match_oracle(episode):
    cfg, room, out = episode
    session, _ = build_session(load_episode(out), cfg)
    for case in load_instructions(out):
        seed = query_seed_for(cfg.seed, f"{out.name}:{case.text}")
        outcome, g = ground_in_session(session, case.text, cfg, None, seed)
        assert outcome.state.value == case.expected_state
        reference = oracle_outcome(room, g, cfg, seed)
        assert outcome.query == reference.query


def test_ground_returns_the_parsed_graph(episode):
    cfg, _, out = episode
    session, _ = build_session(load_episode(out), cfg)
    outcome, g = ground_in_session(session, "bring a cup", cfg, None, 0)
    assert g == ObjectGraph.build("cup")
    assert outcome.state is DialogueState.INFORM_AMBIGUITY


def test_session_for_episode_with_noise(episode):
    cfg, _, out = episode
    session = session_for_episode(out, cfg, "cs+sd+fn")
    assert list(session.registry.items())


@pytest.mark.parametrize("preset", ["none", "cs+sd+fn"])
def test_ground_same_bytes_on_fresh_and_reloaded_session(episode, tmp_path, preset):
    cfg, _, out = episode
    fresh = session_for_episode(out, cfg, preset)
    fresh.dump(tmp_path / "session.json")
    loaded = AggregationSession.load(tmp_path / "session.json")
    for case in load_instructions(out):
        seed = query_seed_for(cfg.seed, f"{out.name}:{case.text}")
        texts = [
            json.dumps(outcome_to_dict(ground_in_session(s, case.text, cfg, None, seed)[0]))
            for s in (fresh, loaded)
        ]
        assert texts[0] == texts[1]


def test_oracle_outcome_candidates_sorted_by_description(episode):
    cfg, room, _ = episode
    outcome = oracle_outcome(room, ObjectGraph.build("cup"), cfg, query_seed=0)
    assert outcome.state is DialogueState.INFORM_AMBIGUITY
    descs = [realize(rec.graph) for rec, _ in outcome.candidates]
    assert descs == sorted(descs)


def test_stream_and_query_seeds_stable():
    assert stream_seed_for("episode_00001") == stream_seed_for("episode_00001")
    assert query_seed_for(7, "a") != query_seed_for(7, "b")
    assert query_seed_for(7, "a") == query_seed_for(7, "a")


def test_observation_bank_deterministic():
    cfg = PipelineConfig()
    assert build_observation_bank(cfg) == build_observation_bank(cfg)
