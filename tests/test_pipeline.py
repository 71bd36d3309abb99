import json
import random
from dataclasses import replace

import numpy as np
import pytest

from refground import pipeline
from refground.aggregation import AggregationSession, InstanceRecord
from refground.config import PipelineConfig
from refground.discriminator import MISSING_QUERY, DialogueState, GroundingOutcome, outcome_to_dict
from refground.episodes import (
    DatasetError,
    load_episode,
    load_instructions,
    load_room,
    simulate_episode,
)
from refground.evaluation import (
    _candidate_signature,
    evaluate_dataset,
    load_manifest,
    simulate_counting_dataset,
    simulate_dialogue_dataset,
)
from refground.geometry import BoundingBox, bbox_cloud_arrays, voxelize_bev_arrays
from refground.graph import ObjectGraph, attribute_paths
from refground.language import phrase_to_graph, realize
from refground.pipeline import (
    build_observation_bank,
    build_session,
    ground_in_session,
    needs_bank,
    oracle_outcome,
    query_seed_for,
    session_for_episode,
    stream_seed_for,
)
from refground.simulator import Detection, GenerationError, generate_room

from test_graph import graph_difference


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
    session = build_session(load_episode(out), cfg, cfg.lexicon(), frozenset(), (), 0, None)
    roots = {g.root for _, g in session.registry.items()}
    assert roots == set(room.classes())


def test_build_session_keeps_a_detection_that_lands_in_one_cell(episode):
    """A one-pixel box gives one point and so one cell; the session holds that cell."""
    cfg, _, out = episode
    frame = load_episode(out)[0]
    det = frame.detections[0]
    u, v = (int(c) for c in det.bbox.center)
    tiny = Detection(BoundingBox(float(u), float(v), u + 1.0, v + 1.0), det.caption, det.gt_object_id)
    points, weights = bbox_cloud_arrays(
        tiny.bbox, frame.load_depth(cfg.max_range), frame.intrinsics, frame.pose, cfg.sigma_frac, cfg.stride
    )
    cells, _, _, _ = voxelize_bev_arrays(points, weights, cfg.grid_spec())
    assert len(cells) == 1
    session = build_session([replace(frame, detections=(tiny,))], cfg, cfg.lexicon(), frozenset(), (), 0, None)
    ((oid, graph),) = session.registry.items()
    assert graph == phrase_to_graph(det.caption, cfg.lexicon())
    _, freq = session.occupancy(oid)
    assert freq[tuple(cells[0])] == 1 and freq.sum() == 1


def test_build_session_skips_unparseable_captions(episode, tmp_path):
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
    session = build_session(patched, cfg, cfg.lexicon(), frozenset(), (), 0, None)
    plain = build_session(frames, cfg, cfg.lexicon(), frozenset(), (), 0, None)
    # no graph for either caption, and not a cell more
    assert list(session.registry.items()) == list(plain.registry.items())
    session.dump(tmp_path / "patched.json")
    plain.dump(tmp_path / "plain.json")
    assert (tmp_path / "patched.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


@pytest.mark.parametrize("root", ["cup", " Table "])
def test_a_target_session_parses_only_captions_that_can_name_its_root(episode, tmp_path, monkeypatch, root):
    cfg, _, out = episode
    frames, models = load_episode(out), cfg.noise_models("cs+sd+fn")
    parsed = []

    def counting_parse(text, lexicon):
        parsed.append(text)
        return phrase_to_graph(text, lexicon)

    monkeypatch.setattr(pipeline, "phrase_to_graph", counting_parse)
    build_session(frames, cfg, cfg.lexicon(), models, (), 5, root).dump(tmp_path / "checked.json")
    checked = list(parsed)
    parsed.clear()
    monkeypatch.setattr(pipeline, "may_name", lambda text, key: True)
    build_session(frames, cfg, cfg.lexicon(), models, (), 5, root).dump(tmp_path / "every.json")
    assert (tmp_path / "checked.json").read_bytes() == (tmp_path / "every.json").read_bytes()
    word = root.strip().lower()
    assert checked and all(word in text.lower().split() for text in checked)
    assert len(checked) < len(parsed)


def test_false_positives_without_a_bank_are_refused(episode):
    # without a bank the fp model would add nothing, and its session would read as noise-free
    cfg, _, out = episode
    frames, fp_cfg, fp = load_episode(out), replace(cfg, p_fp=1.0), frozenset({"fp"})
    with pytest.raises(ValueError, match="observation bank is empty"):
        build_session(frames, fp_cfg, cfg.lexicon(), fp, (), 0, None)
    noisy = build_session(frames, fp_cfg, cfg.lexicon(), fp, build_observation_bank(fp_cfg), 0, None)
    plain = build_session(frames, fp_cfg, cfg.lexicon(), frozenset(), (), 0, None)
    assert len(list(noisy.registry.items())) > len(list(plain.registry.items()))


def test_ground_states_match_oracle(episode):
    cfg, room, out = episode
    session = build_session(load_episode(out), cfg, cfg.lexicon(), frozenset(), (), 0, None)
    for case in load_instructions(out):
        seed = query_seed_for(cfg.seed, f"{out.name}:{case.text}")
        outcome, g = ground_in_session(session, case.text, cfg, cfg.lexicon(), seed)
        assert outcome.state.value == case.expected_state
        reference = oracle_outcome(room, g, cfg, seed)
        assert outcome.query == reference.query


def test_ground_returns_the_parsed_graph(episode):
    cfg, _, out = episode
    session = build_session(load_episode(out), cfg, cfg.lexicon(), frozenset(), (), 0, None)
    outcome, g = ground_in_session(session, "bring a cup", cfg, cfg.lexicon(), 0)
    assert g == ObjectGraph("cup")
    assert outcome.state is DialogueState.INFORM_AMBIGUITY


def test_session_for_episode_with_noise(episode):
    cfg, _, out = episode
    session = session_for_episode(out, cfg, "cs+sd+fn", cfg.lexicon())
    assert list(session.registry.items())


@pytest.mark.parametrize("preset", ["none", "cs+sd+fn"])
def test_ground_same_bytes_on_fresh_and_reloaded_session(episode, tmp_path, preset):
    cfg, _, out = episode
    lexicon = cfg.lexicon()
    fresh = session_for_episode(out, cfg, preset, lexicon)
    fresh.dump(tmp_path / "session.json")
    loaded = AggregationSession.load(tmp_path / "session.json")
    for case in load_instructions(out):
        seed = query_seed_for(cfg.seed, f"{out.name}:{case.text}")
        texts = [
            json.dumps(outcome_to_dict(ground_in_session(s, case.text, cfg, lexicon, seed)[0]))
            for s in (fresh, loaded)
        ]
        assert texts[0] == texts[1]


def test_grounding_reads_the_same_cold_warm_reloaded_and_after_new_evidence(episode, tmp_path):
    # a warm grounding reads the text and paths its fused records carry; they
    # must give what the cold fusion, a loaded session and a cleared memo give
    cfg, _, out = episode
    lexicon = cfg.lexicon()
    widget = ObjectGraph("widget")  # a class no instruction names
    for case in load_instructions(out):
        seed = query_seed_for(cfg.seed, f"{out.name}:{case.text}")
        session = session_for_episode(out, cfg, "cs+sd+fn", lexicon)
        session.dump(tmp_path / "session.json")
        loaded = AggregationSession.load(tmp_path / "session.json")

        def ground(s):
            return json.dumps(outcome_to_dict(ground_in_session(s, case.text, cfg, lexicon, seed)[0]))

        def fused(s):
            root = phrase_to_graph(case.text, lexicon).root
            return s.fuse_across_graphs(root, cfg.region_dx, cfg.region_dy, cfg.gamma)

        cold, warm, reloaded = ground(session), ground(session), ground(loaded)
        before = fused(session)
        session.observe(widget, np.array([[0, 0]]), np.array([0.5]))
        after_evidence = ground(session)
        after = fused(session)
        assert warm == cold and reloaded == cold and after_evidence == cold, case.text
        assert after == before and all(a is not b for a, b in zip(after, before))
        for record in [*before, *after, *fused(loaded)]:
            assert record.text == realize(record.graph)
            assert record.paths == attribute_paths(record.graph)
            copy = InstanceRecord(record.regions, record.centroid, record.score, record.contributors)
            assert copy == record and hash(copy) == hash(record)


def test_each_grounding_and_oracle_outcome_builds_one_outcome(episode, monkeypatch):
    # the confirm and missing checks of __post_init__ run once per outcome
    cfg, room, out = episode
    lexicon = cfg.lexicon()
    session = session_for_episode(out, cfg, "cs+sd+fn", lexicon)
    built, post_init = [], GroundingOutcome.__post_init__

    def counted(outcome):
        built.append(outcome)
        post_init(outcome)

    monkeypatch.setattr(GroundingOutcome, "__post_init__", counted)
    texts = [case.text for case in load_instructions(out)] + ["bring the cup", "bring the plant"]
    states = set()
    for text in texts:
        seed = query_seed_for(cfg.seed, f"{out.name}:{text}")
        outcome, g = ground_in_session(session, text, cfg, lexicon, seed)
        assert len(built) == 1 and built[0] is outcome, text
        reference = oracle_outcome(room, g, cfg, seed)
        assert len(built) == 2 and built[1] is reference, text
        built.clear()
        states.add(outcome.state)
    assert len(states) >= 3  # confirm, ambiguity and missing at least


def test_a_missing_class_draws_no_query_seed(episode, monkeypatch):
    cfg, room, out = episode
    assert "plant" not in room.classes()
    session = build_session(load_episode(out), cfg, cfg.lexicon(), frozenset(), (), 0, None)

    def no_draws(seed):
        raise AssertionError(f"random.Random({seed}) built for a query that draws nothing")

    monkeypatch.setattr(random, "Random", no_draws)
    outcome, _ = ground_in_session(session, "bring the plant", cfg, cfg.lexicon(), 5)
    assert outcome.state is DialogueState.INFORM_MISSING and outcome.query == MISSING_QUERY


def frame_lists(frames):
    """The frame list reversed, shuffled (seeded) and with every frame twice."""
    shuffled = list(frames)
    np.random.default_rng(11).shuffle(shuffled)
    return {
        "reversed": frames[::-1],
        "shuffled": shuffled,
        "duplicated": [frame for frame in frames for _ in range(2)],
    }


def test_is_near_instructions_ground_like_the_oracle(tmp_path):
    # at the default tau_near no generated room has an is-near edge, so
    # only a wider radius sends "near" through simulation and grounding
    cfg = PipelineConfig(tau_near=1.5)
    records = evaluate_dataset(simulate_dialogue_dataset(tmp_path, cfg, n_rooms=3), cfg, "none").dialogue.records
    assert any(" near " in f" {r['text']} " for r in records)
    # qa_match: the candidate signatures of pipeline and oracle are equal
    mismatched = [r for r in records if r["predicted_state"] != r["oracle_state"] or not r["qa_match"]]
    assert mismatched == []


@pytest.fixture(scope="module")
def small_datasets(tmp_path_factory):
    """Episode dirs of three counting rooms (one per count) and four dialogue rooms."""
    cfg = PipelineConfig()
    root = tmp_path_factory.mktemp("datasets")
    counting = simulate_counting_dataset(root / "counting", cfg, rooms_per_count=1)
    dialogue = simulate_dialogue_dataset(root / "dialogue", cfg, n_rooms=4)
    return [d / m["dir"] for d in (counting, dialogue) for m in load_manifest(d)]


@pytest.mark.parametrize("preset", ["none", "cs+sd+fn", "fp"])
def test_decisions_do_not_depend_on_frame_order(small_datasets, preset):
    # session bytes follow frame order; the counts, states, candidate sets
    # and queries grounded on them must not
    cfg = PipelineConfig()
    lexicon = cfg.lexicon()
    models = cfg.noise_models(preset)
    bank = build_observation_bank(cfg) if needs_bank(cfg, preset) else ()
    for out in small_datasets:
        room, instructions = load_room(out), load_instructions(out)

        def decisions(frames):
            session = build_session(frames, cfg, lexicon, models, bank, stream_seed_for(out.name), None)
            counts = [
                len(session.fuse_across_graphs(cls, cfg.region_dx, cfg.region_dy, cfg.gamma))
                for cls in room.classes()
            ]
            outcomes = []
            for case in instructions:
                seed = query_seed_for(cfg.seed, f"{out.name}:{case.text}")
                outcome, _ = ground_in_session(session, case.text, cfg, lexicon, seed)
                outcomes.append((outcome.state, _candidate_signature(outcome), outcome.query))
            return counts, outcomes

        frames = load_episode(out)
        expected = decisions(frames)
        assert sum(expected[0]) >= len(room.classes())
        for name, reordered in frame_lists(frames).items():
            assert decisions(reordered) == expected, (out, name)


def test_oracle_outcome_candidates_sorted_by_description(episode):
    cfg, room, _ = episode
    outcome = oracle_outcome(room, ObjectGraph("cup"), cfg, query_seed=0)
    assert outcome.state is DialogueState.INFORM_AMBIGUITY
    descs = [realize(rec.graph) for rec, _ in outcome.candidates]
    assert descs == sorted(descs)


def test_pipeline_and_oracle_name_instances_alike(small_datasets):
    # every state lists the instances it names as candidates with their
    # differences; a confirm names its match, with an empty difference
    cfg = PipelineConfig()
    lexicon = cfg.lexicon()
    states = set()
    for out in small_datasets:
        session, room = session_for_episode(out, cfg, "none", lexicon), load_room(out)
        for case in load_instructions(out):
            seed = query_seed_for(cfg.seed, f"{out.name}:{case.text}")
            outcome, g = ground_in_session(session, case.text, cfg, lexicon, seed)
            reference = oracle_outcome(room, g, cfg, seed)
            for named in (outcome, reference):
                if named.state is DialogueState.CONFIRM:
                    ((record, difference),) = named.candidates
                    assert named.matched is record and difference == frozenset()
                for record, difference in named.candidates:
                    assert difference == graph_difference(g, record.graph)
            if _candidate_signature(outcome) == _candidate_signature(reference):
                assert outcome.state is reference.state
                assert [r.graph for r, _ in outcome.candidates] == [r.graph for r, _ in reference.candidates]
            states.add(outcome.state)
    assert states == set(DialogueState)


def test_stream_and_query_seeds_stable():
    assert stream_seed_for("episode_00001") == stream_seed_for("episode_00001")
    assert query_seed_for(7, "a") != query_seed_for(7, "b")
    assert query_seed_for(7, "a") == query_seed_for(7, "a")


def test_observation_bank_deterministic():
    cfg = PipelineConfig()
    assert build_observation_bank(cfg) == build_observation_bank(cfg)


@pytest.mark.parametrize("seed", [47, 122, 341])
def test_observation_bank_retries_a_room_it_cannot_place(seed, monkeypatch):
    # the first bank room of these seeds cannot place its plant; the room at the
    # first bumped seed, seed + 9999 + 97, can, as a dataset room would be retried
    tried = []
    place = pipeline.generate_room

    def counted(room_seed, copies, config):
        tried.append(room_seed)
        return place(room_seed, copies, config)

    monkeypatch.setattr(pipeline, "generate_room", counted)
    bank = build_observation_bank(PipelineConfig(seed=seed))
    assert tried == [seed + 9999, seed + 9999 + 97]
    assert bank and all(isinstance(caption, str) for _, caption in bank)


def test_observation_bank_that_places_first_time_tries_one_room(monkeypatch):
    tried = []
    place = pipeline.generate_room
    monkeypatch.setattr(pipeline, "generate_room", lambda s, *a: tried.append(s) or place(s, *a))
    build_observation_bank(PipelineConfig())
    assert tried == [PipelineConfig().seed + 9999]


def test_observation_bank_names_its_room_when_no_seed_places(monkeypatch):
    def unplaceable(room_seed, copies, config):
        raise GenerationError(f"nothing fits at {room_seed}")

    monkeypatch.setattr(pipeline, "generate_room", unplaceable)
    last = 1 + 9999 + 7 * 97
    with pytest.raises(GenerationError, match=f"^false-positive bank room \\(seed 10000\\): nothing fits at {last}$"):
        build_observation_bank(PipelineConfig(seed=1))
