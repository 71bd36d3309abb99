"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`. The heavyweight datasets
are built once per session and shared across criteria.
"""

import hashlib
import itertools
import math
import time
from pathlib import Path

import numpy as np
import pytest

from refground import episodes
from refground.aggregation import InstanceRecord
from refground.cli import main
from refground.config import PipelineConfig
from refground.discriminator import DialogueState, classify
from refground.evaluation import (
    build_parser_corpus,
    eval_counting,
    eval_parser_corpus,
    evaluate_dataset,
    load_manifest,
    simulate_counting_dataset,
    simulate_dialogue_dataset,
    write_report,
)
from refground.geometry import BoundingBox, CameraIntrinsics, Pose, to_world
from refground.graph import ObjectGraph
from refground.language import phrase_to_graph, realize
from refground.oracle import oracle_classify
from refground.pipeline import build_observation_bank, needs_bank, session_for_episode
from refground.simulator import Detection, RoomSpec, apply_errors
from refground.simulator import look_at_pose

from conftest import random_expressible_graph, render_view

RESULTS: dict = {}
COUNT_PRESETS = ("none", "cs", "cs+sd", "cs+sd+fn", "fp")


def report(criterion: str, ok: bool, detail: str):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def config():
    return PipelineConfig()


@pytest.fixture(scope="module")
def counting_dataset(config, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "counting"
    t0 = time.perf_counter()
    simulate_counting_dataset(out, config, rooms_per_count=50, counts=(1, 2, 3))
    RESULTS["counting_sim_seconds"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def dialogue_dataset(config, tmp_path_factory):
    out = tmp_path_factory.mktemp("acceptance") / "dialogue"
    simulate_dialogue_dataset(out, config, n_rooms=12)
    return out


@pytest.fixture(scope="module")
def dialogue_clean(config, dialogue_dataset):
    return evaluate_dataset(dialogue_dataset, config, "none").dialogue


@pytest.fixture(scope="module")
def dialogue_noisy(config, dialogue_dataset):
    return evaluate_dataset(dialogue_dataset, config, "cs+sd+fn").dialogue


def test_c1_parser_corpus(config):
    t0 = time.perf_counter()
    cases = build_parser_corpus(600, seed=config.seed)
    match_rate, weighted_f1, _ = eval_parser_corpus(cases, config.lexicon())
    elapsed = time.perf_counter() - t0
    ok = len(cases) >= 500 and match_rate >= 0.99 and weighted_f1 >= 0.94 and elapsed < 5.0
    report(
        "C1 parser corpus",
        ok,
        f"n={len(cases)} graph match={match_rate:.4f} weighted tag F1={weighted_f1:.4f} "
        f"runtime={elapsed:.2f}s",
    )


def test_c2_round_trip_law(config):
    lexicon = config.lexicon()
    rng = np.random.default_rng(config.seed)
    failures = 0
    for _ in range(1000):
        g = random_expressible_graph(rng)
        if phrase_to_graph(realize(g), lexicon) != g:
            failures += 1
    report("C2 round-trip law", failures == 0, f"1000 graphs, {failures} failures")


def test_c3_counting_noise_free(config, counting_dataset):
    t0 = time.perf_counter()
    result = eval_counting(counting_dataset, config, "none")
    elapsed = RESULTS["counting_sim_seconds"] + (time.perf_counter() - t0)
    RESULTS["counting_none"] = result

    # independent recomputation of the per-count F1 from per-episode records
    def independent_f1(records, count):
        tp = fp = fn = 0
        for rec in records:
            if rec["true"] != count:
                continue
            tp += min(rec["true"], rec["predicted"])
            fp += max(0, rec["predicted"] - rec["true"])
            fn += max(0, rec["true"] - rec["predicted"])
        return 2 * tp / (2 * tp + fp + fn) if (2 * tp + fp + fn) else 0.0

    consistent = all(
        abs(independent_f1(result.records, count) - result.per_count[count]) < 1e-12
        for count in (1, 2, 3)
    )
    perfect = all(result.per_count[count] == 1.0 for count in (1, 2, 3))
    ok = perfect and consistent and elapsed < 120.0
    report(
        "C3 instance counting (noise-free)",
        ok,
        "per-count F1="
        + "/".join(f"{result.per_count[c]:.3f}" for c in (1, 2, 3))
        + f" self-consistent={consistent} runtime={elapsed:.0f}s",
    )


def test_c4_counting_under_noise(config, counting_dataset):
    baseline = RESULTS.get("counting_none") or eval_counting(counting_dataset, config, "none")
    columns = {}
    for preset in ("cs", "cs+sd", "cs+sd+fn", "fp"):
        columns[preset] = eval_counting(counting_dataset, config, preset)
    noisy = columns["cs+sd+fn"].average
    degradation = baseline.average - noisy
    fp = columns["fp"].average
    others = [baseline.average] + [columns[p].average for p in ("cs", "cs+sd", "cs+sd+fn")]
    ok = noisy >= 0.85 and degradation <= 0.10 and fp >= 0.65 and all(fp < v for v in others)
    report(
        "C4 instance counting (noise columns)",
        ok,
        f"cs={columns['cs'].average:.3f} cs+sd={columns['cs+sd'].average:.3f} "
        f"cs+sd+fn={noisy:.3f} (degradation {degradation:.3f}) fp={fp:.3f} "
        f"fp strictly worst={all(fp < v for v in others)}",
    )


def test_counting_sessions_of_the_target_alone_count_as_full_sessions(config, counting_dataset, monkeypatch):
    """eval_counting accumulates only its target's detections: fusing the
    target on that session gives the full session's records, and both
    builds read the same depth files."""
    read: list[Path] = []
    read_depth_file = episodes.read_depth_file

    def recording_read(path, *args, **kwargs):
        read.append(Path(path))
        return read_depth_file(path, *args, **kwargs)

    monkeypatch.setattr(episodes, "read_depth_file", recording_read)
    lexicon = config.lexicon()
    fuse = (config.region_dx, config.region_dy, config.gamma)
    for preset in COUNT_PRESETS:
        bank = build_observation_bank(config) if needs_bank(config, preset) else ()
        dropped = 0
        for entry in load_manifest(counting_dataset):
            target, episode = entry["target"], counting_dataset / entry["dir"]
            sessions, paths = [], []
            for root in (None, target):
                read.clear()
                sessions.append(session_for_episode(episode, config, preset, lexicon, bank=bank, root=root))
                paths.append(list(read))
            full, own = sessions
            assert own.fuse_across_graphs(target, *fuse) == full.fuse_across_graphs(target, *fuse)
            assert paths[0] == paths[1] and paths[0]
            kept = [g for _, g in own.registry.items()]
            assert all(g.root == target for g in kept)
            dropped += len(list(full.registry.items())) - len(kept)
        assert dropped > 0


@pytest.mark.parametrize("preset", ["none", "fp"])
def test_counting_reads_a_capitalised_target_as_its_class(config, counting_dataset, preset):
    """A capitalised or space-padded target counts as its class, and its
    records keep the target as the manifest spells it."""
    manifest = load_manifest(counting_dataset)
    lower = eval_counting(counting_dataset, config, preset, manifest)
    for spell in (str.capitalize, lambda target: f" {target} "):
        spelled = [dict(m, target=spell(m["target"])) for m in manifest]
        result = eval_counting(counting_dataset, config, preset, spelled)
        assert [r["target"] for r in result.records] == [m["target"] for m in spelled]
        assert [dict(r, target=r["target"].strip().lower()) for r in result.records] == lower.records
        assert result.per_count == lower.per_count


def _instance_space():
    colors = (None, "red", "black")
    materials = (None, "plastic", "metal")
    rels = (None, ("is-on", ObjectGraph("table")))
    graphs = []
    for color, material, rel in itertools.product(colors, materials, rels):
        self_attrs = [("color", color)] if color else []
        self_attrs += [("material", material)] if material else []
        graphs.append(ObjectGraph("cup", self_attrs, [rel] if rel else []))
    return graphs


def _record(g: ObjectGraph, index: int) -> InstanceRecord:
    return InstanceRecord(frozenset(), (float(index), 0.0), 1.0, ((g, 1.0),))


def test_c5_discriminator_oracle_equivalence():
    graphs = _instance_space()
    cases = 0
    disagreements = 0
    for g in graphs:
        for size in (0, 1, 2, 3):
            for combo in itertools.combinations_with_replacement(range(len(graphs)), size):
                instances = [_record(graphs[i], pos) for pos, i in enumerate(combo)]
                outcome = classify(g, instances)
                state, indices = oracle_classify(g, [graphs[i] for i in combo])
                cases += 1
                if outcome.state is not state:
                    disagreements += 1
                    continue
                if state is DialogueState.CONFIRM:
                    if outcome.matched is not instances[indices[0]]:
                        disagreements += 1
                elif state is not DialogueState.INFORM_MISSING:
                    got = [rec for rec, _ in outcome.candidates]
                    want = [instances[i] for i in indices]
                    if got != want:
                        disagreements += 1

    # the two documented deviations from the literal cardinality rule
    red = ObjectGraph("cup", [("color", "red")])
    black = ObjectGraph("cup", [("color", "black")])
    red_glass = ObjectGraph("cup", [("color", "red"), ("material", "metal")])
    exact_plus_extras = classify(red, [_record(black, 0), _record(red, 1)])
    two_exacts = classify(red, [_record(red, 0), _record(red_glass, 1), _record(black, 2)])
    pinned = (
        exact_plus_extras.state is DialogueState.CONFIRM
        and two_exacts.state is DialogueState.INFORM_AMBIGUITY
        and len(two_exacts.candidates) == 2
    )
    ok = disagreements == 0 and cases > 5000 and pinned
    report(
        "C5 discriminator oracle equivalence",
        ok,
        f"{cases} exhaustive cases, {disagreements} disagreements, pinned deviations hold={pinned}",
    )


def test_c6_end_to_end_state_accuracy(dialogue_clean, dialogue_noisy):
    clean, noisy = dialogue_clean, dialogue_noisy
    ok = (
        clean.n_pairs >= 100
        and clean.aa_f1 >= 0.95
        and clean.state_accuracy >= 0.95
        and noisy.aa_f1 >= 0.85
    )
    report(
        "C6 end-to-end state accuracy",
        ok,
        f"pairs={clean.n_pairs} AA={clean.aa_f1:.3f} state4={clean.state_accuracy:.3f} "
        f"AA(noise)={noisy.aa_f1:.3f}",
    )


def test_c7_query_accuracy_and_bleu(dialogue_clean, dialogue_noisy):
    clean, noisy = dialogue_clean, dialogue_noisy
    ok = (
        clean.qa >= 0.90
        and noisy.qa >= 0.70
        and clean.bleu == 1.0
        and noisy.bleu >= 0.77
    )
    report(
        "C7 query accuracy and BLEU",
        ok,
        f"QA={clean.qa:.3f} QA(noise)={noisy.qa:.3f} BLEU={clean.bleu:.4f} "
        f"BLEU(noise)={noisy.bleu:.4f}",
    )


def test_c8_geometry_and_error_model_numerics():
    # rigidity to 1e-9 m
    rng = np.random.default_rng(17)
    cloud = rng.uniform(-3, 3, (60, 3))
    angle = 0.73
    rotation = np.array(
        [
            [math.cos(angle), -math.sin(angle), 0.0],
            [math.sin(angle), math.cos(angle), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    tilt = np.array(
        [
            [1.0, 0.0, 0.0],
            [0.0, math.cos(0.31), -math.sin(0.31)],
            [0.0, math.sin(0.31), math.cos(0.31)],
        ]
    )
    pose = Pose(tilt @ rotation, np.array([0.4, -1.1, 0.9]))
    moved = to_world(cloud, pose)
    d0 = np.linalg.norm(cloud[:, None] - cloud[None, :], axis=2)
    d1 = np.linalg.norm(moved[:, None] - moved[None, :], axis=2)
    rigidity = float(np.max(np.abs(d0 - d1)))

    # closed-form frontal wall depth to 1e-6 m
    room = RoomSpec((6.0, 6.0, 2.5), (), seed=0, copies={})
    K = CameraIntrinsics(110.0, 110.0, 64.0, 64.0, 128, 128)
    depth, _ = render_view(room, look_at_pose((4.0, 3.0, 1.2), (6.0, 3.0, 1.2)), K, max_range=10.0)
    wall_error = abs(float(depth[64, 64]) - 2.0)

    # Monte Carlo error-model statistics over 10^4 draws, tolerance 0.01
    det = Detection(BoundingBox(40.0, 40.0, 80.0, 80.0), "a cup", 0)
    area = det.bbox.area
    bank = ((BoundingBox(5.0, 5.0, 25.0, 25.0), "a blue lamp"),)
    shift_cfg = PipelineConfig(mu_c=0.2, sigma_c=0.04, seed=21)
    scale_cfg = PipelineConfig(mu_s=0.2, sigma_s=0.04, seed=22)
    fn_cfg = PipelineConfig(p_fn=0.15, seed=23)
    fp_cfg = PipelineConfig(p_fp=0.15, seed=24)
    shifts, scales, deleted, injected = [], [], 0, 0
    for frame_index in range(10_000):
        (out,) = apply_errors([det], frame_index, 128, 128, shift_cfg, frozenset({"cs"}), (), 0)
        shifts.append(
            math.hypot(out.bbox.center[0] - det.bbox.center[0], out.bbox.center[1] - det.bbox.center[1])
        )
        (out,) = apply_errors([det], frame_index, 128, 128, scale_cfg, frozenset({"sd"}), (), 0)
        scales.append(abs(out.bbox.width / det.bbox.width - 1.0))
        if not apply_errors([det], frame_index, 128, 128, fn_cfg, frozenset({"fn"}), (), 0):
            deleted += 1
        fp_out = apply_errors([det], frame_index, 128, 128, fp_cfg, frozenset({"fp"}), bank, 0)
        injected += sum(d.gt_object_id is None for d in fp_out)
    shift_err = abs(np.mean(shifts) / math.sqrt(area) - 0.2)
    scale_err = abs(float(np.mean(scales)) - 0.2)
    fn_err = abs(deleted / 10_000 - 0.15)
    fp_err = abs(injected / 10_000 - 0.15)

    ok = (
        rigidity < 1e-9
        and wall_error < 1e-6
        and shift_err <= 0.01
        and scale_err <= 0.01
        and fn_err <= 0.01
        and fp_err <= 0.01
    )
    report(
        "C8 geometry and error-model numerics",
        ok,
        f"rigidity={rigidity:.2e} wall={wall_error:.2e} shift|err={shift_err:.4f} "
        f"scale|err={scale_err:.4f} fn|err={fn_err:.4f} fp|err={fp_err:.4f}",
    )


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def test_c9_determinism(config, tmp_path, capsys):
    runs = []
    for name in ("one", "two"):
        root = tmp_path / name
        dataset = root / "data"
        simulate_dialogue_dataset(dataset, config, n_rooms=3)
        episode = dataset / "episode_00000"
        outcome_path = root / "outcome.json"
        assert main(
            ["ground", str(episode), "bring a cup", "--out", str(outcome_path)]
        ) == 0
        query = capsys.readouterr().out
        report_obj = evaluate_dataset(dataset, config, "none")
        report_path = root / "report.json"
        write_report(report_obj, report_path)
        runs.append(
            (
                _tree_digest(dataset),
                outcome_path.read_bytes(),
                query,
                report_path.read_bytes(),
            )
        )
    same = runs[0] == runs[1]
    report("C9 determinism", same, "simulate+ground+eval reruns byte-identical" if same else "divergence")
