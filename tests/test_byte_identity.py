"""Simulated datasets, the false-positive bank, the parser corpus, eval
reports and a session dump, pinned to the byte.

The dataset and bank digests were recorded before the simulator's room
recipes, episode writer and bank were merged into one trajectory loop; the
corpus digest before the corpus and the episode instructions shared one
template function; the report and session digests before fusion was
memoized per session; the outcome digest before a grounding built its
outcome once. Any change to the bytes a seed produces fails here, not only
a rerun mismatch.
"""

import hashlib
import json

import pytest

from refground import evaluation
from refground.aggregation import AggregationSession
from refground.config import PipelineConfig
from refground.discriminator import outcome_to_dict
from refground.episodes import load_instructions, load_room
from refground.evaluation import (
    CountingResult,
    DialogueResult,
    EvalReport,
    build_parser_corpus,
    evaluate_dataset,
    simulate_counting_dataset,
    simulate_dialogue_dataset,
    write_report,
)
from refground.graph import serialize
from refground.pipeline import (
    build_observation_bank,
    ground_in_session,
    oracle_outcome,
    query_seed_for,
    session_for_episode,
)

COUNTING_SHA256 = "2d472d020dfefb87daeea71509b81a98fbb51562d57d43b19f02c613c92986f6"
DIALOGUE_SHA256 = "9a6d96cfe310d6cc3d305c96fac5196ea1d1c750f7574b51991ffdf2401ac2bf"
BANK_SHA256 = "060ee6d54a9fac98d348a53367ab1ca198414d9d61f8f5ba302bf6d251a34efb"
CORPUS_SHA256 = "a51d7d533e195100e6c570256e04fd1421937340022c3c9ef9d0127230460d2c"
REPORT_SHA256 = {  # .json then .txt
    ("counting", "none"): "aa21fbb5012381a7b05dd18e9f77dfaad750935de0e85e5582bb652cbc29a44b",
    ("counting", "cs+sd+fn"): "86fb592e253de3400558371255a07e3cb91ec3a61b8d6d09448f56cf7061e8a6",
    ("dialogue", "none"): "9d8fe8bc723c7263beffd8c9ca7b532a94ab085c7d7bf312e25d0527453c4caf",
    ("dialogue", "cs+sd+fn"): "9fed392fa873ff1a27afe3fa9077754a7963068616cd24d4e3c5616b494a74ed",
}
SESSION_SHA256 = "6fe014f32c1a38d374c62ba4698fc7e1e67c8e9831e56792c6c813d5fc0c963d"
OUTCOME_SHA256 = "bdab07878a995d6e33a9ce056037c443bcd89341c3479476be439ef1ec7e72c9"


def tree_sha256(root) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def counting(tmp_path_factory):
    out = tmp_path_factory.mktemp("bytes") / "counting"
    return simulate_counting_dataset(out, PipelineConfig(), rooms_per_count=1)


@pytest.fixture(scope="module")
def dialogue(tmp_path_factory):
    out = tmp_path_factory.mktemp("bytes") / "dialogue"
    return simulate_dialogue_dataset(out, PipelineConfig(), n_rooms=2)


def test_counting_dataset_bytes(counting):
    assert len(list(counting.glob("episode_*"))) == 3
    assert tree_sha256(counting) == COUNTING_SHA256


def test_dialogue_dataset_bytes(dialogue):
    assert len(list(dialogue.glob("episode_*"))) == 2
    assert tree_sha256(dialogue) == DIALOGUE_SHA256


@pytest.mark.parametrize("preset", ["none", "cs+sd+fn"])
@pytest.mark.parametrize("kind", ["counting", "dialogue"])
def test_eval_report_bytes(request, tmp_path, kind, preset):
    report = tmp_path / "report.json"
    write_report(evaluate_dataset(request.getfixturevalue(kind), PipelineConfig(), preset), report)
    h = hashlib.sha256(report.read_bytes())
    h.update(report.with_suffix(".txt").read_bytes())
    assert h.hexdigest() == REPORT_SHA256[kind, preset]


@pytest.mark.parametrize("preset", ["none", "cs+sd+fn"])
@pytest.mark.parametrize("kind", ["counting", "dialogue"])
def test_eval_report_metrics_are_recomputed_from_its_records(request, tmp_path, kind, preset):
    # every number of a report follows from its records: results rebuilt from
    # the written records give every metric, the confusion table and the .txt
    path = tmp_path / "report.json"
    write_report(evaluate_dataset(request.getfixturevalue(kind), PipelineConfig(), preset), path)
    written = json.loads(path.read_text())
    rebuilt = EvalReport(
        written["config"],
        preset,
        CountingResult(written["counting"]["records"]) if kind == "counting" else None,
        DialogueResult(written["dialogue"]["records"]) if kind == "dialogue" else None,
    )
    assert json.loads(json.dumps(rebuilt.to_dict())) == written
    assert rebuilt.render_table() + "\n" == path.with_suffix(".txt").read_text()


@pytest.mark.parametrize("kind", ["counting", "dialogue"])
def test_eval_reads_manifest_once(request, monkeypatch, kind):
    reads, load_manifest = [], evaluation.load_manifest

    def counted(dataset_dir):
        reads.append(dataset_dir)
        return load_manifest(dataset_dir)

    monkeypatch.setattr(evaluation, "load_manifest", counted)
    evaluate_dataset(request.getfixturevalue(kind), PipelineConfig(), "none")
    assert len(reads) == 1


def test_session_dump_bytes(dialogue, tmp_path):
    config = PipelineConfig()
    session = session_for_episode(dialogue / "episode_00000", config, "cs+sd+fn", config.lexicon())
    session.dump(tmp_path / "session.json")
    assert hashlib.sha256((tmp_path / "session.json").read_bytes()).hexdigest() == SESSION_SHA256


def test_grounded_outcome_bytes(dialogue, tmp_path):
    # every instruction grounded under both presets, on the session as built
    # and as reloaded from its dump, then the oracle's reference outcome
    config = PipelineConfig()
    lexicon = config.lexicon()
    h = hashlib.sha256()
    for preset in ("none", "cs+sd+fn"):
        for episode_dir in sorted(dialogue.glob("episode_*")):
            built = session_for_episode(episode_dir, config, preset, lexicon)
            built.dump(tmp_path / "session.json")
            loaded = AggregationSession.load(tmp_path / "session.json")
            room = load_room(episode_dir)
            for case in load_instructions(episode_dir):
                seed = query_seed_for(config.seed, f"{episode_dir.name}:{case.text}")
                outcomes = [ground_in_session(s, case.text, config, lexicon, seed) for s in (built, loaded)]
                outcomes.append((oracle_outcome(room, outcomes[0][1], config, seed), None))
                for outcome, _ in outcomes:
                    h.update(json.dumps(outcome_to_dict(outcome), sort_keys=True).encode())
                    h.update(b"\n")
    assert h.hexdigest() == OUTCOME_SHA256


def test_observation_bank_bytes():
    bank = build_observation_bank(PipelineConfig())
    assert len(bank) == 27
    rows = [[b.u_min, b.v_min, b.u_max, b.v_max, caption] for b, caption in bank]
    assert hashlib.sha256(json.dumps(rows).encode()).hexdigest() == BANK_SHA256


def test_parser_corpus_bytes():
    h = hashlib.sha256()
    for case in build_parser_corpus(600, seed=7):
        for part in (case.text, "\t".join(case.labels), case.re_type, serialize(case.graph)):
            h.update(part.encode())
            h.update(b"\n")
    assert h.hexdigest() == CORPUS_SHA256
