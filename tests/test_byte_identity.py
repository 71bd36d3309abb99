"""Simulated datasets, the false-positive bank and the parser corpus,
pinned to the byte.

The dataset and bank digests were recorded before the simulator's room
recipes, episode writer and bank were merged into one trajectory loop; the
corpus digest before the corpus and the episode instructions shared one
template function. Any change to the bytes a seed produces fails here, not
only a rerun mismatch.
"""

import hashlib
import json

from refground.config import PipelineConfig
from refground.evaluation import build_parser_corpus, simulate_counting_dataset, simulate_dialogue_dataset
from refground.graph import serialize
from refground.pipeline import build_observation_bank

COUNTING_SHA256 = "2d472d020dfefb87daeea71509b81a98fbb51562d57d43b19f02c613c92986f6"
DIALOGUE_SHA256 = "9a6d96cfe310d6cc3d305c96fac5196ea1d1c750f7574b51991ffdf2401ac2bf"
BANK_SHA256 = "060ee6d54a9fac98d348a53367ab1ca198414d9d61f8f5ba302bf6d251a34efb"
CORPUS_SHA256 = "a51d7d533e195100e6c570256e04fd1421937340022c3c9ef9d0127230460d2c"


def tree_sha256(root) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def test_counting_dataset_bytes(tmp_path):
    out = simulate_counting_dataset(tmp_path / "counting", PipelineConfig(), rooms_per_count=1)
    assert len(list(out.glob("episode_*"))) == 3
    assert tree_sha256(out) == COUNTING_SHA256


def test_dialogue_dataset_bytes(tmp_path):
    out = simulate_dialogue_dataset(tmp_path / "dialogue", PipelineConfig(), n_rooms=2)
    assert len(list(out.glob("episode_*"))) == 2
    assert tree_sha256(out) == DIALOGUE_SHA256


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
