import importlib.util
import re
import shutil
import sys
from pathlib import Path

import pytest

import refground.aggregation

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("ab_tool", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

SRC = ROOT / "src"

# appended to a copy's aggregation.py: every fusion the memo misses first waits 0.5 ms
SLOW_FUSE = """
import time as _time

_fuse_at_full_speed = AggregationSession._fuse


def _slow_fuse(self, *args):
    end = _time.perf_counter() + 5e-4
    while _time.perf_counter() < end:
        pass
    return _fuse_at_full_speed(self, *args)


AggregationSession._fuse = _slow_fuse
"""


# appended to a copy's aggregation.py: every fusion drops its first record
DROP_A_RECORD = """
_fuse_in_full = AggregationSession._fuse
AggregationSession._fuse = lambda self, *args: _fuse_in_full(self, *args)[1:]
"""

# appended to a copy's pipeline.py: no caption can name a counting target, so
# every counting session comes out empty while dialogue sessions keep theirs
NAME_NO_TARGET = """
may_name = lambda text, key: False
"""


def changed_copy(tmp_path, appended: str, module: str = "aggregation") -> Path:
    """A copy of src/ with `appended` added to the end of its `module`.py."""
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    with open(copy / "refground" / f"{module}.py", "a", encoding="utf-8") as f:
        f.write(appended)
    return copy


def test_a_tree_against_itself_reads_no_gain():
    results, table = ab.compare(SRC, SRC, rounds=20, rooms=2, seed=1)
    assert results > 0
    assert {name: row["verdict"] for name, row in table.items()} == {
        "cold fusion": "no gain",
        "warm grounding": "no gain",
        "eval_counting": "no gain",
    }
    for row in table.values():
        assert row["ops"] > 0 and len(row["a"]) == len(row["b"]) == 20


def test_a_copy_with_slowed_fusion_reads_a_loss_there_only(tmp_path):
    _, table = ab.compare(SRC, changed_copy(tmp_path, SLOW_FUSE), rounds=10, rooms=2, seed=1)
    assert table["cold fusion"]["verdict"] == "loss"
    assert table["cold fusion"]["wins"] == 0
    assert table["warm grounding"]["verdict"] != "loss"


def test_trees_that_ground_differently_are_not_timed(tmp_path):
    with pytest.raises(SystemExit, match=r"^error: the trees disagree: \d+ of \d+ results identical$"):
        ab.compare(SRC, changed_copy(tmp_path, DROP_A_RECORD), rounds=2, rooms=1, seed=1)


def test_trees_that_count_differently_are_not_timed(tmp_path):
    with pytest.raises(SystemExit, match=r"^error: the trees disagree: \d+ of \d+ results identical$") as refused:
        ab.compare(SRC, changed_copy(tmp_path, NAME_NO_TARGET, "pipeline"), rounds=2, rooms=1, seed=1)
    same, total = map(int, re.findall(r"\d+", str(refused.value)))
    assert same == total - len(ab.COUNT_PRESETS)  # every dialogue result agreed, no counting preset did


def test_loading_a_tree_leaves_the_imported_refground_in_place():
    before = {m: sys.modules[m] for m in sys.modules if m.startswith("refground")}
    tree = ab.load_tree(SRC)
    assert tree.aggregation is not refground.aggregation
    assert {m: sys.modules[m] for m in sys.modules if m.startswith("refground")} == before


A_ROUNDS = [9.0, 9.5, 9.6, 9.8, 10.0, 10.0, 10.2, 10.4, 10.5, 11.0]  # median 10, IQR 0.85


@pytest.mark.parametrize(
    "b, want",
    [
        ([8.5] * 9 + [12.0], "gain"),  # faster in 9 of 10, by more than A's IQR
        ([8.5] * 8 + [12.0] * 2, "no gain"),  # faster in only 8 of 10
        ([x - 0.1 for x in A_ROUNDS], "no gain"),  # always faster, by less than A's IQR
        ([12.0] * 9 + [8.5], "loss"),
    ],
    ids=["gain", "eight_wins", "within_iqr", "loss"],
)
def test_verdict_asks_for_nine_wins_in_ten_and_a_gain_beyond_the_iqr(b, want):
    assert ab.verdict(A_ROUNDS, b) == want


def test_main_prints_one_row_per_probe(capsys):
    assert ab.main([str(SRC), str(SRC), "--rounds", "2", "--rooms", "1"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("results identical; 2 rounds, per-op µs")
    assert [line[:16].rstrip() for line in lines[2:]] == ["cold fusion", "warm grounding", "eval_counting"]
