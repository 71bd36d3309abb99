import importlib.util
from pathlib import Path

import pytest

spec = importlib.util.spec_from_file_location(
    "outputs_tool", Path(__file__).resolve().parents[1] / "tools" / "outputs.py"
)
outputs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(outputs)


def tree(root: Path, files: dict[str, bytes]) -> Path:
    for name, data in files.items():
        (root / name).parent.mkdir(parents=True, exist_ok=True)
        (root / name).write_bytes(data)
    return root


def test_diff_counts_identical_and_names_each_difference(tmp_path, capsys):
    a = tree(tmp_path / "a", {"x.json": b"1", "sub/y.depth": b"2", "only_a.txt": b"3"})
    b = tree(tmp_path / "b", {"x.json": b"1", "sub/y.depth": b"22", "sub/only_b.txt": b"4"})
    assert outputs.main(["diff", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"only in {a}: only_a.txt",
        f"only in {b}: sub/only_b.txt",
        "differs: sub/y.depth",
        "1 files identical, 3 differ",
    ]


def test_diff_of_equal_trees_exits_zero(tmp_path, capsys):
    files = {"x.json": b"1", "sub/y.depth": b"2"}
    assert outputs.main(["diff", str(tree(tmp_path / "a", files)), str(tree(tmp_path / "b", files))]) == 0
    assert capsys.readouterr().out == "2 files identical, 0 differ\n"


def test_write_refuses_a_non_empty_directory(tmp_path):
    tree(tmp_path, {"stale.json": b"{}"})
    with pytest.raises(SystemExit, match="is not empty"):
        outputs.main(["write", str(tmp_path)])
