import dataclasses
import hashlib
import json
import re
import shutil
import warnings
from pathlib import Path

import pytest

from refground import config as config_module
from refground.aggregation import AggregationSession
from refground.cli import main
from refground.config import ConfigError, PipelineConfig, load_config
from refground.geometry import DepthFrame, GridSpec, read_depth_file, write_depth_file
from refground.lexicon import default_lexicon, load_lexicon

from conftest import save_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file():
            h.update(path.relative_to(root).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "dataset"
    assert main(["simulate", "--out", str(out), "--kind", "dialogue", "--rooms", "2"]) == 0
    return out


def episode_dir(dataset):
    return dataset / "episode_00000"


# -- simulate -----------------------------------------------------------------


def test_simulate_layout(dataset):
    assert (dataset / "manifest.jsonl").exists()
    ep = episode_dir(dataset)
    for name in ("room.json", "episode.jsonl", "instructions.jsonl", "frame_00000.depth"):
        assert (ep / name).exists()


def test_simulate_rerun_byte_identical(dataset, tmp_path):
    again = tmp_path / "again"
    assert main(["simulate", "--out", str(again), "--kind", "dialogue", "--rooms", "2"]) == 0
    assert tree_digest(again) == tree_digest(dataset)


@pytest.mark.parametrize("kind", ["counting", "dialogue"])
@pytest.mark.parametrize("under_file", [False, True])
def test_simulate_out_blocked_by_file_is_io_error(tmp_path, capsys, kind, under_file):
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory\n")
    out = blocker / "sub" if under_file else blocker
    assert main(["simulate", "--out", str(out), "--kind", kind, "--rooms", "1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(blocker) in lines[0]
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("kind", ["counting", "dialogue"])
@pytest.mark.parametrize("rooms", ["0", "-2"])
def test_simulate_fewer_than_one_room_is_a_usage_error(tmp_path, capsys, kind, rooms):
    out = tmp_path / "d"
    with pytest.raises(SystemExit) as exit_info:
        main(["simulate", "--out", str(out), "--kind", kind, "--rooms", rooms])
    assert exit_info.value.code == 2
    assert "--rooms: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate_config", "ground_out", "eval_out"])
def test_missing_or_blocked_path_is_io_error(dataset, tmp_path, capsys, command):
    blocker = tmp_path / "afile"
    blocker.write_text("not a directory\n")
    args = {
        "simulate_config": ["simulate", "--out", str(tmp_path / "d"), "--config", str(tmp_path / "nope.cfg")],
        "ground_out": ["ground", str(episode_dir(dataset)), "bring a cup", "--out", str(blocker / "o.json")],
        "eval_out": ["eval", str(dataset), "--out", str(blocker / "r.json")],
    }[command]
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


# -- parse --------------------------------------------------------------------


def test_parse_outputs_graph_json(capsys):
    assert main(["parse", "take the plastic cup on the table"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["root"] == "cup"
    assert payload["self"] == [["material", "plastic"]]


def test_parse_with_tags(capsys):
    assert main(["parse", "bring a cup", "--tags"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split("\t") == ["O", "O", "B-r(g)"]


def test_parse_failure_exit_code(capsys):
    assert main(["parse", "bring the red thing"]) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("extra", [[], ["--tags"]])
def test_parse_of_empty_text_names_it(capsys, extra):
    assert main(["parse", "", *extra]) == 2
    assert one_error_line(capsys) == "error: cannot parse: empty input text"


@pytest.mark.parametrize("command", ["parse", "ground"])
def test_conflicting_attributes_are_a_parse_failure(dataset, capsys, command):
    text = "bring the red blue cup"
    args = ["parse", text] if command == "parse" else ["ground", str(episode_dir(dataset)), text]
    assert main(args) == 2
    line = one_error_line(capsys)
    assert "two values for 'color'" in line


# -- ground ---------------------------------------------------------------------


def test_ground_prints_query(dataset, capsys):
    case = json.loads((episode_dir(dataset) / "instructions.jsonl").read_text().splitlines()[0])
    assert main(["ground", str(episode_dir(dataset)), case["text"]]) == 0
    out = capsys.readouterr().out.strip()
    assert out  # the query line


def test_ground_parse_failure_prints_nothing(dataset, capsys):
    assert main(["ground", str(episode_dir(dataset)), "bring the widget"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "cannot parse" in captured.err


def test_ground_missing_episode_is_io_error(tmp_path, capsys):
    assert main(["ground", str(tmp_path / "nope"), "bring a cup"]) == 3
    assert capsys.readouterr().out == ""


def test_ground_writes_outcome_record(dataset, tmp_path, capsys):
    out_file = tmp_path / "outcome.json"
    assert main(
        ["ground", str(episode_dir(dataset)), "bring a cup", "--out", str(out_file)]
    ) == 0
    query = capsys.readouterr().out.strip()
    payload = json.loads(out_file.read_text())
    assert payload["query"] == query
    assert payload["state"] in {
        "confirm",
        "inform-mismatch",
        "inform-ambiguity",
        "inform-missing",
    }


def test_ground_determinism(dataset, capsys):
    assert main(["ground", str(episode_dir(dataset)), "bring a cup"]) == 0
    first = capsys.readouterr().out
    assert main(["ground", str(episode_dir(dataset)), "bring a cup"]) == 0
    assert capsys.readouterr().out == first


# -- aggregate ---------------------------------------------------------------------


def test_aggregate_session_reusable(dataset, tmp_path, capsys):
    session_file = tmp_path / "session.json"
    assert main(["aggregate", str(episode_dir(dataset)), "--out", str(session_file)]) == 0
    capsys.readouterr()
    assert main(["ground", str(episode_dir(dataset)), "bring a cup"]) == 0
    direct = capsys.readouterr().out
    assert (
        main(
            [
                "ground",
                str(episode_dir(dataset)),
                "bring a cup",
                "--session",
                str(session_file),
            ]
        )
        == 0
    )
    assert capsys.readouterr().out == direct


def test_ground_with_session_refuses_noise(dataset, tmp_path, capsys):
    """A dumped session has its noise applied already; --noise cannot change it."""
    args = ["ground", str(episode_dir(dataset)), "bring a cup", "--session", str(tmp_path / "s.json")]
    with pytest.raises(SystemExit) as exc:
        main(args + ["--noise", "cs"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--noise: not allowed with argument --session" in captured.err


def test_ground_loads_the_lexicon_once(dataset, tmp_path, capsys, monkeypatch):
    loads = []

    def counted(path):
        loads.append(path)
        return load_lexicon(path)

    monkeypatch.setattr(config_module, "load_lexicon", counted)
    config = tmp_path / "lexicon.cfg"
    config.write_text(f"lexicon_path = {CONFIGS / 'lexicon.txt'}\n")
    assert main(["ground", str(episode_dir(dataset)), "bring a cup", "--config", str(config)]) == 0
    assert len(loads) == 1


def deep_graph_json(relations: int) -> str:
    """Graph text nesting `relations` is-on edges; too deep for json.dumps to write."""
    leaf = '{"root": "box", "self": [], "rel": []}'
    return '{"root": "box", "self": [], "rel": [["is-on", ' * relations + leaf + "]]}" * relations


def write_bad_session(kind, path, dataset):
    if kind == "not_json":
        path.write_text("this is not a session\n")
    elif kind == "not_utf8":
        path.write_bytes(b"\xff\xfe\x00session")
    elif kind == "other_grid":
        AggregationSession(GridSpec(0.0, 0.0, 0.1, 50, 50)).dump(path)
    elif kind == "deep_graph":
        AggregationSession(PipelineConfig().grid_spec()).dump(path)
        graphs = f'"graphs": [{{"graph": {deep_graph_json(400)}, "oid": 0}}]'
        path.write_text(path.read_text().replace('"graphs": []', graphs))
    else:  # a dumped session with one cell moved outside the grid, or a grid too large to allocate
        assert main(["aggregate", str(episode_dir(dataset)), "--out", str(path)]) == 0
        payload = json.loads(path.read_text())
        if kind == "huge_grid":
            payload["grid"].update(d1=10**9, d2=10**9)
        elif kind == "negative_weight":  # one cup cell outweighed by negative ones
            oid = next(e["oid"] for e in payload["graphs"] if e["graph"]["root"] == "cup")
            rows = payload["cells"][str(oid)]
            rows[0][2:] = [1.0, 1]
            for row in rows[1:]:
                row[2:] = [-0.01, 40]
        elif kind == "repeated_graph":  # oid 0's graph listed again under the next oid
            graph = next(e["graph"] for e in payload["graphs"] if e["oid"] == 0)
            payload["graphs"].append({"oid": len(payload["graphs"]), "graph": graph})
        elif kind == "padded_oid_key":  # a cup's rows again under "0<oid>", three weights x50
            oid = next(e["oid"] for e in payload["graphs"] if e["graph"]["root"] == "cup")
            rows = [list(row) for row in payload["cells"][str(oid)]]
            for row in rows[:3]:
                row[2] *= 50
            payload["cells"][f"0{oid}"] = rows
        else:  # one cell row edited in place
            row = next(rows for rows in payload["cells"].values() if rows)[0]
            if kind == "cell_outside_grid":
                row[0] = -3
            elif kind == "non_integer_cell":
                row[0], row[3] = row[0] + 0.5, 1.5
            else:  # huge_frequency: an int64 cast would wrap it negative
                row[3] = 1e300
        path.write_text(json.dumps(payload))


@pytest.mark.parametrize(
    "kind",
    [
        "not_json", "not_utf8", "other_grid", "cell_outside_grid", "huge_grid", "deep_graph",
        "negative_weight", "repeated_graph", "non_integer_cell", "huge_frequency", "padded_oid_key",
    ],
)
def test_ground_bad_session_is_io_error(dataset, tmp_path, capsys, kind):
    session_file = tmp_path / "session.json"
    write_bad_session(kind, session_file, dataset)
    capsys.readouterr()
    args = ["ground", str(episode_dir(dataset)), "bring a cup", "--session", str(session_file)]
    assert main(args) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {session_file}: ")
    if kind == "other_grid":
        assert str(PipelineConfig().grid_spec()) in lines[0]
        assert "cell_size=0.1, d1=50, d2=50" in lines[0]
    if kind == "negative_weight":
        assert lines[0].endswith("has a negative weight")
    if kind == "repeated_graph":
        assert lines[0].endswith("repeats the graph of oid 0")
    if kind == "non_integer_cell":
        assert lines[0].endswith("has a non-integer index")
    if kind == "huge_frequency":
        assert lines[0].endswith("has frequency 2**63 or more")
    if kind == "padded_oid_key":
        assert ": cells for unknown oid 0" in lines[0]


@pytest.mark.parametrize("command", ["ground", "aggregate", "eval", "eval_counting"])
def test_depth_beyond_configured_max_range_is_io_error(dataset, counting_dataset, tmp_path, capsys, command):
    # the datasets are written at the default max_range 2.4, so their depths run past 2.0
    config = tmp_path / "short.cfg"
    config.write_text("max_range = 2.0\n")
    args = {
        "ground": ["ground", str(episode_dir(dataset)), "bring a cup"],
        "aggregate": ["aggregate", str(episode_dir(dataset)), "--out", str(tmp_path / "s.json")],
        "eval": ["eval", str(dataset)],
        "eval_counting": ["eval", str(counting_dataset)],
    }[command]
    assert main(args + ["--config", str(config)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: ") and ".depth: " in lines[0]
    largest = re.search(r"largest depth ([0-9.]+), configured max_range 2.0$", lines[0])
    assert largest and 2.0 < float(largest.group(1)) <= 2.4


@pytest.mark.parametrize("command", ["ground", "aggregate"])
def test_depth_of_another_size_than_the_intrinsics_is_io_error(dataset, tmp_path, capsys, command):
    episode = tmp_path / "episode"
    shutil.copytree(episode_dir(dataset), episode)
    config = PipelineConfig()
    k = config.intrinsics()
    for path in episode.glob("*.depth"):
        full = read_depth_file(path, max_range=config.max_range)
        crop = full.depth[: k.height // 2, : k.width // 2]
        write_depth_file(path, DepthFrame(k.width // 2, k.height // 2, crop, full.max_range))
    args = {
        "ground": ["ground", str(episode), "bring a cup"],
        "aggregate": ["aggregate", str(episode), "--out", str(tmp_path / "s.json")],
    }[command]
    assert main(args) == 3
    line = one_error_line(capsys)
    assert line.startswith(f"error: {episode}") and ".depth: " in line
    sizes = f"depth is {k.width // 2}x{k.height // 2}, the frame's intrinsics {k.width}x{k.height}"
    assert line.endswith(sizes)
    assert not (tmp_path / "s.json").exists()


# -- eval --------------------------------------------------------------------------


def test_eval_writes_reports(dataset, tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["eval", str(dataset), "--out", str(report)]) == 0
    table = capsys.readouterr().out
    assert "dialogue metrics" in table
    payload = json.loads(report.read_text())
    assert 0.0 <= payload["dialogue"]["aa_f1"] <= 1.0
    assert report.with_suffix(".txt").exists()


def test_eval_report_path_ending_in_txt_is_a_usage_error(dataset, tmp_path, capsys):
    # the table would overwrite the report it is written beside
    report = tmp_path / "report.txt"
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", str(dataset), "--out", str(report)])
    assert exit_info.value.code == 2
    assert "--out: the table is written to the .txt beside the report" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_eval_missing_manifest(tmp_path, capsys):
    assert main(["eval", str(tmp_path)]) == 3


@pytest.mark.parametrize("manifest", ["\n", '{"dir": "episode_00000"}\n', '{"dir": "episode_00000", "kind": "other"}\n'])
def test_eval_manifest_without_counting_or_dialogue_entries_is_dataset_error(dataset, tmp_path, capsys, manifest):
    copy = tmp_path / "dataset"
    shutil.copytree(dataset, copy)
    (copy / "manifest.jsonl").write_text(manifest)
    assert main(["eval", str(copy)]) == 3
    assert one_error_line(capsys) == f"error: {copy}: no counting or dialogue episodes in manifest"


def one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err
    return lines[0]


@pytest.mark.parametrize(
    "damage",
    [
        "manifest_json",
        "manifest_without_dir",
        "room_json",
        "room_deep_json",
        "room_no_record",
        "room_two_records",
        "instructions_json",
        "instructions_deep_graph",
        "episode_not_utf8",
    ],
)
def test_eval_malformed_dataset_file_is_io_error(dataset, tmp_path, capsys, damage):
    copy = tmp_path / "dataset"
    shutil.copytree(dataset, copy)
    manifest = copy / "manifest.jsonl"
    entries = manifest.read_text().splitlines()
    room_line = (copy / "episode_00000" / "room.json").read_text()
    path, lineno, text = {
        "manifest_json": (manifest, 2, "\n".join([entries[0], "{not json"]) + "\n"),
        "manifest_without_dir": (manifest, 2, "\n".join([entries[0], '{"kind": "dialogue"}']) + "\n"),
        "room_json": (copy / "episode_00000" / "room.json", 1, "{]\n"),
        "room_deep_json": (copy / "episode_00000" / "room.json", None, "[" * 5000 + "]" * 5000),
        "room_no_record": (copy / "episode_00000" / "room.json", None, "\n"),
        "room_two_records": (copy / "episode_00000" / "room.json", None, room_line * 2),
        "instructions_json": (copy / "episode_00000" / "instructions.jsonl", 1, "{bad\n"),
        "instructions_deep_graph": (
            copy / "episode_00000" / "instructions.jsonl", 1, f'{{"graph": {deep_graph_json(400)}}}\n'
        ),
        "episode_not_utf8": (copy / "episode_00000" / "episode.jsonl", 1, b"\xff\xfe\n"),
    }[damage]
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    assert main(["eval", str(copy)]) == 3
    line = one_error_line(capsys)
    assert line.startswith(f"error: {path}: ")
    if lineno is not None:
        assert f"line {lineno}" in line


@pytest.mark.parametrize(
    "name, key_path, value",
    [
        pytest.param("episode.jsonl", ("detections", 0, "caption"), 3, id="caption_int"),
        pytest.param("episode.jsonl", ("detections", 0, "caption"), None, id="caption_null"),
        pytest.param("episode.jsonl", ("detections", 0, "caption"), {"k": 1}, id="caption_object"),
        pytest.param("episode.jsonl", ("detections", 0, "bbox", 0), -1e308, id="bbox_outside_frame"),
        pytest.param("episode.jsonl", ("pose", 0), 1e308, id="pose_1e308"),
        pytest.param("episode.jsonl", ("intrinsics", "fx"), float("nan"), id="focal_nan"),
        pytest.param("episode.jsonl", ("frame",), -1, id="frame_negative"),
        pytest.param("room.json", ("objects", 0, "class"), 3, id="room_class_int"),
        pytest.param("room.json", ("objects", 0, "color"), [], id="room_color_list"),
        pytest.param("room.json", ("objects", 0, "box_max"), [0, 0], id="room_box_two_numbers"),
        pytest.param("room.json", ("copies", "cup"), float("-inf"), id="room_copies_inf"),
        pytest.param("room.json", ("objects", 0, "support"), 0, id="room_object_on_itself"),
        pytest.param("instructions.jsonl", ("text",), 2.5, id="instruction_text_float"),
        pytest.param("manifest.jsonl", ("kind",), {"k": 1}, id="kind_object"),
        pytest.param("manifest.jsonl", ("kind",), ["dialogue"], id="kind_list"),
    ],
)
def test_eval_wrongly_typed_dataset_value_is_io_error(dataset, tmp_path, capsys, name, key_path, value):
    copy = tmp_path / "dataset"
    shutil.copytree(dataset, copy)
    path = copy / name if name == "manifest.jsonl" else copy / "episode_00000" / name
    lines = path.read_text().splitlines()
    # the first record, or for episode.jsonl the first frame with a detection
    lineno = next(
        i for i, line in enumerate(lines, 1) if name != "episode.jsonl" or json.loads(line)["detections"]
    )
    record = json.loads(lines[lineno - 1])
    node = record
    for key in key_path[:-1]:
        node = node[key]
    node[key_path[-1]] = value
    lines[lineno - 1] = json.dumps(record)
    path.write_text("\n".join(lines) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would be a second stderr line
        assert main(["eval", str(copy)]) == 3
    line = one_error_line(capsys)
    assert line.startswith(f"error: {path}: line {lineno}: ")


def test_eval_instruction_outside_configured_lexicon_is_parse_failure(dataset, tmp_path, capsys):
    lexicon = tmp_path / "tables.lex"
    lexicon.write_text("object_classes = table\n")
    config = tmp_path / "lexicon.cfg"
    config.write_text(f"lexicon_path = {lexicon}\n")
    assert main(["eval", str(dataset), "--config", str(config)]) == 2
    line = one_error_line(capsys)
    assert line.startswith("error: cannot parse: no referred object class in: ")


@pytest.fixture(scope="module")
def counting_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "counting"
    assert main(["simulate", "--out", str(out), "--kind", "counting", "--rooms", "1"]) == 0
    return out


def test_eval_loads_the_lexicon_once(dataset, counting_dataset, tmp_path, capsys, monkeypatch):
    # one counting and one dialogue episode in one dataset
    mixed = tmp_path / "mixed"
    entries = []
    for name, source in (("counting", counting_dataset), ("dialogue", dataset)):
        shutil.copytree(episode_dir(source), mixed / name)
        entry = json.loads((source / "manifest.jsonl").read_text().splitlines()[0])
        entries.append(json.dumps({**entry, "dir": name}) + "\n")
    (mixed / "manifest.jsonl").write_text("".join(entries))
    loads = []

    def counted(path):
        loads.append(path)
        return load_lexicon(path)

    monkeypatch.setattr(config_module, "load_lexicon", counted)
    config = tmp_path / "lexicon.cfg"
    config.write_text(f"lexicon_path = {CONFIGS / 'lexicon.txt'}\n")
    assert main(["eval", str(mixed), "--config", str(config)]) == 0
    out = capsys.readouterr().out
    assert "instance counting F1" in out and "dialogue metrics" in out
    assert len(loads) == 1


@pytest.mark.parametrize(
    "key, value",
    [("target", None), ("count", None), ("count", "two"), ("count", 2.5), ("count", -1), ("count", 0)],
    ids=["no_target", "no_count", "count_text", "count_fraction", "count_negative", "count_zero"],
)
def test_eval_counting_manifest_entry_without_target_or_integer_count_is_io_error(
    counting_dataset, tmp_path, capsys, key, value
):
    copy = tmp_path / "counting"
    shutil.copytree(counting_dataset, copy)
    manifest = copy / "manifest.jsonl"
    entries = [json.loads(line) for line in manifest.read_text().splitlines()]
    if value is None:
        del entries[1][key]
    else:
        entries[1][key] = value
    manifest.write_text("".join(json.dumps(e) + "\n" for e in entries))
    assert main(["eval", str(copy)]) == 3
    line = one_error_line(capsys)
    assert line.startswith(f"error: {manifest}: line 2: ")
    assert '"target" string and an integer "count"' in line


# -- config ------------------------------------------------------------------------


def test_config_round_trip(tmp_path):
    cfg = PipelineConfig(gamma=0.07, acknowledgements=("Okay.", "Right away."))
    path = tmp_path / "pipeline.cfg"
    save_config(cfg, path)
    loaded = load_config(path)
    assert loaded == cfg


def test_config_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("not_a_key = 3\n")
    with pytest.raises(ConfigError, match="line 1"):
        load_config(path)


def test_config_bad_value_names_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# comment\ncell_size = banana\n")
    with pytest.raises(ConfigError, match="line 2"):
        load_config(path)


def test_config_validation_names_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("cell_size = -1\n")
    with pytest.raises(ConfigError, match="cell_size"):
        load_config(path)


def test_cli_rejects_bad_config(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text("gamma = 2.0\n")
    assert main(["parse", "bring a cup", "--config", str(path)]) == 3


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_seed_is_config_error(tmp_path, capsys, source):
    out = tmp_path / "out"
    args = ["simulate", "--out", str(out), "--rooms", "1"]
    if source == "flag":
        args += ["--seed", "-1"]
    else:
        config = tmp_path / "seed.cfg"
        config.write_text("seed = -1\n")
        args += ["--config", str(config)]
    assert main(args) == 3
    line = one_error_line(capsys)
    assert line.startswith("config error: ") and "seed must be non-negative" in line
    assert not out.exists()


@pytest.mark.parametrize(
    "change, message",
    [({"p_fn": 1.5}, "p_fn must lie in [0, 1]"), ({"seed": -1}, "seed must be non-negative"),
     ({"gamma": 1.5}, "gamma must lie in (0, 1)")],
    ids=["p_fn", "seed", "gamma"],
)
def test_config_out_of_range_cannot_be_built(change, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        PipelineConfig(**change)
    with pytest.raises(ConfigError, match=re.escape(message)):
        dataclasses.replace(PipelineConfig(), **change)


def test_config_cannot_change_after_it_is_built(tmp_path, capsys):
    config = PipelineConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.seed = -1
    assert config == PipelineConfig()
    # the --seed flag makes a new config from the loaded one, checked in turn
    path = tmp_path / "seed.cfg"
    path.write_text("seed = 3\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(path), "--seed", "-1", "--out", str(out), "--rooms", "1"]) == 3
    assert one_error_line(capsys) == "config error: config key seed must be non-negative"
    assert not out.exists()


@pytest.mark.parametrize("n_waypoints", [1, 3])
def test_too_few_waypoints_is_config_error(tmp_path, capsys, n_waypoints):
    config = tmp_path / "waypoints.cfg"
    config.write_text(f"n_waypoints = {n_waypoints}\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--rooms", "1"]) == 3
    line = one_error_line(capsys)
    assert line.startswith("config error: ") and "n_waypoints must be >= 4" in line
    assert not out.exists()


def test_ring_aimed_at_its_own_eye_is_config_error(tmp_path, capsys):
    config = tmp_path / "rig.cfg"
    config.write_text("look_frac = 0.0\nlook_height = 2.2\ncam_height = 2.2\n")
    out = tmp_path / "out"
    assert main(["simulate", "--config", str(config), "--out", str(out), "--rooms", "1"]) == 3
    line = one_error_line(capsys)
    assert line.startswith(f"config error: {config}: ") and "look_frac" in line
    assert not out.exists()


@pytest.mark.parametrize(
    "text, prefix",
    [
        ("cell_size = nan", "config error: {config}: config key cell_size must be 0 or a finite"),
        ("room_x = inf", "config error: {config}: config key room_x must be 0 or a finite"),
        ("focal_px = nan", "config error: {config}: config key focal_px must be 0 or a finite"),
        ("room_y = 1e308", "config error: {config}: config key room_y must be 0 or a finite"),
        ("cell_size = 0.0000001", "error: Unable to allocate"),  # 5e7 x 5e7 cells: petabytes per array
        ("foo = 1", "config error: {config}: line 1: unknown config key"),
        ("seed = x", "config error: {config}: line 1: bad value for seed"),
        ("seed 3", "config error: {config}: line 1: expected 'key = value'"),
        ("gamma = 0.05\n# a later line\ngamma = 0.2", "config error: {config}: line 3: key 'gamma' already set on line 1"),
        ("lexicon_path = a\0b", "config error: {config}: config key lexicon_path must not contain a NUL"),
    ],
)
def test_bad_config_number_exits_3(dataset, tmp_path, capsys, text, prefix):
    config = tmp_path / "number.cfg"
    config.write_text(text + "\n")
    args = ["aggregate", str(episode_dir(dataset)), "--out", str(tmp_path / "s.json"), "--config", str(config)]
    assert main(args) == 3
    assert one_error_line(capsys).startswith(prefix.format(config=config))


def test_shipped_config_and_lexicon_match_code_defaults():
    assert load_config(CONFIGS / "default.cfg") == PipelineConfig()
    assert load_lexicon(CONFIGS / "lexicon.txt") == default_lexicon()


def test_cli_non_utf8_config_is_io_error(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_bytes(b"\xff\xfe")
    assert main(["parse", "a cup", "--config", str(path)]) == 3
    line = one_error_line(capsys)
    assert line.startswith(f"config error: {path}: ")


@pytest.mark.parametrize(
    "content, fault",
    [
        (b"object_classes = cup\nbogus line\n", "line 2: "),
        (b"object_classes = cup\xff\n", "not UTF-8"),
        # kinds the graph refuses: refused with the lexicon, not blamed on the text
        (b"object_classes = cup\nrel.is-ON = on\n", "attribute kind must be lowercase"),
        (b"object_classes = cup\nself.my color = red\n", "attribute kind must not contain whitespace"),
        (b"object_classes = cup\nself. = red\n", "attribute kind must be lowercase, non-empty"),
        # the tagger leaves every word outside the tables as O, so no key lists such words
        (b"object_classes = cup\nstopwords = a, the\n", "line 2: unknown key 'stopwords'"),
        # a second list would replace the first and its words would tag as O
        (b"object_classes = cup\nself.color = red\nself.color = blue\n", "line 3: key 'self.color' already set on line 2"),
        # the later kind would silently win; a cue or value names one kind
        (b"object_classes = cup\nrel.is-on = on\nrel.is-near = on, near\n", "line 3: cue 'on' already names is-on on line 2"),
        (b"object_classes = cup\nself.color = red\nself.finish = matte, red\n", "line 3: value 'red' already names color on line 2"),
    ],
)
@pytest.mark.parametrize("command", ["parse", "ground", "eval"])
def test_malformed_lexicon_is_io_error(dataset, tmp_path, capsys, command, content, fault):
    lexicon = tmp_path / "bad.lex"
    lexicon.write_bytes(content)
    config = tmp_path / "lexicon.cfg"
    config.write_text(f"lexicon_path = {lexicon}\n")
    args = {
        "parse": ["parse", "a cup"],
        "ground": ["ground", str(episode_dir(dataset)), "bring a cup"],
        "eval": ["eval", str(dataset)],
    }[command]
    assert main(args + ["--config", str(config)]) == 3
    line = one_error_line(capsys)
    assert line.startswith(f"lexicon error: {lexicon}: {fault}")


def test_cli_seed_override(dataset, capsys):
    assert main(["ground", str(episode_dir(dataset)), "bring a cup", "--seed", "99"]) == 0
    capsys.readouterr()
