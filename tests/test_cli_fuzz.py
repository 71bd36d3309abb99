"""Fuzz the command line with one damaged input file per example.

Each example of the first test damages one file of a tiny dialogue dataset,
a tiny counting dataset, a session dump or the config file, then runs
`eval`, `aggregate`, `ground` and `ground --session` in-process. Each
example of the second damages a config or a lexicon file and runs `parse`
and `simulate`. Every run must exit 0, 2 or 3 (or 1 when a damaged config
leaves a room unplaceable); a nonzero exit prints exactly one stderr line
and nothing on stdout, and no run emits a warning. A lexicon with one kind
renamed keeps every word, so `parse` must then exit 0 or refuse the
lexicon with 3, never blame the text with 2; `simulate` never parses text.
Each example of the third runs `parse` and `ground --session` on a text of
lexicon pieces followed by a relation chain of up to 600 links, each link
bound by one cue or two; a text can only parse or not, so every run exits
0 or 2. Each example of the fourth swaps one value of a room, episode,
instruction or manifest record, and the file's reader must either refuse
it or load values that write back as the JSON the file holds. The last
tests hold the session-dump and graph readers to the same rule, and also
require a loaded value to have the JSON type its writer writes there.
"""

from __future__ import annotations

import io
import json
import math
import reprlib
import struct
import warnings
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, note, settings, strategies as st

from refground.aggregation import AggregationSession, SessionFormatError
from refground.cli import main
from refground.config import PipelineConfig
from refground.episodes import DatasetError, _frame_dict, json_diff, load_episode, load_instructions, load_room
from refground.evaluation import load_manifest, simulate_counting_dataset, simulate_dialogue_dataset
from refground.graph import GraphStructureError, ObjectGraph, from_dict, to_dict
from refground.language import phrase_to_graph
from refground.lexicon import default_lexicon

from conftest import lexicon_pieces, save_config

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

# values swapped in for a JSON value, whatever its type
JSON_VALUES = (
    0, -1, 2.5, 1e308, -1e308, math.nan, math.inf, -math.inf,
    "x", "", None, True, [], {}, [0, 0], {"k": 1},
)
# values swapped in for a dataset record value: a reader's float(), int() or
# str() would take the last three (true is one of JSON_VALUES)
READER_VALUES = JSON_VALUES + ("1.0", "3", False)
# values swapped in for a config value; none gives a grid between a few cells
# and one too large to allocate, so no example fills memory
CONFIG_VALUES = ("nan", "inf", "-inf", "-1", "0", "1e-9", "2.5", "1e9", "1e308", "1e-300", "x", "", "True")
DEPTH_VALUES = (math.nan, math.inf, -math.inf, -1.0, 1e30)
# new names for a lexicon's self or relation kind, none of them taken
KIND_VALUES = ("", "my color", "is-ON", "Color", "is-", "shade", "is-under")
# values swapped in for a lexicon token list
TOKEN_VALUES = ("", ",", "red", "cup", "Red", "is-on", "on, on", "pick  up")
INSTRUCTION = "bring the red glass cup on the table near the lamp"

FILES = (
    "dialogue/manifest.jsonl",
    "dialogue/episode_00000/room.json",
    "dialogue/episode_00000/episode.jsonl",
    "dialogue/episode_00000/instructions.jsonl",
    "dialogue/episode_00000/frame_00001.depth",
    "counting/manifest.jsonl",
    "counting/episode_00000/episode.jsonl",
    "counting/episode_00000/frame_00002.depth",
    "session.json",
    "small.cfg",
)


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    config = PipelineConfig(n_waypoints=4)
    save_config(config, root / "small.cfg")
    (root / "lexicon.txt").write_bytes((CONFIGS / "lexicon.txt").read_bytes())
    config = replace(config, lexicon_path=str(root / "lexicon.txt"))
    save_config(config, root / "parse.cfg")
    simulate_dialogue_dataset(root / "dialogue", config, n_rooms=1)
    simulate_counting_dataset(root / "counting", config, rooms_per_count=1, counts=(2,))
    episode = str(root / "dialogue" / "episode_00000")
    args = ["aggregate", episode, "--out", str(root / "session.json"), "--config", str(root / "small.cfg")]
    assert run(args)[0] == 0
    return root


def run(args: list[str]) -> tuple[int, str, list[str]]:
    """(exit code, stdout, stderr lines plus one line per warning) of main(args)."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(args)
    return code, out.getvalue(), err.getvalue().splitlines() + [f"warning: {w.message}" for w in caught]


def json_nodes(value, path=()):
    yield path, value
    if isinstance(value, dict):
        for key in sorted(value):
            yield from json_nodes(value[key], path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from json_nodes(item, path + (i,))


def draw_node(record, data, keep=lambda node: True):
    """(path, node) of one node of record, drawn by field first: list indices
    in the path collapse, so each field is as likely as any other."""
    fields: dict[tuple, list] = {}
    for path, node in json_nodes(record):
        if keep(node):
            fields.setdefault(tuple("*" if type(k) is int else k for k in path), []).append((path, node))
    if not fields:
        return None
    return data.draw(st.sampled_from(fields[data.draw(st.sampled_from(sorted(fields, key=str)))]))


def damage_json(record, data):
    op = data.draw(st.sampled_from(("retype", "delete_key", "unknown_key")))
    if op == "retype":
        path, _ = draw_node(record, data)
        value = data.draw(st.sampled_from(JSON_VALUES))
        if not path:
            return value
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        return record
    drawn = draw_node(record, data, lambda node: isinstance(node, dict) and (node or op == "unknown_key"))
    if drawn:
        node = drawn[1]
        if op == "delete_key":
            del node[data.draw(st.sampled_from(sorted(node)))]
        else:
            node["zz_unknown"] = data.draw(st.sampled_from(JSON_VALUES))
    return record


def damage(name: str, raw: bytes, data) -> tuple[str, bytes]:
    """(operation, damaged bytes) of one damage to the file's bytes."""
    ops = ["truncate", "bad_magic", "bad_byte"]
    ops += {
        ".depth": ["depth_value"],
        ".cfg": ["config_value", "delete_line", "unknown_line"],
        ".txt": ["kind_name", "tokens", "delete_line", "unknown_line"],
    }.get(name[name.rindex("."):], ["json_value"])
    op = data.draw(st.sampled_from(ops))
    note(f"{name}: {op}")
    return op, apply_damage(op, raw, data)


def apply_damage(op: str, raw: bytes, data) -> bytes:
    if op == "truncate":
        return raw[: data.draw(st.integers(0, len(raw) - 1))]
    if op == "bad_magic":
        return data.draw(st.binary(min_size=8, max_size=8)) + raw[8:]
    if op == "bad_byte":
        pos = data.draw(st.integers(0, len(raw) - 1))
        return raw[:pos] + bytes([data.draw(st.integers(0, 255))]) + raw[pos + 1 :]
    if op == "depth_value":
        pos = 16 + 4 * data.draw(st.integers(0, (len(raw) - 16) // 4 - 1))
        return raw[:pos] + struct.pack("<f", data.draw(st.sampled_from(DEPTH_VALUES))) + raw[pos + 4 :]
    lines = raw.decode("utf-8").splitlines()
    index = data.draw(st.integers(0, len(lines) - 1))
    if op == "json_value":
        lines[index] = json.dumps(damage_json(json.loads(lines[index]), data))
    elif op == "config_value":
        key = lines[index].partition("=")[0].strip()
        lines[index] = f"{key} = {data.draw(st.sampled_from(CONFIG_VALUES))}"
    elif op == "kind_name":
        kinds = [i for i, line in enumerate(lines) if line.startswith(("self.", "rel."))]
        index = kinds[index % len(kinds)]
        key, _, tokens = lines[index].partition(" =")
        lines[index] = f"{key.partition('.')[0]}.{data.draw(st.sampled_from(KIND_VALUES))} ={tokens}"
    elif op == "tokens":
        key = lines[index].partition("=")[0].strip()
        lines[index] = f"{key} = {data.draw(st.sampled_from(TOKEN_VALUES))}"
    elif op == "delete_line":
        del lines[index]
    else:
        lines.insert(index, "zz_unknown = 1")
    return ("\n".join(lines) + "\n").encode("utf-8")


def assert_one_line_rule(code: int, out: str, err: list[str], allowed: tuple[int, ...]) -> None:
    assert code in allowed
    if code:
        assert out == "" and len(err) == 1
    else:
        assert err == []


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_one_damaged_file_exits_0_2_or_3_with_one_line(world, data):
    name = data.draw(st.sampled_from(FILES))
    path = world / name
    raw = path.read_bytes()
    path.write_bytes(damage(name, raw, data)[1])
    try:
        dataset = world / ("counting" if name.startswith("counting") else "dialogue")
        episode = str(dataset / "episode_00000")
        common = ["--config", str(world / "small.cfg")]
        noise = ["--noise", data.draw(st.sampled_from(("none", "all")))]
        commands = [
            ["eval", str(dataset)] + noise,
            ["aggregate", episode, "--out", str(world / "out.json")] + noise,
            ["ground", episode, "bring a cup"] + noise,
            ["ground", episode, "bring a cup", "--session", str(world / "session.json")],
        ]
        for args in commands:
            code, out, err = run(args + common)
            note(f"{args[0]} -> {code}: {err}")
            # a damaged config may leave the false-positive bank's room unplaceable
            unplaceable = name == "small.cfg" and err[:1] and err[0].startswith("generation error: ")
            assert_one_line_rule(code, out, err, (0, 1, 2, 3) if unplaceable else (0, 2, 3))
    finally:
        path.write_bytes(raw)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_damaged_config_or_lexicon_under_parse_and_simulate(world, data):
    name = data.draw(st.sampled_from(("parse.cfg", "lexicon.txt")))
    path = world / name
    raw = path.read_bytes()
    op, damaged = damage(name, raw, data)
    path.write_bytes(damaged)
    try:
        common = ["--config", str(world / "parse.cfg")]
        code, out, err = run(["parse", INSTRUCTION] + common)
        note(f"parse -> {code}: {err}")
        # renaming a kind keeps every word, so the text still parses unless
        # the lexicon itself is refused
        assert_one_line_rule(code, out, err, (0, 3) if op == "kind_name" else (0, 2, 3))
        if name == "lexicon.txt":
            return  # simulate reads no lexicon
        code, out, err = run(["simulate", "--out", str(world / "simulated"), "--rooms", "1"] + common)
        note(f"simulate -> {code}: {err}")
        # a damaged config may leave the room unplaceable
        unplaceable = err[:1] and err[0].startswith("generation error: ")
        assert_one_line_rule(code, out, err, (0, 1, 3) if unplaceable else (0, 3))
    finally:
        path.write_bytes(raw)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_text_under_parse_and_ground_exits_0_or_2_with_one_line(world, data):
    lexicon = default_lexicon()
    pieces = data.draw(st.lists(st.sampled_from(lexicon_pieces(lexicon)), max_size=12))
    cues = data.draw(st.lists(st.sampled_from(sorted(lexicon.relation_cues)), min_size=1, max_size=2))
    landmark = data.draw(st.sampled_from(sorted(lexicon.object_classes)))
    links = data.draw(st.one_of(st.integers(0, 40), st.integers(0, 600)))
    text = " ".join(pieces) + f" {' '.join(cues)} the {landmark}" * links
    note(f"{' '.join(pieces)!r} + {links} x {cues} {landmark!r}")
    episode = str(world / "dialogue" / "episode_00000")
    commands = [
        ["parse", text, "--config", str(world / "parse.cfg")],
        ["ground", episode, text, "--session", str(world / "session.json"), "--config", str(world / "small.cfg")],
    ]
    for args in commands:
        code, out, err = run(args)
        note(f"{args[0]} -> {code}: {err}")
        assert_one_line_rule(code, out, err, (0, 2))


# dataset file -> (reader of its directory, writer of the reader's result as records)
READERS = {
    "dialogue/episode_00000/room.json": (load_room, lambda room: [room.to_dict()]),
    "dialogue/episode_00000/episode.jsonl": (load_episode, lambda frames: [_frame_dict(f) for f in frames]),
    "dialogue/episode_00000/instructions.jsonl": (load_instructions, lambda cases: [c.to_dict() for c in cases]),
    "counting/manifest.jsonl": (load_manifest, list),
}


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_reader_refuses_a_record_or_loads_what_writes_back_as_read(world, name, data):
    path = world / name
    raw = path.read_bytes()
    records = [json.loads(line) for line in raw.decode("utf-8").splitlines()]
    index = data.draw(st.integers(0, len(records) - 1))
    (*parents, key), old = draw_node(records[index], data, lambda node: node is not records[index])
    value = data.draw(st.sampled_from(READER_VALUES))
    note(f"{name}: line {index + 1}: {[*parents, key]} = {value!r}, was {old!r}")
    node = records[index]
    for step in parents:
        node = node[step]
    node[key] = value
    path.write_text("".join(json.dumps(record) + "\n" for record in records))
    read, write = READERS[name]
    try:
        loaded = read(path.parent)
    except DatasetError:
        return
    finally:
        path.write_bytes(raw)
    if type(old) is float and type(value) is int:  # a JSON int stands for the float of its value
        node[key] = float(value)
    assert json.dumps(write(loaded), sort_keys=True) == json.dumps(records, sort_keys=True)


def swap_one_value(record, data) -> tuple[object, object, object]:
    """(record with one node, drawn by draw_node, swapped for one of
    READER_VALUES; the old node; the new value). record is left as it was."""
    record = json.loads(json.dumps(record))
    path, old = draw_node(record, data)
    value = data.draw(st.sampled_from(READER_VALUES))
    note(f"{list(path)} = {value!r}, was {reprlib.repr(old)}")
    if not path:
        return value, old, value
    node = record
    for step in path[:-1]:
        node = node[step]
    node[path[-1]] = value
    return record, old, value


def assert_refused_or_written_back_as_read(read, write, refusal, record, old, value) -> None:
    """read() raises `refusal`, or the swapped value has the JSON type the
    writer wrote in its place (a boolean is never a number, a JSON int
    stands for a float) and write() of what it loaded gives the JSON
    values of record."""
    try:
        loaded = read()
    except refusal:
        return
    assert type(value) is type(old) or type(old) is float and type(value) is int, "a value of another type loaded"
    assert json_diff(write(loaded), record) is None


def assert_session_reader_rule(world: Path, payload, old, value) -> None:
    path, again = world / "swapped_session.json", world / "swapped_again.json"
    path.write_text(json.dumps(payload))

    def dumped(session):
        session.dump(again)
        return json.loads(again.read_text())

    assert_refused_or_written_back_as_read(
        lambda: AggregationSession.load(path), dumped, SessionFormatError, payload, old, value
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_session_reader_refuses_a_dump_or_loads_what_dumps_back_as_read(world, data):
    payload, old, value = swap_one_value(json.loads((world / "session.json").read_text()), data)
    assert_session_reader_rule(world, payload, old, value)


@pytest.mark.parametrize("key", ["origin_x", "origin_y", "cell_size"])
@pytest.mark.parametrize("value", [False, True])
def test_the_session_reader_refuses_a_boolean_grid_number(world, key, value):
    # false read as an origin of 0, so the grid compared equal to the config's
    payload = json.loads((world / "session.json").read_text())
    old, payload["grid"][key] = payload["grid"][key], value
    assert_session_reader_rule(world, payload, old, value)


# two self attributes and two relations, so a swapped kind or root can change the edge order
GRAPHS = (
    to_dict(phrase_to_graph(INSTRUCTION, default_lexicon())),
    to_dict(ObjectGraph(
        "dining table",
        [("color", "white"), ("material", "wooden")],
        [("is-near", ObjectGraph("lamp")), ("is-on", ObjectGraph("rug", [("color", "red")]))],
    )),
)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_the_graph_reader_refuses_a_node_or_loads_what_writes_back_as_read(data):
    node, old, value = swap_one_value(data.draw(st.sampled_from(GRAPHS)), data)
    assert_refused_or_written_back_as_read(lambda: from_dict(node), to_dict, GraphStructureError, node, old, value)
