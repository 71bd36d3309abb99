import json

import pytest
from hypothesis import given, settings, strategies as st

from refground.graph import (
    AttributeCategory,
    AttributeKind,
    AttributePath,
    GraphParseError,
    GraphStructureError,
    ObjectGraph,
    attribute_paths,
    canonicalize,
    deserialize,
    graph_difference,
    graph_equal,
    serialize,
    to_dict,
)

CUP_RED = ObjectGraph.build("cup", [("color", "red")])
CUP_BLACK = ObjectGraph.build("cup", [("color", "black")])


def paths_set(g):
    return {tuple(p.path) for p in attribute_paths(canonicalize(g))}


# -- strategies ---------------------------------------------------------------

tokens = st.sampled_from(["red", "black", "white", "plastic", "wooden", "metal"])
kinds = st.sampled_from(["color", "material", "size"])
relations = st.sampled_from(["is-on", "is-near", "is-at"])
roots = st.sampled_from(["cup", "lamp", "table", "sofa", "book"])


def graph_strategy(depth: int = 2):
    def assemble(root, selfs, rels):
        uniq = {}
        for kind, child in rels:
            uniq.setdefault((kind, child.root), (kind, child))
        return ObjectGraph.build(root, dict(selfs).items(), uniq.values())

    if depth == 0:
        return st.builds(lambda r: ObjectGraph.build(r), roots)
    return st.builds(
        assemble,
        roots,
        st.lists(st.tuples(kinds, tokens), max_size=3),
        st.lists(st.tuples(relations, graph_strategy(depth - 1)), max_size=2),
    )


# -- construction and kinds ---------------------------------------------------


def test_attribute_kind_inference():
    assert AttributeKind.of("color").category is AttributeCategory.SELF
    assert AttributeKind.of("is-on").category is AttributeCategory.RELATIONAL


@pytest.mark.parametrize("name", ["", "Color", "has space", "IS-ON"])
def test_attribute_kind_rejects_bad_names(name):
    with pytest.raises(GraphStructureError):
        AttributeKind.of(name)


def test_kind_category_mismatch_rejected():
    with pytest.raises(GraphStructureError):
        AttributeKind(AttributeCategory.SELF, "is-on")


def test_two_values_for_one_kind_rejected():
    with pytest.raises(GraphStructureError):
        ObjectGraph.build("cup", [("color", "red"), ("color", "black")])


def test_identical_duplicate_self_attrs_allowed_and_deduped():
    g = ObjectGraph.build("cup", [("color", "red"), ("color", "red")])
    assert canonicalize(g).self_attrs == ((AttributeKind.of("color"), "red"),)


def test_relational_kind_in_self_position_rejected():
    with pytest.raises(GraphStructureError):
        ObjectGraph("cup", ((AttributeKind.of("is-on"), "table"),), ())


def test_conflicting_same_relation_children_rejected():
    white = ObjectGraph.build("table", [("color", "white")])
    black = ObjectGraph.build("table", [("color", "black")])
    with pytest.raises(GraphStructureError):
        ObjectGraph.build("lamp", [], [("is-near", white), ("is-near", black)])


# -- canonicalize -------------------------------------------------------------


def test_canonicalize_sorts_self_attrs():
    g = ObjectGraph.build("cup", [("material", "plastic"), ("color", "red")])
    assert [(k.name, v) for k, v in canonicalize(g).self_attrs] == [
        ("color", "red"),
        ("material", "plastic"),
    ]


def test_canonicalize_identity_on_empty():
    g = ObjectGraph.build("cup")
    assert canonicalize(g) == ObjectGraph.build("cup")


def test_canonicalize_dedups_identical_relational_edges():
    table = ObjectGraph.build("table", [("color", "white")])
    g = ObjectGraph.build("lamp", [], [("is-near", table), ("is-near", table)])
    assert len(canonicalize(g).rel_attrs) == 1


def test_canonicalize_lowercases_tokens():
    g = ObjectGraph.build("Cup", [("color", "RED")])
    c = canonicalize(g)
    assert c.root == "cup" and c.self_attrs[0][1] == "red"


@settings(max_examples=60, deadline=None)
@given(graph_strategy())
def test_canonicalize_idempotent(g):
    assert canonicalize(canonicalize(g)) == canonicalize(g)


# -- equality -----------------------------------------------------------------


def test_graph_equal_basic():
    assert graph_equal(CUP_RED, ObjectGraph.build("cup", [("color", "red")]))
    assert not graph_equal(CUP_RED, CUP_BLACK)


def test_graph_equal_is_order_insensitive():
    table = ObjectGraph.build("table")
    a = ObjectGraph.build("cup", [("color", "red")], [("is-on", table)])
    b = ObjectGraph.build("cup", [("color", "red")], [("is-on", table)])
    assert graph_equal(a, b)
    # oracle: sorted attribute-path sets agree
    assert sorted(paths_set(a)) == sorted(paths_set(b))


@settings(max_examples=60, deadline=None)
@given(graph_strategy())
def test_graph_equal_matches_path_sets_for_permutations(g):
    flipped = ObjectGraph(g.root, tuple(reversed(g.self_attrs)), tuple(reversed(g.rel_attrs)))
    assert graph_equal(g, flipped)
    assert paths_set(g) == paths_set(flipped)


# -- attribute paths ----------------------------------------------------------


def test_paths_empty_graph():
    assert attribute_paths(canonicalize(ObjectGraph.build("cup"))) == frozenset()


def test_paths_single_self_attr():
    g = canonicalize(ObjectGraph.build("cup", [("material", "plastic")]))
    assert paths_set(g) == {(("material", "plastic"),)}


def test_paths_nested_relational():
    g = canonicalize(
        ObjectGraph.build(
            "cup", [], [("is-on", ObjectGraph.build("table", [("color", "white")]))]
        )
    )
    assert paths_set(g) == {
        (("is-on", "table"),),
        (("is-on", "table"), ("color", "white")),
    }


@settings(max_examples=60, deadline=None)
@given(graph_strategy())
def test_path_count_equals_edge_count(g):
    c = canonicalize(g)
    assert len(attribute_paths(c)) == c.edge_count()


def test_attribute_path_nonempty():
    with pytest.raises(GraphStructureError):
        AttributePath(())


# -- difference ---------------------------------------------------------------


def test_difference_subset_is_empty():
    g = ObjectGraph.build("cup", [("material", "plastic")])
    h = ObjectGraph.build("cup", [("material", "plastic"), ("color", "red")])
    assert graph_difference(g, h) == frozenset()


def test_difference_subtraction_by_hand():
    g = ObjectGraph.build("cup", [("material", "plastic")])
    h = ObjectGraph.build("cup", [("color", "red")])
    assert {tuple(p.path) for p in graph_difference(g, h)} == {(("material", "plastic"),)}


def test_difference_empty_minuend():
    assert graph_difference(ObjectGraph.build("cup"), CUP_RED) == frozenset()


def test_difference_root_mismatch_raises():
    with pytest.raises(GraphStructureError):
        graph_difference(CUP_RED, ObjectGraph.build("lamp"))


@settings(max_examples=60, deadline=None)
@given(graph_strategy())
def test_difference_with_self_is_empty(g):
    assert graph_difference(g, g) == frozenset()


@settings(max_examples=60, deadline=None)
@given(graph_strategy(), graph_strategy())
def test_empty_differences_iff_equal(a, b):
    a2 = ObjectGraph(canonicalize(b).root, canonicalize(a).self_attrs, canonicalize(a).rel_attrs)
    both_empty = not graph_difference(a2, b) and not graph_difference(b, a2)
    assert both_empty == graph_equal(a2, b)


# -- serialization ------------------------------------------------------------


def test_serialize_golden_form():
    g = canonicalize(
        ObjectGraph.build("cup", [("color", "red")], [("is-on", ObjectGraph.build("table"))])
    )
    assert serialize(g) == (
        '{"root": "cup", "self": [["color", "red"]],'
        ' "rel": [["is-on", {"root": "table", "self": [], "rel": []}]]}'
    )


def test_round_trip_on_corpus():
    corpus = [
        ObjectGraph.build("cup"),
        CUP_RED,
        ObjectGraph.build(
            "lamp",
            [("color", "white")],
            [("is-near", ObjectGraph.build("table", [("color", "white")]))],
        ),
    ]
    for g in corpus:
        c = canonicalize(g)
        assert deserialize(serialize(c)) == c


@settings(max_examples=60, deadline=None)
@given(graph_strategy())
def test_round_trip_random(g):
    c = canonicalize(g)
    assert graph_equal(deserialize(serialize(c)), c)


def test_deserialize_empty_string_fails():
    with pytest.raises(GraphParseError):
        deserialize("")


def test_deserialize_reports_offset():
    text = '{"root": "cup", "self": [], "rel": ['
    with pytest.raises(GraphParseError) as err:
        deserialize(text + "oops")
    assert err.value.offset > 0


def test_deserialize_rejects_wrong_shapes():
    with pytest.raises(GraphParseError):
        deserialize(json.dumps({"root": 3}))
    with pytest.raises(GraphParseError):
        deserialize(json.dumps({"root": "cup", "self": [["color"]], "rel": []}))


def test_to_dict_field_order():
    d = to_dict(canonicalize(CUP_RED))
    assert list(d.keys()) == ["root", "self", "rel"]
