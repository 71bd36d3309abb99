import json

import pytest
from hypothesis import given, settings, strategies as st

from refground.graph import (
    MAX_TREE_DEPTH,
    GraphStructureError,
    ObjectGraph,
    attribute_paths,
    from_dict,
    graph_difference,
    serialize,
    to_dict,
)

CUP_RED = ObjectGraph("cup", [("color", "red")])
CUP_BLACK = ObjectGraph("cup", [("color", "black")])


def paths_set(g):
    return set(attribute_paths(g))


def edge_count(g):
    return len(g.self_attrs) + sum(1 + edge_count(c) for _, c in g.rel_attrs)


def round_trip(g):
    return from_dict(json.loads(serialize(g)))


def nested(relations: int) -> dict:
    """Plain-dict form of a chain of `relations` nested is-on edges."""
    d = {"root": "box", "self": [], "rel": []}
    for _ in range(relations):
        d = {"root": "box", "self": [], "rel": [["is-on", d]]}
    return d


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
        return ObjectGraph(root, dict(selfs).items(), uniq.values())

    if depth == 0:
        return st.builds(lambda r: ObjectGraph(r), roots)
    return st.builds(
        assemble,
        roots,
        st.lists(st.tuples(kinds, tokens), max_size=3),
        st.lists(st.tuples(relations, graph_strategy(depth - 1)), max_size=2),
    )


# -- construction and kinds ---------------------------------------------------


@pytest.mark.parametrize("name", ["", "Color", "has space", "IS-ON"])
def test_attribute_kind_rejects_bad_names(name):
    with pytest.raises(GraphStructureError):
        ObjectGraph("cup", [(name, "red")])
    with pytest.raises(GraphStructureError):
        ObjectGraph("cup", [], [(name, ObjectGraph("table"))])


def test_kind_category_mismatch_rejected():
    with pytest.raises(GraphStructureError):
        ObjectGraph("cup", [("is-on", "table")])
    with pytest.raises(GraphStructureError):
        ObjectGraph("cup", [], [("color", ObjectGraph("table"))])


def test_two_values_for_one_kind_rejected():
    with pytest.raises(GraphStructureError):
        ObjectGraph("cup", [("color", "red"), ("color", "black")])


def test_identical_duplicate_self_attrs_allowed_and_deduped():
    g = ObjectGraph("cup", [("color", "red"), ("color", "red")])
    assert g.self_attrs == (("color", "red"),)


def test_relational_kind_in_self_position_rejected():
    with pytest.raises(GraphStructureError):
        ObjectGraph("cup", (("is-on", "table"),), ())


def test_conflicting_same_relation_children_rejected():
    white = ObjectGraph("table", [("color", "white")])
    black = ObjectGraph("table", [("color", "black")])
    with pytest.raises(GraphStructureError):
        ObjectGraph("lamp", [], [("is-near", white), ("is-near", black)])


def test_nesting_beyond_max_depth_rejected():
    deepest = from_dict(nested(MAX_TREE_DEPTH))
    assert deepest.depth == MAX_TREE_DEPTH
    with pytest.raises(GraphStructureError):
        ObjectGraph("box", [], [("is-on", deepest)])
    with pytest.raises(GraphStructureError, match=f"^graph nests more than {MAX_TREE_DEPTH} relations$"):
        from_dict(nested(MAX_TREE_DEPTH + 1))


# -- canonical construction ---------------------------------------------------


def test_canonicalize_sorts_self_attrs():
    g = ObjectGraph("cup", [("material", "plastic"), ("color", "red")])
    assert g.self_attrs == (("color", "red"), ("material", "plastic"))


def test_canonicalize_identity_on_empty():
    g = ObjectGraph("cup")
    assert g == ObjectGraph("cup") and g.self_attrs == () and g.rel_attrs == ()


def test_canonicalize_dedups_identical_relational_edges():
    table = ObjectGraph("table", [("color", "white")])
    g = ObjectGraph("lamp", [], [("is-near", table), ("is-near", table)])
    assert len(g.rel_attrs) == 1


def test_canonicalize_lowercases_tokens():
    g = ObjectGraph("Cup", [("color", "RED")])
    assert g.root == "cup" and g.self_attrs[0][1] == "red"


def test_constructor_reads_each_edge_generator_once():
    table = ObjectGraph("table", [("color", "white")])
    selfs = [("material", "glass"), ("color", "red")]
    rels = [("is-on", table)]
    g = ObjectGraph("cup", (edge for edge in selfs), (edge for edge in rels))
    assert g == ObjectGraph("cup", selfs, rels)
    assert g.self_attrs == (("color", "red"), ("material", "glass")) and g.rel_attrs == (("is-on", table),)


@settings(max_examples=60, deadline=None)
@given(graph_strategy())
def test_canonicalize_idempotent(g):
    assert ObjectGraph(g.root, g.self_attrs, g.rel_attrs) == g


# -- equality -----------------------------------------------------------------


def test_graph_equal_basic():
    assert CUP_RED == ObjectGraph("cup", [("color", "red")])
    assert CUP_RED != CUP_BLACK


def test_graph_equal_is_order_insensitive():
    table = ObjectGraph("Table")
    a = ObjectGraph("cup", [("color", "red"), ("material", "metal")], [("is-on", table)])
    b = ObjectGraph(
        "CUP", [("material", "Metal"), ("color", "red"), ("color", "RED")], [("is-on", table)] * 2
    )
    assert a == b and hash(a) == hash(b)
    # oracle: sorted attribute-path sets agree
    assert sorted(paths_set(a)) == sorted(paths_set(b))


@settings(max_examples=60, deadline=None)
@given(graph_strategy())
def test_graph_equal_matches_path_sets_for_permutations(g):
    flipped = ObjectGraph(g.root, tuple(reversed(g.self_attrs)), tuple(reversed(g.rel_attrs)))
    assert g == flipped and hash(g) == hash(flipped)
    assert paths_set(g) == paths_set(flipped)


# -- attribute paths ----------------------------------------------------------


def test_paths_empty_graph():
    assert attribute_paths(ObjectGraph("cup")) == frozenset()


def test_paths_single_self_attr():
    g = ObjectGraph("cup", [("material", "plastic")])
    assert paths_set(g) == {(("material", "plastic"),)}


def test_paths_nested_relational():
    g = ObjectGraph(
        "cup", [], [("is-on", ObjectGraph("table", [("color", "white")]))]
    )
    assert paths_set(g) == {
        (("is-on", "table"),),
        (("is-on", "table"), ("color", "white")),
    }


@settings(max_examples=60, deadline=None)
@given(graph_strategy())
def test_path_count_equals_edge_count(g):
    assert len(attribute_paths(g)) == edge_count(g)


# -- difference ---------------------------------------------------------------


def test_difference_subset_is_empty():
    g = ObjectGraph("cup", [("material", "plastic")])
    h = ObjectGraph("cup", [("material", "plastic"), ("color", "red")])
    assert graph_difference(g, h) == frozenset()


def test_difference_subtraction_by_hand():
    g = ObjectGraph("cup", [("material", "plastic")])
    h = ObjectGraph("cup", [("color", "red")])
    assert graph_difference(g, h) == {(("material", "plastic"),)}


def test_difference_empty_minuend():
    assert graph_difference(ObjectGraph("cup"), CUP_RED) == frozenset()


def test_difference_root_mismatch_raises():
    with pytest.raises(GraphStructureError):
        graph_difference(CUP_RED, ObjectGraph("lamp"))


@settings(max_examples=60, deadline=None)
@given(graph_strategy())
def test_difference_with_self_is_empty(g):
    assert graph_difference(g, g) == frozenset()


@settings(max_examples=60, deadline=None)
@given(graph_strategy(), graph_strategy())
def test_empty_differences_iff_equal(a, b):
    a2 = ObjectGraph(b.root, a.self_attrs, a.rel_attrs)
    both_empty = not graph_difference(a2, b) and not graph_difference(b, a2)
    assert both_empty == (a2 == b)


# -- serialization ------------------------------------------------------------


def test_serialize_golden_form():
    g = ObjectGraph("cup", [("color", "red")], [("is-on", ObjectGraph("table"))])
    assert serialize(g) == (
        '{"root": "cup", "self": [["color", "red"]],'
        ' "rel": [["is-on", {"root": "table", "self": [], "rel": []}]]}'
    )


def test_round_trip_on_corpus():
    corpus = [
        ObjectGraph("cup"),
        CUP_RED,
        ObjectGraph(
            "lamp",
            [("color", "white")],
            [("is-near", ObjectGraph("table", [("color", "white")]))],
        ),
    ]
    for g in corpus:
        assert round_trip(g) == g


@settings(max_examples=60, deadline=None)
@given(graph_strategy())
def test_round_trip_random(g):
    assert round_trip(g) == g


def test_from_dict_rejects_wrong_shapes():
    with pytest.raises(GraphStructureError, match="^missing or non-string 'root'$"):
        from_dict({"root": 3})
    with pytest.raises(GraphStructureError, match=r"^bad self attribute entry: \['color'\]$"):
        from_dict({"root": "cup", "self": [["color"]], "rel": []})


def test_to_dict_field_order():
    d = to_dict(CUP_RED)
    assert list(d.keys()) == ["root", "self", "rel"]
