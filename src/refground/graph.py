"""Object graphs: canonical attribute trees describing a referred object.

An object graph is a tree whose root is an object class name. Edges carry
either a self attribute (an intrinsic property such as color or material,
ending in a value token) or a relational attribute (a spatial relation such
as "is-on" whose child is another object graph). Attribute kinds are plain
strings, and a kind names a relation exactly when it starts with "is-".

Construction puts every graph in canonical form: the root and value tokens
are lowercased, the edges sorted and duplicates dropped, so graphs describing
the same tree compare and hash equal whatever order their edges came in. An
attribute path is a root-to-node tuple of (kind, token) steps. Graphs are
immutable value types; all pipeline stages share them freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

MAX_TREE_DEPTH = 32


class GraphStructureError(ValueError):
    """A graph violates the tree or attribute invariants."""


class GraphParseError(ValueError):
    """A plain-dict graph could not be parsed."""


def check_kind(kind: str, relational: bool) -> None:
    """Refuse a kind that is empty, not lowercase, holds whitespace, or
    starts with "is-" unless it names a relation."""
    if not kind or kind != kind.lower():
        raise GraphStructureError(f"attribute kind must be lowercase, non-empty: {kind!r}")
    if any(ch.isspace() for ch in kind):
        raise GraphStructureError(f"attribute kind must not contain whitespace: {kind!r}")
    if kind.startswith("is-") != relational:
        edge = "relational" if relational else "self"
        raise GraphStructureError(f"kind {kind!r} on a {edge} edge; only relations start with 'is-'")


@dataclass(frozen=True, order=True)
class ObjectGraph:
    """Tree with the referred object class at the root.

    self_attrs holds (kind, value-token) pairs, rel_attrs holds
    (kind, child graph) pairs, each sorted and free of duplicates. A node
    may carry several self attribute kinds but only one value per kind, and
    one landmark per (relation, class). depth counts the relational edges
    on the longest path down from this node, at most MAX_TREE_DEPTH.
    """

    root: str
    self_attrs: tuple[tuple[str, str], ...] = ()
    rel_attrs: tuple[tuple[str, "ObjectGraph"], ...] = ()
    depth: int = field(default=0, init=False, repr=False, compare=False)

    def __post_init__(self):
        root = self.root.lower().strip()
        if not root:
            raise GraphStructureError("graph root must be a non-empty class name")
        for kind, value in self.self_attrs:
            check_kind(kind, relational=False)
            if not value:
                raise GraphStructureError(f"empty value for self attribute {kind!r}")
        selfs = sorted({(kind, value.lower()) for kind, value in self.self_attrs})
        for (kind, _), (other, _) in zip(selfs, selfs[1:]):
            if kind == other:
                raise GraphStructureError(f"node {root!r} carries two values for {kind!r}")
        for kind, child in self.rel_attrs:
            check_kind(kind, relational=True)
            if not isinstance(child, ObjectGraph):
                raise GraphStructureError(f"relational edge {kind!r} has a non-graph child")
        rels = sorted(set(self.rel_attrs))
        # one landmark per (relation, class): two different subtrees under
        # the same edge name and root would be indistinguishable as paths
        for (kind, child), (other, twin) in zip(rels, rels[1:]):
            if kind == other and child.root == twin.root:
                raise GraphStructureError(
                    f"node {root!r} has conflicting {kind!r} edges to {child.root!r}"
                )
        depth = max((1 + child.depth for _, child in rels), default=0)
        if depth > MAX_TREE_DEPTH:
            raise GraphStructureError(f"graph nests more than {MAX_TREE_DEPTH} relations")
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "self_attrs", tuple(selfs))
        object.__setattr__(self, "rel_attrs", tuple(rels))
        object.__setattr__(self, "depth", depth)

    @classmethod
    def build(
        cls,
        root: str,
        self_attrs: Iterable[tuple[str, str]] = (),
        rel_attrs: Iterable[tuple[str, "ObjectGraph"]] = (),
    ) -> "ObjectGraph":
        """Constructor taking any iterables of edges."""
        return cls(root, tuple(self_attrs), tuple(rel_attrs))


def attribute_paths(g: ObjectGraph) -> frozenset[tuple[tuple[str, str], ...]]:
    """Every root-to-node edge sequence, one per edge, e.g.
    (("is-on", "table"), ("color", "white"))."""
    out: set[tuple[tuple[str, str], ...]] = set()

    def walk(node: ObjectGraph, prefix: tuple[tuple[str, str], ...]):
        for kind, value in node.self_attrs:
            out.add(prefix + ((kind, value),))
        for kind, child in node.rel_attrs:
            step = prefix + ((kind, child.root),)
            out.add(step)
            walk(child, step)

    walk(g, ())
    return frozenset(out)


def graph_difference(g: ObjectGraph, h: ObjectGraph) -> frozenset[tuple[tuple[str, str], ...]]:
    """Attribute paths requested by g that h does not satisfy.

    Directed difference attribute_paths(g) minus attribute_paths(h); an empty
    result means h satisfies every attribute of g. Roots must match.
    """
    if g.root != h.root:
        raise GraphStructureError(f"graph_difference root mismatch: {g.root!r} vs {h.root!r}")
    return attribute_paths(g) - attribute_paths(h)


def to_dict(g: ObjectGraph) -> dict:
    """Plain-dict form with fixed field order: root, self, rel."""
    return {
        "root": g.root,
        "self": [[k, v] for k, v in g.self_attrs],
        "rel": [[k, to_dict(c)] for k, c in g.rel_attrs],
    }


def from_dict(d: object) -> ObjectGraph:
    if not isinstance(d, dict):
        raise GraphParseError("graph node must be an object")
    root = d.get("root")
    if not isinstance(root, str):
        raise GraphParseError("missing or non-string 'root'")
    selfs = d.get("self", [])
    rels = d.get("rel", [])
    if not isinstance(selfs, list) or not isinstance(rels, list):
        raise GraphParseError("'self' and 'rel' must be arrays")
    self_attrs = []
    for entry in selfs:
        if not (isinstance(entry, list) and len(entry) == 2 and all(isinstance(x, str) for x in entry)):
            raise GraphParseError(f"bad self attribute entry: {entry!r}")
        self_attrs.append((entry[0], entry[1]))
    rel_attrs = []
    for entry in rels:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise GraphParseError(f"bad relational attribute entry: {entry!r}")
        rel_attrs.append((entry[0], from_dict(entry[1])))
    try:
        return ObjectGraph.build(root, self_attrs, rel_attrs)
    except GraphStructureError as exc:
        raise GraphParseError(str(exc)) from exc


def serialize(g: ObjectGraph) -> str:
    """One-line JSON text with fixed field order (bit-exact for golden files)."""
    return json.dumps(to_dict(g))
