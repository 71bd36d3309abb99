"""Object graphs: canonical attribute trees describing a referred object.

An object graph is a tree whose root is an object class name. Edges carry
either a self attribute (an intrinsic property such as color or material,
ending in a value token) or a relational attribute (a spatial relation such
as "is-on" whose child is another object graph). Graphs are immutable value
types; all pipeline stages share them freely across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

MAX_TREE_DEPTH = 32


class GraphStructureError(ValueError):
    """A graph violates the tree or attribute invariants."""


class GraphParseError(ValueError):
    """Graph text could not be parsed. Carries the byte offset of the fault."""

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class AttributeCategory(Enum):
    SELF = "self"
    RELATIONAL = "relational"


@dataclass(frozen=True)
class AttributeKind:
    """A named attribute edge type. Relational kind names start with "is-"."""

    category: AttributeCategory
    name: str

    def __post_init__(self):
        if not self.name or self.name != self.name.lower():
            raise GraphStructureError(f"attribute kind must be lowercase, non-empty: {self.name!r}")
        if any(ch.isspace() for ch in self.name):
            raise GraphStructureError(f"attribute kind must not contain whitespace: {self.name!r}")
        relational = self.name.startswith("is-")
        if relational != (self.category is AttributeCategory.RELATIONAL):
            raise GraphStructureError(
                f"kind {self.name!r} inconsistent with category {self.category.value}"
            )

    @classmethod
    def of(cls, name: str) -> "AttributeKind":
        """Build a kind, inferring the category from the "is-" prefix."""
        category = AttributeCategory.RELATIONAL if name.startswith("is-") else AttributeCategory.SELF
        return cls(category, name)


@dataclass(frozen=True)
class AttributePath:
    """A root-to-node edge sequence, e.g. (("is-on", "table"), ("color", "white"))."""

    path: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if not self.path:
            raise GraphStructureError("attribute path must be non-empty")

    def __iter__(self):
        return iter(self.path)

    def __len__(self):
        return len(self.path)


@dataclass(frozen=True)
class ObjectGraph:
    """Tree with the referred object class at the root.

    self_attrs holds (kind, value-token) pairs, rel_attrs holds
    (kind, child graph) pairs. A node may carry several self attribute
    kinds but only one value per kind.
    """

    root: str
    self_attrs: tuple[tuple[AttributeKind, str], ...] = ()
    rel_attrs: tuple[tuple[AttributeKind, "ObjectGraph"], ...] = ()

    def __post_init__(self):
        if not self.root or not self.root.strip():
            raise GraphStructureError("graph root must be a non-empty class name")
        object.__setattr__(self, "self_attrs", tuple(self.self_attrs))
        object.__setattr__(self, "rel_attrs", tuple(self.rel_attrs))
        seen: dict[str, str] = {}
        for kind, value in self.self_attrs:
            if kind.category is not AttributeCategory.SELF:
                raise GraphStructureError(f"self edge with relational kind {kind.name!r}")
            if not value:
                raise GraphStructureError(f"empty value for self attribute {kind.name!r}")
            low = value.lower()
            if seen.setdefault(kind.name, low) != low:
                raise GraphStructureError(
                    f"node {self.root!r} carries two values for {kind.name!r}"
                )
        children: dict[tuple[str, str], ObjectGraph] = {}
        for kind, child in self.rel_attrs:
            if kind.category is not AttributeCategory.RELATIONAL:
                raise GraphStructureError(f"relational edge with self kind {kind.name!r}")
            if not isinstance(child, ObjectGraph):
                raise GraphStructureError(f"relational edge {kind.name!r} has a non-graph child")
            # one landmark per (relation, class): two different subtrees under
            # the same edge name and root would be indistinguishable as paths
            key = (kind.name, child.root.lower())
            other = children.setdefault(key, child)
            if other is not child and canonicalize(other) != canonicalize(child):
                raise GraphStructureError(
                    f"node {self.root!r} has conflicting {key[0]!r} edges to {key[1]!r}"
                )

    @classmethod
    def build(
        cls,
        root: str,
        self_attrs: Iterable[tuple[str, str]] = (),
        rel_attrs: Iterable[tuple[str, "ObjectGraph"]] = (),
    ) -> "ObjectGraph":
        """Convenience constructor taking plain-string kind names."""
        return cls(
            root,
            tuple((AttributeKind.of(k), v) for k, v in self_attrs),
            tuple((AttributeKind.of(k), g) for k, g in rel_attrs),
        )

    def edge_count(self) -> int:
        return len(self.self_attrs) + sum(1 + c.edge_count() for _, c in self.rel_attrs)


def _sort_key(g: ObjectGraph):
    return (
        g.root,
        tuple((k.name, v) for k, v in g.self_attrs),
        tuple((k.name, _sort_key(c)) for k, c in g.rel_attrs),
    )


def canonicalize(g: ObjectGraph, _depth: int = 0) -> ObjectGraph:
    """Return the canonical form: lowercased tokens, sorted edges, duplicates removed.

    Idempotent. Raises GraphStructureError on malformed trees (runaway depth).
    """
    if _depth > MAX_TREE_DEPTH:
        raise GraphStructureError("graph exceeds maximum depth; not a finite tree")
    selfs = sorted({(k, v.lower()) for k, v in g.self_attrs}, key=lambda e: (e[0].name, e[1]))
    children = [(k, canonicalize(c, _depth + 1)) for k, c in g.rel_attrs]
    uniq: dict[tuple, tuple[AttributeKind, ObjectGraph]] = {}
    for k, c in children:
        uniq.setdefault((k.name, _sort_key(c)), (k, c))
    rels = [uniq[key] for key in sorted(uniq)]
    return ObjectGraph(g.root.lower().strip(), tuple(selfs), tuple(rels))


def graph_equal(a: ObjectGraph, b: ObjectGraph) -> bool:
    """True iff the canonical forms are structurally identical."""
    return canonicalize(a) == canonicalize(b)


def attribute_paths(g: ObjectGraph) -> frozenset[AttributePath]:
    """Every root-to-node edge sequence of a canonical graph, one per edge."""
    out: set[AttributePath] = set()

    def walk(node: ObjectGraph, prefix: tuple[tuple[str, str], ...]):
        for kind, value in node.self_attrs:
            out.add(AttributePath(prefix + ((kind.name, value),)))
        for kind, child in node.rel_attrs:
            step = prefix + ((kind.name, child.root),)
            out.add(AttributePath(step))
            walk(child, step)

    walk(g, ())
    return frozenset(out)


def graph_difference(g: ObjectGraph, h: ObjectGraph) -> frozenset[AttributePath]:
    """Attribute paths requested by g that h does not satisfy.

    Directed difference attribute_paths(g) minus attribute_paths(h); an empty
    result means h satisfies every attribute of g. Roots must match.
    """
    cg, ch = canonicalize(g), canonicalize(h)
    if cg.root != ch.root:
        raise GraphStructureError(f"graph_difference root mismatch: {cg.root!r} vs {ch.root!r}")
    return frozenset(attribute_paths(cg) - attribute_paths(ch))


def to_dict(g: ObjectGraph) -> dict:
    """Plain-dict form with fixed field order: root, self, rel."""
    return {
        "root": g.root,
        "self": [[k.name, v] for k, v in g.self_attrs],
        "rel": [[k.name, to_dict(c)] for k, c in g.rel_attrs],
    }


def from_dict(d: object, offset: int = 0) -> ObjectGraph:
    if not isinstance(d, dict):
        raise GraphParseError("graph node must be an object", offset)
    root = d.get("root")
    if not isinstance(root, str):
        raise GraphParseError("missing or non-string 'root'", offset)
    selfs = d.get("self", [])
    rels = d.get("rel", [])
    if not isinstance(selfs, list) or not isinstance(rels, list):
        raise GraphParseError("'self' and 'rel' must be arrays", offset)
    self_attrs = []
    for entry in selfs:
        if not (isinstance(entry, list) and len(entry) == 2 and all(isinstance(x, str) for x in entry)):
            raise GraphParseError(f"bad self attribute entry: {entry!r}", offset)
        self_attrs.append((entry[0], entry[1]))
    rel_attrs = []
    for entry in rels:
        if not (isinstance(entry, list) and len(entry) == 2 and isinstance(entry[0], str)):
            raise GraphParseError(f"bad relational attribute entry: {entry!r}", offset)
        rel_attrs.append((entry[0], from_dict(entry[1], offset)))
    try:
        return ObjectGraph.build(root, self_attrs, rel_attrs)
    except GraphStructureError as exc:
        raise GraphParseError(str(exc), offset) from exc


def serialize(g: ObjectGraph) -> str:
    """One-line JSON text with fixed field order (bit-exact for golden files)."""
    return json.dumps(to_dict(g))


def deserialize(text: str) -> ObjectGraph:
    """Inverse of serialize. Raises GraphParseError with a byte offset."""
    if not text.strip():
        raise GraphParseError("empty graph text", 0)
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphParseError(f"invalid JSON: {exc.msg}", exc.pos) from exc
    return from_dict(payload)
