"""Text to object graph and back.

Two-stage forward path: a deterministic lexicon tagger labels each token
with a BIO tag over the symbol set {r(g), av_R, color, material, is-on,
is-near, is-at, ...}, then a grammar-driven top-down parser assembles the
labeled spans into an object graph. The inverse path (realize) renders a
canonical graph as an English noun phrase via pre-order traversal.
Parsing always uses the lexicon tagger.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .graph import GraphStructureError, ObjectGraph
from .lexicon import Lexicon, default_lexicon

ROOT_SYMBOL = "r(g)"
LANDMARK_SYMBOL = "av_R"

# Edge surface forms used when rendering a graph as English. Self attribute
# kinds render as the bare value token (empty edge surface).
RELATION_SURFACE = {"is-on": "on top of", "is-near": "near", "is-at": "at"}

_TOKEN_RE = re.compile(r"[A-Za-z0-9'\-]+|[^\sA-Za-z0-9'\-]")


class PhraseError(ValueError):
    """Base error for the text-to-graph pipeline."""


class NoReferredObjectError(PhraseError):
    """No object-class token found in the input."""


class TagParseError(PhraseError):
    """Label sequence cannot be assembled into a graph."""


class DanglingRelationError(TagParseError):
    """A relational cue has no landmark noun to attach to."""


@dataclass(frozen=True)
class Token:
    text: str
    index: int

    def __post_init__(self):
        if not self.text:
            raise PhraseError("empty token")


@dataclass(frozen=True)
class TagLabel:
    """BIO label: prefix B/I/O plus a symbol from the label set (absent for O)."""

    prefix: str
    symbol: str | None = None

    def __post_init__(self):
        if self.prefix not in ("B", "I", "O"):
            raise PhraseError(f"bad BIO prefix {self.prefix!r}")
        if (self.prefix == "O") != (self.symbol is None):
            raise PhraseError("O labels carry no symbol; B/I labels require one")

    def __str__(self) -> str:
        return self.prefix if self.prefix == "O" else f"{self.prefix}-{self.symbol}"


def tokenize(text: str) -> list[Token]:
    """Whitespace tokenization with punctuation split off as separate tokens."""
    return [Token(m.group(0), i) for i, m in enumerate(_TOKEN_RE.finditer(text))]


def bio_valid(labels: Sequence[TagLabel]) -> bool:
    """An I-label must continue a B- or I- span of the same symbol."""
    prev: TagLabel | None = None
    for lab in labels:
        if lab.prefix == "I":
            if prev is None or prev.prefix == "O" or prev.symbol != lab.symbol:
                return False
        prev = lab
    return True


def tag(tokens: Sequence[Token], lexicon: Lexicon | None = None) -> list[TagLabel]:
    """Label each token with a BIO tag.

    The first class noun not governed by a relation cue becomes the referred
    object r(g); nouns following a relation cue become landmarks av_R; value
    tokens are labeled with their attribute kind. Everything else is O.
    """
    if not tokens:
        raise PhraseError("cannot tag an empty token sequence")
    lexicon = lexicon or default_lexicon()
    index = lexicon.phrase_index
    lowered = [t.text.lower() for t in tokens]
    n = len(tokens)
    labels: list[TagLabel] = [TagLabel("O")] * n

    spans: list[tuple[int, int, str, str]] = []  # (start, end, role, symbol)
    i = 0
    while i < n:
        for words, role, symbol in index.get(lowered[i], ()):
            k = len(words)
            if i + k <= n and tuple(lowered[i : i + k]) == words:
                spans.append((i, i + k, role, symbol))
                i += k
                break
        else:
            i += 1  # stopword or unknown token stays O

    pending_relation = False
    root_found = False
    for start, end, role, symbol in spans:
        if role == "cue":
            labels[start] = TagLabel("B", symbol)
            for j in range(start + 1, end):
                labels[j] = TagLabel("I", symbol)
            pending_relation = True
        elif role == "noun":
            if pending_relation:
                noun_symbol = LANDMARK_SYMBOL
                pending_relation = False
            elif not root_found:
                noun_symbol = ROOT_SYMBOL
                root_found = True
            else:
                continue  # extra ungoverned noun: outside the grammar, left O
            labels[start] = TagLabel("B", noun_symbol)
            for j in range(start + 1, end):
                labels[j] = TagLabel("I", noun_symbol)
        elif role == "value":
            labels[start] = TagLabel("B", symbol)

    if not root_found:
        raise NoReferredObjectError(f"no referred object class in: {' '.join(lowered)}")
    return labels


def _spans(tokens: Sequence[Token], labels: Sequence[TagLabel]):
    """Collapse B-/I- runs into (symbol, text, start) spans."""
    out: list[tuple[str, str, int]] = []
    current: list[str] = []
    symbol = ""
    start = -1
    for tok, lab in zip(tokens, labels):
        if lab.prefix == "B":
            if current:
                out.append((symbol, " ".join(current), start))
            current, symbol, start = [tok.text.lower()], lab.symbol or "", tok.index
        elif lab.prefix == "I":
            current.append(tok.text.lower())
        else:
            if current:
                out.append((symbol, " ".join(current), start))
            current = []
    if current:
        out.append((symbol, " ".join(current), start))
    return out


class _Node:
    __slots__ = ("root", "selfs", "rels")

    def __init__(self, root: str):
        self.root = root
        self.selfs: list[tuple[str, str]] = []
        self.rels: list[tuple[str, "_Node"]] = []

    def build(self) -> ObjectGraph:
        return ObjectGraph.build(
            self.root,
            self.selfs,
            [(kind, child.build()) for kind, child in self.rels],
        )


def parse_tags(tokens: Sequence[Token], labels: Sequence[TagLabel]) -> ObjectGraph:
    """Assemble a BIO-labeled token sequence into a canonical object graph.

    Grammar: the root expands to self and relational attribute edges; each
    relational edge opens a landmark node that expands the same way. A self
    value span attaches to the nearest following noun; a relational span
    connects the nearest preceding noun to the nearest following noun. A
    graph that ObjectGraph refuses, such as two colors on one noun, is a
    TagParseError.
    """
    if len(tokens) != len(labels):
        raise TagParseError(f"{len(tokens)} tokens vs {len(labels)} labels")
    if not bio_valid(labels):
        raise TagParseError("label sequence violates the BIO scheme")
    spans = _spans(tokens, labels)

    roots = [s for s in spans if s[0] == ROOT_SYMBOL]
    if len(roots) != 1:
        raise TagParseError(f"expected exactly one referred-object span, found {len(roots)}")

    nouns = [(start, _Node(text)) for symbol, text, start in spans if symbol in (ROOT_SYMBOL, LANDMARK_SYMBOL)]
    root_node = next(node for (start, node) in nouns if start == roots[0][2])

    def following_noun(position: int) -> _Node | None:
        for start, node in nouns:
            if start > position:
                return node
        return None

    def preceding_noun(position: int) -> _Node | None:
        best = None
        for start, node in nouns:
            if start < position:
                best = node
        return best

    for symbol, text, start in spans:
        if symbol in (ROOT_SYMBOL, LANDMARK_SYMBOL):
            continue
        if symbol.startswith("is-"):
            owner = preceding_noun(start)
            child = following_noun(start)
            if owner is None or child is None:
                raise DanglingRelationError(f"relation {symbol!r} at token {start} has no noun to bind")
            owner.rels.append((symbol, child))
        else:
            target = following_noun(start)
            if target is None:
                raise TagParseError(f"attribute {text!r} at token {start} has no following noun")
            target.selfs.append((symbol, text))

    try:
        return root_node.build()
    except GraphStructureError as exc:
        raise TagParseError(str(exc)) from exc


def phrase_to_graph(text: str, lexicon: Lexicon | None = None) -> ObjectGraph:
    """End-to-end: tokenize, tag, parse. Returns a canonical graph."""
    tokens = tokenize(text)
    if not tokens:
        raise PhraseError("empty input text")
    return parse_tags(tokens, tag(tokens, lexicon))


def article(word: str) -> str:
    return "an" if word[:1] in "aeiou" else "a"


def _noun_phrase(g: ObjectGraph) -> str:
    words = [value for _, value in g.self_attrs] + g.root.split()
    parts = [article(words[0])] + words
    for kind, child in g.rel_attrs:
        surface = RELATION_SURFACE.get(kind, kind[3:].replace("-", " "))
        parts.append(surface)
        parts.append(_noun_phrase(child))
    return " ".join(parts)


def realize(g: ObjectGraph) -> str:
    """Render a canonical graph as an English noun phrase.

    Self attribute values precede the class noun; relational clauses follow
    it (pre-order traversal; relational edges always to the right of self
    edges). Articles are chosen by leading vowel.
    """
    return _noun_phrase(g)
