"""Text to object graph and back.

Two-stage forward path: a deterministic lexicon tagger labels each token
with a BIO tag over the symbol set {r(g), av_R, color, material, is-on,
is-near, is-at, ...}, then a grammar-driven top-down parser assembles the
labeled spans into an object graph. The inverse path (realize) renders a
canonical graph as an English noun phrase via pre-order traversal.
Parsing always uses the lexicon tagger.

Tokens and labels are plain strings. A label is "O", "B-<symbol>" or
"I-<symbol>": the format the parser corpus stores as gold labels and
`refground parse --tags` prints.
"""

from __future__ import annotations

import re
from typing import Sequence

from .graph import GraphStructureError, ObjectGraph
from .lexicon import Lexicon

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


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization with punctuation split off as separate tokens."""
    return _TOKEN_RE.findall(text)


def bio_span(symbol: str, n: int) -> list[str]:
    """The labels of one n-token span: B-<symbol>, then I-<symbol> for the rest."""
    return [f"B-{symbol}"] + [f"I-{symbol}"] * (n - 1)


def bio_valid(labels: Sequence[str]) -> bool:
    """Every label is O, B-<symbol> or I-<symbol>, and an I- label continues
    a B- or I- span of the same symbol."""
    prev = "O"
    for lab in labels:
        if lab != "O":
            if lab[:2] not in ("B-", "I-") or len(lab) < 3:
                return False
            if lab[0] == "I" and prev[2:] != lab[2:]:
                return False
        prev = lab
    return True


def tag(tokens: Sequence[str], lexicon: Lexicon) -> list[str]:
    """Label each token with a BIO tag.

    The first class noun not governed by a relation cue becomes the referred
    object r(g); nouns following a relation cue become landmarks av_R; value
    tokens are labeled with their attribute kind. Everything else is O.
    """
    if not tokens:
        raise PhraseError("empty input text")
    index = lexicon.phrase_index
    lowered = [t.lower() for t in tokens]
    n = len(tokens)
    labels = ["O"] * n

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
            i += 1  # an unknown token stays O

    pending_relation = False
    root_found = False
    for start, end, role, symbol in spans:
        if role == "verb":
            continue  # verbs stay O
        if role == "cue":
            pending_relation = True
        elif role == "noun":
            if pending_relation:
                symbol = LANDMARK_SYMBOL
                pending_relation = False
            elif not root_found:
                symbol = ROOT_SYMBOL
                root_found = True
            else:
                continue  # extra ungoverned noun: outside the grammar, left O
        labels[start:end] = bio_span(symbol, end - start)

    if not root_found:
        raise NoReferredObjectError(f"no referred object class in: {' '.join(lowered)}")
    return labels


def _spans(tokens: Sequence[str], labels: Sequence[str]) -> list[list]:
    """Collapse the B-/I- runs of a BIO-valid sequence into [symbol, text, start] spans."""
    spans: list[list] = []
    for i, (token, label) in enumerate(zip(tokens, labels)):
        if label[0] == "B":
            spans.append([label[2:], token.lower(), i])
        elif label[0] == "I":
            spans[-1][1] += " " + token.lower()
    return spans


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


def parse_tags(tokens: Sequence[str], labels: Sequence[str]) -> ObjectGraph:
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


def phrase_to_graph(text: str, lexicon: Lexicon) -> ObjectGraph:
    """End-to-end: tokenize, tag, parse. Returns a canonical graph."""
    tokens = tokenize(text)
    return parse_tags(tokens, tag(tokens, lexicon))


def article(word: str) -> str:
    return "an" if word[:1] in "aeiou" else "a"


def realize(g: ObjectGraph) -> str:
    """Render a canonical graph as an English noun phrase.

    Self attribute values precede the class noun; relational clauses follow
    it (pre-order traversal; relational edges always to the right of self
    edges). Articles are chosen by leading vowel.
    """
    words = [value for _, value in g.self_attrs] + g.root.split()
    parts = [article(words[0])] + words
    for kind, child in g.rel_attrs:
        parts.append(RELATION_SURFACE.get(kind, kind[3:].replace("-", " ")))
        parts.append(realize(child))
    return " ".join(parts)
