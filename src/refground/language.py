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
from bisect import bisect
from typing import Sequence

from .graph import MAX_TREE_DEPTH, GraphStructureError, ObjectGraph
from .lexicon import Lexicon

ROOT_SYMBOL = "r(g)"
LANDMARK_SYMBOL = "av_R"
_NOUN_SYMBOLS = (ROOT_SYMBOL, LANDMARK_SYMBOL)

# Edge surface forms used when rendering a graph as English. Self attribute
# kinds render as the bare value token (empty edge surface).
RELATION_SURFACE = {"is-on": "on top of", "is-near": "near", "is-at": "at"}

_TOKEN_RE = re.compile(r"[A-Za-z0-9'\-]+|[^\sA-Za-z0-9'\-]")


class PhraseError(ValueError):
    """Text or a label sequence cannot become an object graph."""


def tokenize(text: str) -> list[str]:
    """Whitespace tokenization with punctuation split off as separate tokens."""
    return _TOKEN_RE.findall(text)


def may_name(text: str, key: str) -> bool:
    """False when no parse of `text` can have the root `key` (a `root_key`):
    a parsed root is one run of the text's lowercased tokens joined by single
    spaces, and no token holds a space, so the text must hold that run."""
    return f" {key} " in f" {' '.join([t.lower() for t in tokenize(text)])} "


def bio_span(symbol: str, n: int) -> list[str]:
    """The labels of one n-token span: B-<symbol>, then I-<symbol> for the rest."""
    return [f"B-{symbol}"] + [f"I-{symbol}"] * (n - 1)


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

    pending_relation = False
    root_found = False
    i = 0
    while i < n:
        for words, symbol in index.get(lowered[i], ()):
            k = len(words)
            if i + k <= n and tuple(lowered[i : i + k]) == words:
                if symbol.startswith("is-"):
                    pending_relation = True
                elif not symbol:
                    if pending_relation:
                        symbol, pending_relation = LANDMARK_SYMBOL, False
                    elif not root_found:
                        symbol, root_found = ROOT_SYMBOL, True
                if symbol:  # a class noun after the root that no cue governs stays O
                    labels[i : i + k] = bio_span(symbol, k)
                i += k
                break
        else:
            i += 1  # an unknown token stays O

    if not root_found:
        if f"B-{LANDMARK_SYMBOL}" in labels:
            raise PhraseError(f"every object class follows a relation cue in: {' '.join(lowered)}")
        raise PhraseError(f"no referred object class in: {' '.join(lowered)}")
    return labels


def parse_tags(tokens: Sequence[str], labels: Sequence[str]) -> ObjectGraph:
    """Assemble a BIO-labeled token sequence into a canonical object graph.

    Grammar: the root expands to self and relational attribute edges; each
    relational edge opens a landmark node that expands the same way. A self
    value span attaches to the nearest following noun; a relational span
    connects the nearest preceding noun to the nearest following noun, which
    no other relation may bind. A label other than O, B-<symbol> or an
    I-<symbol> that continues a span of its symbol, a graph nesting more
    than MAX_TREE_DEPTH relations, a noun the root's graph does not reach,
    or a graph that ObjectGraph refuses, such as two colors on one noun, is
    a PhraseError.
    """
    if len(tokens) != len(labels):
        raise PhraseError(f"{len(tokens)} tokens vs {len(labels)} labels")
    spans: list[list] = []  # [symbol, text, start] per B-/I- run
    open_symbol = None  # the symbol of the span the previous label is in
    for i, (token, label) in enumerate(zip(tokens, labels)):
        if label == "O":
            open_symbol = None
        elif label[:2] == "I-" and label[2:] == open_symbol:
            spans[-1][1] += " " + token.lower()
        elif label[:2] == "B-" and label[2:]:
            open_symbol = label[2:]
            spans.append([open_symbol, token.lower(), i])
        else:
            raise PhraseError("label sequence violates the BIO scheme")

    # noun start -> (text, self edges, [(relation, child start)])
    nouns = {start: (text, [], []) for symbol, text, start in spans if symbol in _NOUN_SYMBOLS}
    roots = [start for symbol, _, start in spans if symbol == ROOT_SYMBOL]
    if len(roots) != 1:
        raise PhraseError(f"expected exactly one referred-object span, found {len(roots)}")
    starts = list(nouns)
    for symbol, text, start in spans:
        if symbol in _NOUN_SYMBOLS:
            continue
        after = bisect(starts, start)  # index of the nearest following noun
        following = starts[after] if after < len(starts) else None
        if symbol.startswith("is-"):
            if after == 0 or following is None:
                raise PhraseError(f"relation {symbol!r} at token {start} has no noun to bind")
            # relations between the same two nouns bind the same landmark
            rels = nouns[starts[after - 1]][2]
            if rels:
                raise PhraseError(
                    f"landmark {nouns[following][0]!r} at token {following} is bound by two relations"
                )
            rels.append((symbol, following))
        elif following is None:
            raise PhraseError(f"attribute {text!r} at token {start} has no following noun")
        else:
            nouns[following][1].append((symbol, text))

    reached: set[int] = set()

    def build(start: int, depth: int) -> ObjectGraph:
        reached.add(start)
        text, selfs, rels = nouns[start]
        if rels and depth == MAX_TREE_DEPTH:
            raise PhraseError(f"graph nests more than {MAX_TREE_DEPTH} relations")
        return ObjectGraph(text, selfs, [(kind, build(child, depth + 1)) for kind, child in rels])

    try:
        graph = build(roots[0], 0)
    except GraphStructureError as exc:
        raise PhraseError(str(exc)) from exc
    if len(reached) < len(nouns):
        start = min(nouns.keys() - reached)
        raise PhraseError(
            f"noun {nouns[start][0]!r} at token {start} is not reached from the referred object"
        )
    return graph


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
