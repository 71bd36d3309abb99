"""Closed vocabulary shared by the language pipeline and the scene simulator.

One vocabulary file drives both sides: the tagger recognizes exactly the
classes, attribute values, and relation cues listed here, and the simulator
only names objects with the same tokens, so every generated caption and
instruction is parseable by construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

from .graph import GraphStructureError, check_kind

# A tagger entry: (token tuple, span role, symbol). Roles: "verb" produces O
# labels, "cue" a relational kind span, "noun" an object class span, "value"
# a self attribute kind span.
PhraseEntry = tuple[tuple[str, ...], str, str]


class LexiconError(ValueError):
    """Malformed lexicon definition or file."""


# Default vocabulary. Value sets are disjoint across kinds and from the
# class names (token-level ambiguity would break deterministic tagging).
OBJECT_CLASSES = (
    "cup",
    "book",
    "laptop",
    "bowl",
    "plant",
    "lamp",
    "chair",
    "armchair",
    "sofa",
    "table",
    "dining table",
    "desk",
    "counter",
)
COLORS = ("red", "black", "white", "blue", "green", "yellow", "orange")
MATERIALS = ("plastic", "wooden", "metal", "glass", "ceramic")
RELATION_CUES = {
    "on": "is-on",
    "on top of": "is-on",
    "near": "is-near",
    "beside": "is-near",
    "next to": "is-near",
    "at": "is-at",
}
VERBS = ("bring", "take", "fetch", "grab", "find", "get", "pick up", "pick", "place", "give")


@dataclass(frozen=True)
class Lexicon:
    """Token tables used by the deterministic tagger.

    `phrase_index` maps each phrase's first token to its entries, longest
    phrase first; it is built once, here, so tagging a token tries only the
    phrases that can start with it.
    """

    object_classes: frozenset[str]
    self_values: Mapping[str, frozenset[str]]
    relation_cues: Mapping[str, str]
    verbs: frozenset[str] = frozenset()
    phrase_index: Mapping[str, tuple[PhraseEntry, ...]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        words = [*self.object_classes, *self.relation_cues, *self.verbs]
        for values in self.self_values.values():
            words.extend(values)
        blank = sorted({w for w in words if not w.strip()})
        if blank:
            raise LexiconError(f"lexicon words must not be empty or whitespace: {blank}")
        # the tagger lowercases every token, so it could never match these
        upper = sorted({w for w in words if w != w.lower()})
        if upper:
            raise LexiconError(f"lexicon words must be lowercase: {upper}")
        # the graph's own kind rule, so every kind named here builds a graph
        try:
            for kind in self.self_values:
                check_kind(kind, relational=False)
            for kind in self.relation_cues.values():
                check_kind(kind, relational=True)
        except GraphStructureError as exc:
            raise LexiconError(str(exc)) from exc
        all_values: set[str] = set()
        for values in self.self_values.values():
            overlap = all_values & set(values)
            if overlap:
                raise LexiconError(f"value tokens shared across self kinds: {sorted(overlap)}")
            all_values |= set(values)
        object.__setattr__(self, "phrase_index", self._build_phrase_index())

    def _build_phrase_index(self) -> dict[str, tuple[PhraseEntry, ...]]:
        # A stable sort on length, longest first, over verbs, cues, classes
        # and values in that order: within one first token the entries keep
        # the order a scan of the whole sorted table would try them in.
        entries: list[PhraseEntry] = []
        for phrase in self.verbs:
            entries.append((tuple(phrase.split()), "verb", ""))
        for cue, kind in self.relation_cues.items():
            entries.append((tuple(cue.split()), "cue", kind))
        for cls in self.object_classes:
            entries.append((tuple(cls.split()), "noun", ""))
        for kind, values in self.self_values.items():
            for value in values:
                entries.append(((value,), "value", kind))
        entries.sort(key=lambda e: -len(e[0]))
        index: dict[str, list[PhraseEntry]] = {}
        for entry in entries:
            index.setdefault(entry[0][0], []).append(entry)
        return {first: tuple(group) for first, group in index.items()}


def default_lexicon() -> Lexicon:
    return Lexicon(
        object_classes=frozenset(OBJECT_CLASSES),
        self_values={"color": frozenset(COLORS), "material": frozenset(MATERIALS)},
        relation_cues=dict(RELATION_CUES),
        verbs=frozenset(VERBS),
    )


def key_value_lines(path: str | Path, error: type[ValueError]) -> Iterator[tuple[int, str, str]]:
    """Yield (line number, key, value) for each `key = value` line of a UTF-8
    text file, skipping blank and `#` lines. A file that does not decode, a
    line without `=` or a key set twice raises `error`; the caller prefixes
    the path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"not UTF-8 text: {exc}") from exc
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"line {lineno}: expected 'key = value', got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise error(f"line {lineno}: key {key!r} already set on line {first_line[key]}")
        first_line[key] = lineno
        yield lineno, key, value.strip()


def load_lexicon(path: str | Path) -> Lexicon:
    """Read a key-value lexicon file (comma-separated token lists).

    A cue or a self value listed under two kinds is refused with both
    lines; otherwise the later line would silently win.
    """
    object_classes: set[str] = set()
    self_values: dict[str, frozenset[str]] = {}
    relation_cues: dict[str, str] = {}
    verbs: set[str] = set()
    named: dict[tuple[str, str], tuple[str, int]] = {}  # (role, token) -> (kind, line)

    def name(role: str, token: str, kind: str, lineno: int) -> None:
        first_kind, first_line = named.setdefault((role, token), (kind, lineno))
        if first_kind != kind:
            raise LexiconError(f"line {lineno}: {role} {token!r} already names {first_kind} on line {first_line}")

    try:
        for lineno, key, value in key_value_lines(path, LexiconError):
            tokens = [t.strip().lower() for t in value.split(",") if t.strip()]
            if key == "object_classes":
                object_classes.update(tokens)
            elif key.startswith("self."):
                for token in tokens:
                    name("value", token, key[5:], lineno)
                self_values[key[5:]] = frozenset(tokens)
            elif key.startswith("rel."):
                for cue in tokens:
                    name("cue", cue, key[4:], lineno)
                    relation_cues[cue] = key[4:]
            elif key == "verbs":
                verbs.update(tokens)
            else:
                raise LexiconError(f"line {lineno}: unknown key {key!r}")
        if not object_classes:
            raise LexiconError("no object_classes defined")
        return Lexicon(
            object_classes=frozenset(object_classes),
            self_values=self_values,
            relation_cues=relation_cues,
            verbs=frozenset(verbs),
        )
    except LexiconError as exc:
        raise LexiconError(f"{path}: {exc}") from exc
