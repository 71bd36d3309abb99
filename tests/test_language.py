import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refground.evaluation import build_parser_corpus
from refground.graph import ObjectGraph
from refground.language import (
    LANDMARK_SYMBOL,
    ROOT_SYMBOL,
    DanglingRelationError,
    NoReferredObjectError,
    PhraseError,
    TagParseError,
    bio_span,
    bio_valid,
    parse_tags,
    phrase_to_graph,
    realize,
    tag,
    tokenize,
)
from refground.lexicon import Lexicon, LexiconError, default_lexicon, load_lexicon

from conftest import random_expressible_graph


def labels_of(text, lexicon):
    return tag(tokenize(text), lexicon)


# -- tokenize -----------------------------------------------------------------


def test_tokenize_splits_punctuation():
    assert tokenize("bring it, please.") == ["bring", "it", ",", "please", "."]


# -- tagging ------------------------------------------------------------------


def test_tag_plastic_cup_on_table(lexicon):
    assert labels_of("take the plastic cup on the table", lexicon) == [
        "O",
        "O",
        "B-material",
        "B-r(g)",
        "B-is-on",
        "O",
        "B-av_R",
    ]


def test_tag_bring_a_cup(lexicon):
    assert labels_of("bring a cup", lexicon) == ["O", "O", "B-r(g)"]


def test_tag_repeated_value_words(lexicon):
    assert labels_of("a white lamp near a white table", lexicon) == [
        "O",
        "B-color",
        "B-r(g)",
        "B-is-near",
        "O",
        "B-color",
        "B-av_R",
    ]


def test_tag_multiword_class_and_cue(lexicon):
    assert labels_of("take the cup on top of the dining table", lexicon) == [
        "O",
        "O",
        "B-r(g)",
        "B-is-on",
        "I-is-on",
        "I-is-on",
        "O",
        "B-av_R",
        "I-av_R",
    ]


def test_tag_without_object_class_fails(lexicon):
    with pytest.raises(NoReferredObjectError):
        tag(tokenize("bring the red thing"), lexicon)


def test_tag_empty_sequence_fails(lexicon):
    with pytest.raises(PhraseError):
        tag([], lexicon)


def test_tag_deterministic(lexicon):
    text = "please fetch a blue ceramic bowl next to the counter"
    assert labels_of(text, lexicon) == labels_of(text, lexicon)


def test_tag_output_is_bio_valid(lexicon):
    for text in [
        "take the plastic cup on the table",
        "get me an orange armchair near the dining table",
        "pick up a book",
    ]:
        assert bio_valid(tag(tokenize(text), lexicon))


# -- indexed tagger against the linear table scan ------------------------------


def reference_tag(tokens, lexicon):
    """The tagger before the per-lexicon phrase index: it rebuilds and sorts
    the whole phrase table on every call and scans all of it at every token."""
    if not tokens:
        raise PhraseError("cannot tag an empty token sequence")
    table = []
    for phrase in lexicon.verbs:
        table.append((tuple(phrase.split()), "verb", ""))
    for cue, kind in lexicon.relation_cues.items():
        table.append((tuple(cue.split()), "cue", kind))
    for cls in lexicon.object_classes:
        table.append((tuple(cls.split()), "noun", ""))
    for kind, values in lexicon.self_values.items():
        for value in values:
            table.append(((value,), "value", kind))
    table.sort(key=lambda e: -len(e[0]))
    lowered = [t.lower() for t in tokens]
    n = len(tokens)
    labels = ["O"] * n
    spans = []
    i = 0
    while i < n:
        matched = False
        for words, role, symbol in table:
            k = len(words)
            if i + k <= n and tuple(lowered[i : i + k]) == words:
                spans.append((i, i + k, role, symbol))
                i += k
                matched = True
                break
        if not matched:
            i += 1
    pending_relation = False
    root_found = False
    for start, end, role, symbol in spans:
        if role == "cue":
            labels[start] = f"B-{symbol}"
            for j in range(start + 1, end):
                labels[j] = f"I-{symbol}"
            pending_relation = True
        elif role == "noun":
            if pending_relation:
                noun_symbol = LANDMARK_SYMBOL
                pending_relation = False
            elif not root_found:
                noun_symbol = ROOT_SYMBOL
                root_found = True
            else:
                continue
            labels[start] = f"B-{noun_symbol}"
            for j in range(start + 1, end):
                labels[j] = f"I-{noun_symbol}"
        elif role == "value":
            labels[start] = f"B-{symbol}"
    if not root_found:
        raise NoReferredObjectError(f"no referred object class in: {' '.join(lowered)}")
    return labels


def tag_outcome(tagger, text, lexicon):
    try:
        return tagger(tokenize(text), lexicon)
    except PhraseError as exc:
        return (type(exc).__name__, str(exc))


# "pick up" is a verb, a cue and a class, "red" a class and a value: the
# stable sort puts verbs before cues before classes before values.
AMBIGUOUS_LEXICON = Lexicon(
    object_classes=frozenset({"cup", "pick up", "table", "dining table", "red"}),
    self_values={"color": frozenset({"red", "blue"})},
    relation_cues={"on": "is-on", "on top of": "is-on", "pick up": "is-near", "next to": "is-near"},
    verbs=frozenset({"pick", "pick up", "bring"}),
)


def lexicon_pieces(lexicon):
    """Every lexicon phrase and each of its tokens, plus unknown words."""
    words = {*lexicon.object_classes, *lexicon.relation_cues, *lexicon.verbs}
    for values in lexicon.self_values.values():
        words |= values
    words |= {token for phrase in words for token in phrase.split()}
    unknown = {"a", "the", "thing", "xyzzy", "it", ",", ".", "Cup", "ON", "Dining"}
    return sorted(words | unknown)


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_tag_writes_the_corpus_gold_labels(lexicon, seed):
    """The tagger's labels and the corpus's gold labels are one format."""
    for case in build_parser_corpus(600, seed):
        assert tag(tokenize(case.text), lexicon) == list(case.labels)


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_indexed_tag_matches_table_scan_on_parser_corpus(lexicon, seed):
    for case in build_parser_corpus(600, seed):
        assert tag_outcome(tag, case.text, lexicon) == tag_outcome(reference_tag, case.text, lexicon)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_indexed_tag_matches_table_scan_on_token_sequences(data):
    lexicon = data.draw(st.sampled_from([default_lexicon(), AMBIGUOUS_LEXICON]))
    pieces = data.draw(st.lists(st.sampled_from(lexicon_pieces(lexicon)), min_size=1, max_size=12))
    text = " ".join(pieces)
    assert tag_outcome(tag, text, lexicon) == tag_outcome(reference_tag, text, lexicon)


def test_overlapping_phrases_take_the_longest_match(lexicon):
    assert labels_of("pick up the cup on top of the dining table next to a lamp", lexicon) == [
        "O", "O", "O", "B-r(g)", "B-is-on", "I-is-on", "I-is-on", "O", "B-av_R", "I-av_R",
        "B-is-near", "I-is-near", "O", "B-av_R",
    ]


# -- lexicon ------------------------------------------------------------------


@pytest.mark.parametrize("blank", ["", " ", "\t"])
@pytest.mark.parametrize("field", ["object_classes", "value", "cue", "verbs"])
def test_lexicon_refuses_blank_words(field, blank):
    tables = {
        "object_classes": frozenset({"cup"}),
        "self_values": {"color": frozenset({"red"})},
        "relation_cues": {"on": "is-on"},
        "verbs": frozenset({"bring"}),
    }
    if field == "value":
        tables["self_values"] = {"color": frozenset({"red", blank})}
    elif field == "cue":
        tables["relation_cues"] = {"on": "is-on", blank: "is-near"}
    else:
        tables[field] = tables[field] | {blank}
    with pytest.raises(LexiconError, match="empty or whitespace"):
        Lexicon(**tables)


@pytest.mark.parametrize("field", ["object_classes", "value", "cue", "verbs"])
def test_lexicon_refuses_words_the_tagger_cannot_match(field):
    # the tagger lowercases every token, so "Cup" would never be tagged
    tables = {
        "object_classes": frozenset({"cup", "table"}),
        "self_values": {"color": frozenset({"red"})},
        "relation_cues": {"on": "is-on"},
        "verbs": frozenset({"bring"}),
    }
    if field == "value":
        tables["self_values"] = {"color": frozenset({"red", "Blue"})}
    elif field == "cue":
        tables["relation_cues"] = {"on": "is-on", "Next to": "is-near"}
    else:
        tables[field] = tables[field] | {"Pick up" if field == "verbs" else "Cup"}
    with pytest.raises(LexiconError, match="must be lowercase"):
        Lexicon(**tables)


def test_lexicon_file_drops_empty_tokens(tmp_path):
    path = tmp_path / "lexicon.txt"
    path.write_text("object_classes = cup, , table\nself.color = red,\nverbs = , bring\n")
    lexicon = load_lexicon(path)
    assert lexicon.object_classes == {"cup", "table"} and lexicon.verbs == {"bring"}
    assert labels_of("bring a red cup", lexicon) == ["O", "O", "B-color", "B-r(g)"]


# -- parsing ------------------------------------------------------------------


def test_parse_self_and_relational(lexicon):
    g = phrase_to_graph("take the plastic cup on the table", lexicon)
    expected = ObjectGraph.build(
        "cup", [("material", "plastic")], [("is-on", ObjectGraph.build("table"))]
    )
    assert g == expected


def test_parse_bare_root(lexicon):
    assert phrase_to_graph("bring a cup", lexicon) == ObjectGraph.build("cup")


def test_parse_nearest_following_noun_attachment(lexicon):
    g = phrase_to_graph("a white lamp near a white table", lexicon)
    expected = ObjectGraph.build(
        "lamp",
        [("color", "white")],
        [("is-near", ObjectGraph.build("table", [("color", "white")]))],
    )
    assert g == expected


def test_parse_depth_two_nesting(lexicon):
    g = phrase_to_graph("bring the cup on the table near the lamp", lexicon)
    expected = ObjectGraph.build(
        "cup",
        [],
        [("is-on", ObjectGraph.build("table", [], [("is-near", ObjectGraph.build("lamp"))]))],
    )
    assert g == expected


def test_parse_rejects_multiple_roots(lexicon):
    tokens = tokenize("cup cup")
    labels = ["B-r(g)", "B-r(g)"]
    with pytest.raises(TagParseError):
        parse_tags(tokens, labels)


def test_parse_rejects_zero_roots():
    tokens = tokenize("red")
    with pytest.raises(TagParseError):
        parse_tags(tokens, ["B-color"])


def test_parse_dangling_relation(lexicon):
    tokens = tokenize("cup on")
    labels = ["B-r(g)", "B-is-on"]
    with pytest.raises(DanglingRelationError):
        parse_tags(tokens, labels)


def test_parse_rejects_bio_invalid():
    tokens = tokenize("red cup")
    labels = ["I-color", "B-r(g)"]
    with pytest.raises(TagParseError):
        parse_tags(tokens, labels)


@pytest.mark.parametrize("label", ["X-color", "O-color", "b-color", "B-", "I-", "", "B", "Bcolor"])
def test_parse_rejects_a_label_outside_the_bio_format(label):
    with pytest.raises(TagParseError):
        parse_tags(tokenize("red cup"), [label, "B-r(g)"])


def test_every_labeled_token_lands_in_graph(lexicon):
    text = "fetch the red plastic cup on top of the white dining table"
    tokens = tokenize(text)
    labels = tag(tokens, lexicon)
    g = phrase_to_graph(text, lexicon)

    graph_tokens = []

    def collect(node):
        graph_tokens.extend(node.root.split())
        for _, value in node.self_attrs:
            graph_tokens.extend(value.split())
        for _, child in node.rel_attrs:
            collect(child)

    collect(g)
    relation = ("B-is-", "I-is-")
    labeled = [t.lower() for t, lab in zip(tokens, labels) if lab != "O" and not lab.startswith(relation)]
    assert sorted(graph_tokens) == sorted(labeled)


# -- realize ------------------------------------------------------------------


def test_realize_plastic_cup():
    g = ObjectGraph.build("cup", [("material", "plastic")])
    assert realize(g) == "a plastic cup"


def test_realize_preorder_with_landmark():
    g = ObjectGraph.build(
        "cup",
        [("color", "red")],
        [("is-on", ObjectGraph.build("table", [("color", "white")]))],
    )
    assert realize(g) == "a red cup on top of a white table"


def test_realize_bare():
    assert realize(ObjectGraph.build("cup")) == "a cup"


def test_realize_article_an():
    g = ObjectGraph.build("cup", [("color", "orange")])
    assert realize(g) == "an orange cup"
    assert realize(ObjectGraph.build("armchair")) == "an armchair"


def test_realize_self_attrs_left_of_relational():
    g = ObjectGraph.build(
        "lamp", [("color", "white")], [("is-at", ObjectGraph.build("desk"))]
    )
    assert realize(g) == "a white lamp at a desk"


# -- round trip ---------------------------------------------------------------


def test_round_trip_seeded_sample(lexicon):
    rng = np.random.default_rng(7)
    for _ in range(200):
        g = random_expressible_graph(rng)
        assert phrase_to_graph(realize(g), lexicon) == g


# -- labels -------------------------------------------------------------------


def test_bio_valid_rules():
    assert bio_span("color", 1) == ["B-color"]
    assert bio_span("av_R", 3) == ["B-av_R", "I-av_R", "I-av_R"]
    assert bio_valid(["B-color", "I-color", "O"])
    assert bio_valid(["B-is-on", "I-is-on", "O", "B-av_R", "I-av_R", "B-r(g)"])
    assert bio_valid([])
    assert not bio_valid(["I-color"])
    assert not bio_valid(["O", "I-color"])
    assert not bio_valid(["B-material", "I-color"])
