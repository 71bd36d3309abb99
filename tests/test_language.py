import signal

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from refground.evaluation import build_parser_corpus
from refground.graph import MAX_TREE_DEPTH, GraphStructureError, ObjectGraph, root_key
from refground.language import (
    LANDMARK_SYMBOL,
    ROOT_SYMBOL,
    PhraseError,
    bio_span,
    may_name,
    parse_tags,
    phrase_to_graph,
    realize,
    tag,
    tokenize,
)
from refground.lexicon import Lexicon, LexiconError, default_lexicon, load_lexicon

from conftest import FORMER_VERBS, lexicon_pieces, random_expressible_graph


def labels_of(text, lexicon):
    return tag(tokenize(text), lexicon)


def bio_valid(labels):
    """Reference for the label check in parse_tags, as a pass of its own:
    every label is O, B-<symbol> or I-<symbol>, and an I- label continues a
    B- or I- span of the same symbol."""
    prev = "O"
    for lab in labels:
        if lab != "O":
            if lab[:2] not in ("B-", "I-") or len(lab) < 3:
                return False
            if lab[0] == "I" and prev[2:] != lab[2:]:
                return False
        prev = lab
    return True


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
    with pytest.raises(PhraseError, match="^no referred object class in: bring the red thing$"):
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


def reference_tag(tokens, lexicon, verbs):
    """The tagger before the per-lexicon phrase index: it rebuilds and sorts
    the whole phrase table on every call and scans all of it at every token.
    Its table leads with a verb table, whose phrases label O, as the
    lexicon's did before the verb table went."""
    if not tokens:
        raise PhraseError("cannot tag an empty token sequence")
    table = []
    for phrase in verbs:
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
    root_found = landmark_found = False
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
                landmark_found = True
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
        if landmark_found:
            raise PhraseError(f"every object class follows a relation cue in: {' '.join(lowered)}")
        raise PhraseError(f"no referred object class in: {' '.join(lowered)}")
    return labels


def tag_outcome(tagger, text, lexicon, *verbs):
    try:
        return tagger(tokenize(text), lexicon, *verbs)
    except PhraseError as exc:
        return (type(exc).__name__, str(exc))


# "pick up" is a cue and a class, "red" a class and a value: the stable
# sort puts cues before classes before values.
AMBIGUOUS_LEXICON = Lexicon(
    object_classes=frozenset({"cup", "pick up", "table", "dining table", "red"}),
    self_values={"color": frozenset({"red", "blue"})},
    relation_cues={"on": "is-on", "on top of": "is-on", "pick up": "is-near", "next to": "is-near"},
)


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_tag_writes_the_corpus_gold_labels(lexicon, seed):
    """The tagger's labels and the corpus's gold labels are one format."""
    for case in build_parser_corpus(600, seed):
        assert tag(tokenize(case.text), lexicon) == list(case.labels)


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_indexed_tag_matches_table_scan_on_parser_corpus(lexicon, seed):
    for case in build_parser_corpus(600, seed):
        assert tag_outcome(tag, case.text, lexicon) == tag_outcome(reference_tag, case.text, lexicon, ())


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_indexed_tag_matches_table_scan_on_token_sequences(data):
    lexicon = data.draw(st.sampled_from([default_lexicon(), AMBIGUOUS_LEXICON]))
    pieces = data.draw(st.lists(st.sampled_from(lexicon_pieces(lexicon)), min_size=1, max_size=12))
    text = " ".join(pieces)
    assert tag_outcome(tag, text, lexicon) == tag_outcome(reference_tag, text, lexicon, ())


def target_spellings(cls: str) -> tuple[str, ...]:
    """A counting target as a manifest may spell it: any case, padded with whitespace."""
    return (cls, cls.upper(), cls.title(), f" {cls} ", f"\t{cls.title()}  ")


def assert_may_name_keeps_its_root(text: str, lexicon: Lexicon, targets) -> int:
    """may_name keeps text for every target whose key is the root of text's
    parse; returns how many targets it skips."""
    try:
        root = phrase_to_graph(text, lexicon).root
    except PhraseError:
        root = None
    skipped = 0
    for target in targets:
        key = root_key(target)
        if not may_name(text, key):
            assert root != key, (text, target)
            skipped += 1
    return skipped


def test_may_name_keeps_every_parser_corpus_caption_of_its_root(lexicon):
    targets = [t for cls in sorted(lexicon.object_classes) for t in target_spellings(cls)]
    assert "dining table" in lexicon.object_classes
    texts = [case.text for seed in (0, 7, 11) for case in build_parser_corpus(600, seed)]
    for spell in (str, str.upper, str.title):
        skipped = sum(assert_may_name_keeps_its_root(spell(text), lexicon, targets) for text in texts)
        assert skipped > len(texts) * len(targets) // 2  # most (caption, class) pairs need no parse


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_may_name_keeps_every_token_sequence_of_its_root(data):
    lexicon = data.draw(st.sampled_from([default_lexicon(), AMBIGUOUS_LEXICON]))
    pieces = data.draw(st.lists(st.sampled_from(lexicon_pieces(lexicon)), min_size=1, max_size=12))
    text = data.draw(st.sampled_from((str, str.upper, str.title)))(" ".join(pieces))
    try:
        roots = [phrase_to_graph(text, lexicon).root]
    except PhraseError:
        roots = []
    cls = data.draw(st.sampled_from(sorted(lexicon.object_classes) + roots))
    assert_may_name_keeps_its_root(text, lexicon, target_spellings(cls))


def test_may_name_asks_for_the_root_words_as_one_run_of_tokens():
    assert may_name("bring the Dining  Table, please", "dining table")
    assert may_name("the dining table", "table")  # kept; the parse then names another root
    assert not may_name("the table by the dining room", "dining table")
    assert not may_name("a red cup", "table")
    assert not may_name("cupboard", "cup")


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_former_verb_table_labelled_nothing_on_parser_corpus(lexicon, seed):
    for case in build_parser_corpus(600, seed):
        assert tag_outcome(tag, case.text, lexicon) == tag_outcome(reference_tag, case.text, lexicon, FORMER_VERBS)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(lexicon_pieces(default_lexicon())), min_size=1, max_size=12))
def test_former_verb_table_labelled_nothing_on_token_sequences(pieces):
    text = " ".join(pieces)
    lexicon = default_lexicon()
    assert tag_outcome(tag, text, lexicon) == tag_outcome(reference_tag, text, lexicon, FORMER_VERBS)


def test_overlapping_phrases_take_the_longest_match(lexicon):
    assert labels_of("pick up the cup on top of the dining table next to a lamp", lexicon) == [
        "O", "O", "O", "B-r(g)", "B-is-on", "I-is-on", "I-is-on", "O", "B-av_R", "I-av_R",
        "B-is-near", "I-is-near", "O", "B-av_R",
    ]


# -- lexicon ------------------------------------------------------------------


@pytest.mark.parametrize("blank", ["", " ", "\t"])
@pytest.mark.parametrize("field", ["object_classes", "value", "cue"])
def test_lexicon_refuses_blank_words(field, blank):
    tables = {
        "object_classes": frozenset({"cup"}),
        "self_values": {"color": frozenset({"red"})},
        "relation_cues": {"on": "is-on"},
    }
    if field == "value":
        tables["self_values"] = {"color": frozenset({"red", blank})}
    elif field == "cue":
        tables["relation_cues"] = {"on": "is-on", blank: "is-near"}
    else:
        tables[field] = tables[field] | {blank}
    with pytest.raises(LexiconError, match="empty or whitespace"):
        Lexicon(**tables)


@pytest.mark.parametrize("field", ["object_classes", "value", "cue"])
def test_lexicon_refuses_words_the_tagger_cannot_match(field):
    # the tagger lowercases every token, so "Cup" would never be tagged
    tables = {
        "object_classes": frozenset({"cup", "table"}),
        "self_values": {"color": frozenset({"red"})},
        "relation_cues": {"on": "is-on"},
    }
    if field == "value":
        tables["self_values"] = {"color": frozenset({"red", "Blue"})}
    elif field == "cue":
        tables["relation_cues"] = {"on": "is-on", "Next to": "is-near"}
    else:
        tables[field] = tables[field] | {"Cup"}
    with pytest.raises(LexiconError, match="must be lowercase"):
        Lexicon(**tables)


def test_lexicon_file_drops_empty_tokens(tmp_path):
    path = tmp_path / "lexicon.txt"
    path.write_text("object_classes = cup, , table\nself.color = red,\nrel.is-on = , on\n")
    lexicon = load_lexicon(path)
    assert lexicon.object_classes == {"cup", "table"} and lexicon.relation_cues == {"on": "is-on"}
    assert labels_of("bring a red cup on the table", lexicon) == ["O", "O", "B-color", "B-r(g)", "B-is-on", "O", "B-av_R"]


# -- parsing ------------------------------------------------------------------


def test_parse_self_and_relational(lexicon):
    g = phrase_to_graph("take the plastic cup on the table", lexicon)
    expected = ObjectGraph(
        "cup", [("material", "plastic")], [("is-on", ObjectGraph("table"))]
    )
    assert g == expected


def test_parse_bare_root(lexicon):
    assert phrase_to_graph("bring a cup", lexicon) == ObjectGraph("cup")


def test_parse_nearest_following_noun_attachment(lexicon):
    g = phrase_to_graph("a white lamp near a white table", lexicon)
    expected = ObjectGraph(
        "lamp",
        [("color", "white")],
        [("is-near", ObjectGraph("table", [("color", "white")]))],
    )
    assert g == expected


def test_parse_depth_two_nesting(lexicon):
    g = phrase_to_graph("bring the cup on the table near the lamp", lexicon)
    expected = ObjectGraph(
        "cup",
        [],
        [("is-on", ObjectGraph("table", [], [("is-near", ObjectGraph("lamp"))]))],
    )
    assert g == expected


def test_parse_rejects_multiple_roots(lexicon):
    tokens = tokenize("cup cup")
    labels = ["B-r(g)", "B-r(g)"]
    with pytest.raises(PhraseError, match="^expected exactly one referred-object span, found 2$"):
        parse_tags(tokens, labels)


def test_parse_rejects_zero_roots():
    tokens = tokenize("red")
    with pytest.raises(PhraseError, match="^expected exactly one referred-object span, found 0$"):
        parse_tags(tokens, ["B-color"])


def test_parse_dangling_relation(lexicon):
    tokens = tokenize("cup on")
    labels = ["B-r(g)", "B-is-on"]
    with pytest.raises(PhraseError, match="^relation 'is-on' at token 1 has no noun to bind$"):
        parse_tags(tokens, labels)


def test_parse_rejects_bio_invalid():
    # an I- label first, after O, after O that ends its own symbol's span, or after another symbol
    for labels in (["I-color", "B-r(g)"], ["O", "I-color"], ["B-color", "O", "I-color"], ["B-material", "I-color"]):
        with pytest.raises(PhraseError, match="^label sequence violates the BIO scheme$"):
            parse_tags(tokenize("the red cup")[: len(labels)], labels)


@pytest.mark.parametrize("label", ["X-color", "O-color", "b-color", "B-", "I-", "", "B", "Bcolor"])
def test_parse_rejects_a_label_outside_the_bio_format(label):
    with pytest.raises(PhraseError, match="^label sequence violates the BIO scheme$"):
        parse_tags(tokenize("red cup"), [label, "B-r(g)"])


def test_parse_refuses_a_landmark_bound_by_two_relations(lexicon):
    with pytest.raises(PhraseError) as exc:
        phrase_to_graph("bring the cup on near the table", lexicon)
    assert str(exc.value) == "landmark 'table' at token 6 is bound by two relations"


def test_parse_refuses_a_deep_chain_of_doubly_bound_landmarks_at_once(lexicon):
    # 32 levels, each landmark bound by "on" and "near": one shared node per
    # level would make the graph's size double with every level
    text = "bring the cup" + " on near the table on near the cup" * (MAX_TREE_DEPTH // 2)

    def out_of_time(signum, frame):
        raise TimeoutError("parsing took more than one second")

    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(PhraseError, match="is bound by two relations$"):
            phrase_to_graph(text, lexicon)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_parse_checks_the_depth_before_building_the_nodes_below(lexicon):
    chain = "bring the cup" + " on the table" * MAX_TREE_DEPTH
    assert phrase_to_graph(chain, lexicon).depth == MAX_TREE_DEPTH
    # the leaf's two colors would be refused first if the leaf were built first
    with pytest.raises(PhraseError) as exc:
        phrase_to_graph(chain + " near the red blue lamp", lexicon)
    assert str(exc.value) == f"graph nests more than {MAX_TREE_DEPTH} relations"


@pytest.mark.parametrize(
    "tokens, labels, message",
    [
        (["table", "on", "cup"], ["B-av_R", "B-is-on", "B-r(g)"], "noun 'table' at token 0"),
        (["cup", "table"], ["B-r(g)", "B-av_R"], "noun 'table' at token 1"),
        (["red", "table", "cup"], ["B-color", "B-av_R", "B-r(g)"], "noun 'table' at token 1"),
    ],
)
def test_parse_refuses_a_noun_the_root_does_not_reach(tokens, labels, message):
    with pytest.raises(PhraseError) as exc:
        parse_tags(tokens, labels)
    assert str(exc.value) == f"{message} is not reached from the referred object"


# -- parser against the node-building parser ------------------------------------


class _Node:
    __slots__ = ("root", "selfs", "rels")

    def __init__(self, root):
        self.root = root
        self.selfs = []
        self.rels = []

    def build(self):
        return ObjectGraph(self.root, self.selfs, [(kind, child.build()) for kind, child in self.rels])


def reference_parse_tags(tokens, labels):
    """The parser before the noun table: a mutable node per noun, linear
    neighbour scans and an unbounded recursive build. A landmark bound by
    two relations is one node shared by both edges, and a noun that no
    relation links to the root is dropped."""
    if len(tokens) != len(labels):
        raise PhraseError(f"{len(tokens)} tokens vs {len(labels)} labels")
    if not bio_valid(labels):
        raise PhraseError("label sequence violates the BIO scheme")
    spans = []
    for i, (token, label) in enumerate(zip(tokens, labels)):
        if label[0] == "B":
            spans.append([label[2:], token.lower(), i])
        elif label[0] == "I":
            spans[-1][1] += " " + token.lower()
    roots = [s for s in spans if s[0] == ROOT_SYMBOL]
    if len(roots) != 1:
        raise PhraseError(f"expected exactly one referred-object span, found {len(roots)}")
    nouns = [(start, _Node(text)) for symbol, text, start in spans if symbol in (ROOT_SYMBOL, LANDMARK_SYMBOL)]
    root_node = next(node for (start, node) in nouns if start == roots[0][2])

    def following_noun(position):
        return next((node for start, node in nouns if start > position), None)

    def preceding_noun(position):
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
                raise PhraseError(f"relation {symbol!r} at token {start} has no noun to bind")
            owner.rels.append((symbol, child))
        else:
            target = following_noun(start)
            if target is None:
                raise PhraseError(f"attribute {text!r} at token {start} has no following noun")
            target.selfs.append((symbol, text))
    try:
        return root_node.build()
    except GraphStructureError as exc:
        raise PhraseError(str(exc)) from exc


def parse_outcome(parser, tokens, labels):
    try:
        return parser(tokens, labels)
    except PhraseError as exc:
        return (type(exc).__name__, str(exc))


def binds_a_noun_twice(labels):
    """Two relation spans with no noun span between them and a noun after."""
    relations = 0
    for label in labels:
        if label in (f"B-{ROOT_SYMBOL}", f"B-{LANDMARK_SYMBOL}"):
            if relations > 1:
                return True
            relations = 0
        elif label.startswith("B-is-"):
            relations += 1
    return False


def assert_parsers_agree(tokens, labels):
    """The same graph or the same error, except that a noun bound twice is
    refused where the node-building parser shared it, and a noun the root
    does not reach is refused where the node-building parser dropped it."""
    outcome = parse_outcome(parse_tags, tokens, labels)
    reference = parse_outcome(reference_parse_tags, tokens, labels)
    if outcome != reference:
        assert outcome[0] == "PhraseError"
        if outcome[1].endswith(" is bound by two relations"):
            assert binds_a_noun_twice(labels)
        else:
            assert isinstance(reference, ObjectGraph)
            assert outcome[1].endswith(" is not reached from the referred object")


@pytest.mark.parametrize("seed", [0, 7, 11])
def test_parse_matches_the_node_parser_on_parser_corpus(seed):
    for case in build_parser_corpus(600, seed):
        tokens = tokenize(case.text)
        assert parse_tags(tokens, case.labels) == reference_parse_tags(tokens, case.labels) == case.graph


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_parse_matches_the_node_parser_on_token_sequences(data):
    lexicon = data.draw(st.sampled_from([default_lexicon(), AMBIGUOUS_LEXICON]))
    pieces = data.draw(st.lists(st.sampled_from(lexicon_pieces(lexicon)), min_size=1, max_size=12))
    tokens = tokenize(" ".join(pieces))
    try:
        labels = tag(tokens, lexicon)
    except PhraseError:
        return  # nothing to parse
    assert_parsers_agree(tokens, labels)


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
    g = ObjectGraph("cup", [("material", "plastic")])
    assert realize(g) == "a plastic cup"


def test_realize_preorder_with_landmark():
    g = ObjectGraph(
        "cup",
        [("color", "red")],
        [("is-on", ObjectGraph("table", [("color", "white")]))],
    )
    assert realize(g) == "a red cup on top of a white table"


def test_realize_bare():
    assert realize(ObjectGraph("cup")) == "a cup"


def test_realize_article_an():
    g = ObjectGraph("cup", [("color", "orange")])
    assert realize(g) == "an orange cup"
    assert realize(ObjectGraph("armchair")) == "an armchair"


def test_realize_self_attrs_left_of_relational():
    g = ObjectGraph(
        "lamp", [("color", "white")], [("is-at", ObjectGraph("desk"))]
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


BIO_ERROR = "label sequence violates the BIO scheme"


def raises_bio_error(labels):
    try:
        parse_tags([f"w{i}" for i in range(len(labels))], labels)
    except PhraseError as exc:
        return str(exc) == BIO_ERROR
    return False


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_parse_tags_refuses_exactly_what_bio_valid_refuses(data):
    """Runs of O and spans of two or three symbols, then at times one label
    replaced: an I- label that may come first, after O or after another
    symbol's span, or a malformed label."""
    symbols = data.draw(st.sampled_from([(ROOT_SYMBOL, "color"), (ROOT_SYMBOL, "color", "is-on")]))
    runs = data.draw(st.lists(st.tuples(st.sampled_from(["O", *symbols]), st.integers(1, 3)), max_size=5))
    labels = [lab for symbol, n in runs for lab in (["O"] * n if symbol == "O" else bio_span(symbol, n))]
    if labels and data.draw(st.booleans()):
        replacement = st.sampled_from(["O", *(f"I-{s}" for s in symbols), "B-", "I-", "X-color", ""])
        labels[data.draw(st.integers(0, len(labels) - 1))] = data.draw(replacement)
    assert raises_bio_error(labels) == (not bio_valid(labels))
