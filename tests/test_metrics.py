import math

import pytest

from refground.metrics import (
    binary_f1,
    corpus_bleu,
    counting_f1,
    f1_from_counts,
    ngram_precisions,
    weighted_label_f1,
)


def toks(text):
    return text.split()


def test_bleu_identity():
    assert corpus_bleu([(toks("i found one red cup"), toks("i found one red cup"))]) == 1.0


def test_bleu_disjoint_vocabulary():
    assert corpus_bleu([(toks("alpha beta gamma delta"), toks("one two three four"))]) == 0.0


def test_bleu_clipping_hand_case():
    # candidate "the the the" vs reference "the cat": clipped unigram 1/3
    precisions = ngram_precisions(toks("the the the"), toks("the cat"), 4)
    assert precisions[0] == (1, 3)
    assert corpus_bleu([(toks("the the the"), toks("the cat"))], max_n=1) == pytest.approx(1 / 3)
    # with higher orders the zero bigram precision zeroes the strict score
    assert corpus_bleu([(toks("the the the"), toks("the cat"))], max_n=4) == 0.0


def test_bleu_brevity_penalty():
    candidate = toks("a red cup")
    reference = toks("a red cup on the table")
    p1 = 3 / 3
    p2 = 2 / 2
    bp = math.exp(1 - len(reference) / len(candidate))
    assert corpus_bleu([(candidate, reference)], max_n=2) == pytest.approx(bp * math.sqrt(p1 * p2))


def test_bleu_empty_candidate_is_zero():
    assert corpus_bleu([([], toks("a cup"))]) == 0.0


def test_bleu_empty_reference_rejected():
    with pytest.raises(ValueError):
        corpus_bleu([(toks("a cup"), [])])


def test_corpus_bleu_aggregates_counts():
    pairs = [
        (toks("a red cup"), toks("a red cup")),
        (toks("a blue bowl"), toks("a green bowl")),
    ]
    # corpus counts: unigram 3+2 of 6, bigram 2+0 of 4, trigram 1+0 of 2
    expected = (5 / 6 * 2 / 4 * 1 / 2) ** (1 / 3)
    assert corpus_bleu(pairs, max_n=3) == pytest.approx(expected)


def test_corpus_bleu_short_sentences_skip_missing_orders():
    pairs = [(toks("cup"), toks("cup"))]
    assert corpus_bleu(pairs, max_n=4) == 1.0


def test_f1_from_counts():
    assert f1_from_counts(0, 0, 0) == 0.0
    assert f1_from_counts(5, 0, 0) == 1.0
    assert f1_from_counts(1, 1, 1) == pytest.approx(0.5)


def test_counting_f1_hand_cases():
    assert counting_f1([(2, 2), (1, 1)]) == 1.0
    # one overshoot: TP 2, FP 1
    assert counting_f1([(2, 3)]) == pytest.approx(4 / 5)
    # one undershoot: TP 1, FN 1
    assert counting_f1([(2, 1)]) == pytest.approx(2 / 3)
    assert counting_f1([(1, 0)]) == 0.0


def test_binary_f1():
    pairs = [(True, True), (True, False), (False, True), (False, False)]
    assert binary_f1(pairs) == pytest.approx(0.5)
    assert binary_f1([(True, True)] * 4) == 1.0


def test_weighted_label_f1_hand_case():
    gold = [["O", "B-color", "B-r(g)"]]
    pred = [["O", "B-color", "O"]]
    weighted, per_label = weighted_label_f1(gold, pred)
    assert per_label["O"] == pytest.approx(2 / 3)  # tp=1, fp=1, fn=0
    assert per_label["B-color"] == 1.0
    assert per_label["B-r(g)"] == 0.0
    assert weighted == pytest.approx((2 / 3 + 1.0 + 0.0) / 3)


def test_weighted_label_f1_requires_alignment():
    with pytest.raises(ValueError):
        weighted_label_f1([["O"]], [["O", "O"]])
