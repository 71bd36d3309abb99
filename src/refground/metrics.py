"""Evaluation metrics: BLEU, counting F1, binary F1, weighted tag F1."""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence


def ngram_counts(tokens: Sequence[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def ngram_precisions(
    candidate: Sequence[str], reference: Sequence[str], max_n: int
) -> list[tuple[int, int]]:
    """(clipped matches, candidate total) per n-gram order 1..max_n."""
    out = []
    for n in range(1, max_n + 1):
        cand = ngram_counts(candidate, n)
        ref = ngram_counts(reference, n)
        matches = sum(min(count, ref[gram]) for gram, count in cand.items())
        out.append((matches, sum(cand.values())))
    return out


def corpus_bleu(
    pairs: Iterable[tuple[Sequence[str], Sequence[str]]], max_n: int = 4
) -> float:
    """Corpus BLEU: geometric mean of clipped n-gram precisions times brevity
    penalty, uniform weights over orders 1..max_n.

    Orders with no candidate n-grams anywhere in the corpus are skipped
    (short-sentence corpora); any remaining zero precision zeroes the score.
    An empty candidate corpus scores 0.
    """
    matches = [0] * max_n
    totals = [0] * max_n
    cand_len = ref_len = 0
    for candidate, reference in pairs:
        if not reference:
            raise ValueError("BLEU reference must be non-empty")
        cand_len += len(candidate)
        ref_len += len(reference)
        for i, (m, t) in enumerate(ngram_precisions(candidate, reference, max_n)):
            matches[i] += m
            totals[i] += t
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    orders = 0
    for m, t in zip(matches, totals):
        if t == 0:
            continue
        if m == 0:
            return 0.0
        log_sum += math.log(m / t)
        orders += 1
    if orders == 0:
        return 0.0
    brevity = 1.0 if cand_len >= ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_sum / orders)


def f1_from_counts(tp: float, fp: float, fn: float) -> float:
    denom = 2 * tp + fp + fn
    return 2 * tp / denom if denom > 0 else 0.0


def counting_f1(cases: Iterable[tuple[int, int]]) -> float:
    """Micro F1 for instance counting over (true count, predicted count) pairs.

    Each case contributes min(true, predicted) true positives; overshoot
    counts as false positives, undershoot as false negatives.
    """
    tp = fp = fn = 0
    for true, predicted in cases:
        tp += min(true, predicted)
        fp += max(0, predicted - true)
        fn += max(0, true - predicted)
    return f1_from_counts(tp, fp, fn)


def binary_f1(pairs: Iterable[tuple[bool, bool]]) -> float:
    """F1 over (predicted, actual) boolean pairs."""
    tp = fp = fn = 0
    for predicted, actual in pairs:
        if predicted and actual:
            tp += 1
        elif predicted and not actual:
            fp += 1
        elif actual and not predicted:
            fn += 1
    return f1_from_counts(tp, fp, fn)


def weighted_label_f1(
    gold: Sequence[Sequence[str]], predicted: Sequence[Sequence[str]]
) -> tuple[float, dict[str, float]]:
    """Per-label F1 over token tag sequences, weighted by gold support."""
    tp: Counter = Counter()
    fp: Counter = Counter()
    fn: Counter = Counter()
    support: Counter = Counter()
    for gold_seq, pred_seq in zip(gold, predicted):
        if len(gold_seq) != len(pred_seq):
            raise ValueError("gold and predicted sequences must align")
        for g, p in zip(gold_seq, pred_seq):
            support[g] += 1
            if g == p:
                tp[g] += 1
            else:
                fn[g] += 1
                fp[p] += 1
    per_label = {
        label: f1_from_counts(tp[label], fp[label], fn[label]) for label in sorted(support)
    }
    total = sum(support.values())
    weighted = (
        sum(per_label[label] * support[label] for label in per_label) / total if total else 0.0
    )
    return weighted, per_label
