"""Brute-force reference implementations used as test oracles and eval labels.

Everything here is deliberately independent of the pipeline code paths it
checks: attribute paths are enumerated by direct tree walking and grounding
states by literal subset tests. The counting oracle (single-linkage
clustering of ground-truth centroids) lives with the aggregation tests.
"""

from __future__ import annotations

from typing import Sequence

from .discriminator import DialogueState
from .graph import ObjectGraph


def oracle_paths(g: ObjectGraph) -> set[tuple[tuple[str, str], ...]]:
    """Enumerate every root-to-node edge sequence by explicit recursion."""
    found: set[tuple[tuple[str, str], ...]] = set()

    def walk(node: ObjectGraph, prefix: tuple[tuple[str, str], ...]):
        for kind, value in node.self_attrs:
            found.add(prefix + ((kind, value.lower()),))
        for kind, child in node.rel_attrs:
            step = prefix + ((kind, child.root.lower()),)
            found.add(step)
            walk(child, step)

    walk(g, ())
    return found


def oracle_classify(
    g: ObjectGraph, instance_graphs: Sequence[ObjectGraph]
) -> tuple[DialogueState, list[int]]:
    """Grounding state plus candidate indices, by direct subset reasoning.

    An instance satisfies the request iff every requested attribute path
    occurs among its own paths.
    """
    if not instance_graphs:
        return DialogueState.INFORM_MISSING, []
    wanted = oracle_paths(g)
    exact = [i for i, ig in enumerate(instance_graphs) if wanted <= oracle_paths(ig)]
    if len(exact) == 1:
        return DialogueState.CONFIRM, exact
    if len(exact) >= 2:
        return DialogueState.INFORM_AMBIGUITY, exact
    if len(instance_graphs) == 1:
        return DialogueState.INFORM_MISMATCH, [0]
    return DialogueState.INFORM_AMBIGUITY, list(range(len(instance_graphs)))
