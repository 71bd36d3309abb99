import itertools
import random

import pytest

from refground.aggregation import InstanceRecord
from refground.discriminator import (
    DialogueState,
    GroundingOutcome,
    MISSING_QUERY,
    classify,
    generate_query,
    outcome_to_dict,
)
from refground.config import PipelineConfig
from refground.graph import GraphStructureError, ObjectGraph
from refground.language import realize
from refground.oracle import oracle_classify


def record(graph, centroid=(0.0, 0.0), score=1.0):
    return InstanceRecord(frozenset(), centroid, score, ((graph, 1.0),))


def g_cup(*self_attrs, rel=None):
    rels = [rel] if rel else []
    return ObjectGraph.build("cup", list(self_attrs), rels)


ON_TABLE = ("is-on", ObjectGraph.build("table"))
TEMPLATES = PipelineConfig()
ON_DINING = ("is-on", ObjectGraph.build("dining table"))


# -- classify -------------------------------------------------------------------


def test_confirm_on_unique_satisfying_instance():
    g = g_cup(("material", "plastic"))
    inst = record(g_cup(("material", "plastic"), rel=ON_TABLE))
    outcome = classify(g, [inst])
    assert outcome.state is DialogueState.CONFIRM
    assert outcome.matched is inst


def test_mismatch_single_nonmatching_instance():
    g = g_cup(("color", "red"), rel=ON_DINING)
    inst = record(g_cup(("color", "black"), rel=ON_DINING))
    outcome = classify(g, [inst])
    assert outcome.state is DialogueState.INFORM_MISMATCH
    ((_, diff),) = outcome.candidates
    assert diff == {(("color", "red"),)}


def test_ambiguity_over_multiple_matches():
    g = g_cup()
    outcome = classify(g, [record(g_cup(("color", "red"))), record(g_cup(("color", "black")))])
    assert outcome.state is DialogueState.INFORM_AMBIGUITY
    assert len(outcome.candidates) == 2


def test_missing_when_no_instances():
    outcome = classify(g_cup(("color", "red")), [])
    assert outcome.state is DialogueState.INFORM_MISSING
    assert outcome.candidates == ()


def test_root_mismatch_rejected():
    with pytest.raises(GraphStructureError):
        classify(g_cup(), [record(ObjectGraph.build("lamp"))])


# pinned deviations from the literal cardinality rule


def test_exact_match_beats_mismatching_extras():
    g = g_cup(("color", "red"))
    matching = record(g_cup(("color", "red")))
    other = record(g_cup(("color", "black")))
    outcome = classify(g, [other, matching])
    assert outcome.state is DialogueState.CONFIRM
    assert outcome.matched is matching


def test_two_exact_matches_are_ambiguous():
    g = g_cup(("color", "red"))
    a = record(g_cup(("color", "red"), ("material", "glass")))
    b = record(g_cup(("color", "red"), ("material", "plastic")))
    c = record(g_cup(("color", "black")))
    outcome = classify(g, [a, b, c])
    assert outcome.state is DialogueState.INFORM_AMBIGUITY
    assert [rec for rec, _ in outcome.candidates] == [a, b]


# -- state partition ---------------------------------------------------------------


def enumerate_instances():
    colors = [None, "red", "black"]
    materials = [None, "plastic"]
    rels = [None, ON_TABLE]
    graphs = []
    for c, m, r in itertools.product(colors, materials, rels):
        attrs = [("color", c)] if c else []
        attrs += [("material", m)] if m else []
        graphs.append(g_cup(*attrs, rel=r))
    return graphs


def test_classify_agrees_with_subset_oracle_small():
    graphs = enumerate_instances()
    inputs = graphs
    for g in inputs:
        for combo in itertools.combinations_with_replacement(range(len(graphs)), 2):
            instances = [record(graphs[i]) for i in combo]
            expected_state, _ = oracle_classify(g, [r.graph for r in instances])
            assert classify(g, instances).state is expected_state


def test_states_partition_is_exhaustive():
    graphs = enumerate_instances()
    for g in graphs[:6]:
        for n in range(3):
            for combo in itertools.combinations(range(len(graphs)), n):
                outcome = classify(g, [record(graphs[i]) for i in combo])
                assert outcome.state in DialogueState


# -- query generation ----------------------------------------------------------------


def test_missing_query_constant():
    outcome = classify(g_cup(), [])
    assert generate_query(outcome, 3, TEMPLATES) == MISSING_QUERY


def seed_for_index(n_options, want):
    for seed in range(200):
        if random.Random(seed).randrange(n_options) == want:
            return seed
    raise AssertionError("no seed found")


def test_ambiguity_query_template_fill():
    a = record(
        g_cup(("color", "red"), rel=("is-on", ObjectGraph.build("table", [("color", "white")]))),
        centroid=(1.0, 1.0),
    )
    b = record(g_cup(("color", "black"), rel=("is-on", ObjectGraph.build("counter"))), (3.0, 3.0))
    outcome = classify(g_cup(), [a, b])
    seed = seed_for_index(2, 0)  # wh-suffix list entry 0
    query = generate_query(outcome, seed, TEMPLATES)
    assert query == (
        "I found one red cup on top of a white table, and one black cup on top of a counter."
        " Which one did you mean?"
    )


def test_confirm_query_is_seeded_acknowledgement():
    outcome = classify(g_cup(), [record(g_cup(("color", "red")))])
    for want, phrase in enumerate(TEMPLATES.acknowledgements):
        seed = seed_for_index(len(TEMPLATES.acknowledgements), want)
        assert generate_query(outcome, seed, TEMPLATES) == phrase


def test_mismatch_query_contains_description_and_suffix():
    g = g_cup(("color", "red"))
    outcome = classify(g, [record(g_cup(("color", "black")))])
    query = generate_query(outcome, seed_for_index(2, 1), TEMPLATES)
    assert query == "I found one black cup — should I take it instead?"


def test_query_deterministic_under_seed():
    outcome = classify(g_cup(), [record(g_cup(("color", "red"))), record(g_cup(("color", "black")))])
    assert generate_query(outcome, 17, TEMPLATES) == generate_query(outcome, 17, TEMPLATES)


def test_every_candidate_appears_exactly_once():
    records = [
        record(g_cup(("color", "red"))),
        record(g_cup(("color", "black"))),
        record(g_cup(("material", "glass"))),
    ]
    outcome = classify(g_cup(), records)
    query = generate_query(outcome, 0, TEMPLATES)
    for rec in records:
        described = realize(rec.graph).split(" ", 1)[1]  # minus leading article
        assert query.count(f"one {described}") == 1


def test_identical_descriptions_get_location_hint():
    a = record(g_cup(("color", "red")), centroid=(1.25, 0.75))
    b = record(g_cup(("color", "red")), centroid=(3.5, 2.0))
    outcome = GroundingOutcome(
        DialogueState.INFORM_AMBIGUITY,
        candidates=((a, frozenset()), (b, frozenset())),
    )
    query = generate_query(outcome, 0, TEMPLATES)
    assert "(near 1.2, 0.8 meters)" in query and "(near 3.5, 2.0 meters)" in query


def test_resolve_fills_query():
    outcome = classify(g_cup(("color", "red")), [])
    outcome = outcome.with_query(generate_query(outcome, 0, TEMPLATES))
    assert outcome.state is DialogueState.INFORM_MISSING
    assert outcome.query == MISSING_QUERY


# -- outcome invariants and records -----------------------------------------------------


def test_confirm_requires_matched():
    with pytest.raises(ValueError):
        GroundingOutcome(DialogueState.CONFIRM)


def test_missing_carries_no_candidates():
    with pytest.raises(ValueError):
        GroundingOutcome(
            DialogueState.INFORM_MISSING,
            candidates=((record(g_cup()), frozenset()),),
        )


def test_outcome_record_shape():
    g = g_cup(("color", "red"))
    outcome = classify(g, [record(g_cup(("color", "black")), centroid=(2.0, 1.0))])
    outcome = outcome.with_query(generate_query(outcome, 1, TEMPLATES))
    payload = outcome_to_dict(outcome)
    assert payload["state"] == "inform-mismatch"
    assert payload["query"] == outcome.query
    (cand,) = payload["candidates"]
    assert cand["graph"]["root"] == "cup"
    assert cand["centroid"] == [2.0, 1.0]
    assert cand["difference"] == [[["color", "red"]]]
