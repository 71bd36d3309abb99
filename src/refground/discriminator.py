"""Grounding outcome classification and disambiguation query generation.

Given the input graph parsed from the instruction and the unique instance
records produced by aggregation, classify the situation into one of four
dialogue states and fill the matching question template:

    confirm           [random acknowledgement phrase]
    inform-mismatch   I found one [description] [random mismatch-suffix]
    inform-ambiguity  I found one [description]+ [, and]+ [random wh-suffix]
    inform-missing    I could not find that.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

from .aggregation import InstanceRecord
from .config import PipelineConfig
from .graph import ObjectGraph, graph_difference, to_dict
from .language import realize

MISSING_QUERY = "I could not find that."


class DialogueState(Enum):
    CONFIRM = "confirm"
    INFORM_MISMATCH = "inform-mismatch"
    INFORM_AMBIGUITY = "inform-ambiguity"
    INFORM_MISSING = "inform-missing"


@dataclass(frozen=True)
class GroundingOutcome:
    """A dialogue state and the instances it names, each with the requested
    attribute paths it lacks. A confirm names its match as its one
    candidate, with an empty difference; `matched` is that instance, else
    None."""

    state: DialogueState
    candidates: tuple[tuple[InstanceRecord, frozenset[tuple[tuple[str, str], ...]]], ...]
    query: str = ""
    matched: InstanceRecord | None = field(init=False)

    def __post_init__(self):
        confirm = self.state is DialogueState.CONFIRM
        if confirm and (len(self.candidates) != 1 or self.candidates[0][1]):
            raise ValueError("confirm outcome names one candidate with an empty difference")
        if self.state is DialogueState.INFORM_MISSING and self.candidates:
            raise ValueError("missing outcome carries no candidates")
        object.__setattr__(self, "matched", self.candidates[0][0] if confirm else None)

    def with_query(self, query: str) -> "GroundingOutcome":
        return GroundingOutcome(self.state, self.candidates, query)


def classify(g: ObjectGraph, instances: list[InstanceRecord]) -> GroundingOutcome:
    """Decide the dialogue state from the per-instance difference sets.

    The difference of the input graph against each instance graph lists the
    requested attributes that instance lacks; an instance of another root
    class raises GraphStructureError. Exactly one empty difference grounds
    the instruction (confirm); several empty differences are ambiguous
    among the exact matches; no empty difference means mismatch when a
    single instance exists and ambiguity otherwise; no instance at all is
    the missing state.
    """
    diffs = [graph_difference(g, record.graph) for record in instances]
    exact = [i for i, d in enumerate(diffs) if not d]
    if not instances:
        state, indices = DialogueState.INFORM_MISSING, []
    elif len(exact) == 1:
        state, indices = DialogueState.CONFIRM, exact
    elif exact:
        state, indices = DialogueState.INFORM_AMBIGUITY, exact
    elif len(instances) == 1:
        state, indices = DialogueState.INFORM_MISMATCH, [0]
    else:
        state, indices = DialogueState.INFORM_AMBIGUITY, range(len(instances))
    return GroundingOutcome(state, tuple((instances[i], diffs[i]) for i in indices))


def _strip_article(text: str) -> str:
    first, _, rest = text.partition(" ")
    return rest if first in ("a", "an") and rest else text


def _descriptions(candidates) -> list[str]:
    """Realize each candidate minus its leading article (the templates supply
    the determiner "one"); identical texts get a centroid location hint."""
    texts = [_strip_article(realize(record.graph)) for record, _ in candidates]
    dupes = {t for t in texts if texts.count(t) > 1}
    out = []
    for (record, _), text in zip(candidates, texts):
        if text in dupes:
            x, y = record.centroid
            text = f"{text} (near {x:.1f}, {y:.1f} meters)"
        out.append(text)
    return out


def generate_query(outcome: GroundingOutcome, rng_seed: int, config: PipelineConfig) -> str:
    """Fill the state's question template from the config's phrase lists;
    deterministic under the seed."""
    rng = random.Random(rng_seed)
    if outcome.state is DialogueState.INFORM_MISSING:
        return MISSING_QUERY
    if outcome.state is DialogueState.CONFIRM:
        return config.acknowledgements[rng.randrange(len(config.acknowledgements))]
    if outcome.state is DialogueState.INFORM_MISMATCH:
        suffix = config.mismatch_suffixes[rng.randrange(len(config.mismatch_suffixes))]
        desc = _descriptions(outcome.candidates)[0]
        return f"I found one {desc} {suffix}"
    suffix = config.wh_suffixes[rng.randrange(len(config.wh_suffixes))]
    listed = ", and ".join(f"one {d}" for d in _descriptions(outcome.candidates))
    return f"I found {listed}. {suffix}"


# -- outcome records ---------------------------------------------------------


def _record_dict(record: InstanceRecord) -> dict:
    return {
        "graph": to_dict(record.graph),
        "centroid": [record.centroid[0], record.centroid[1]],
        "score": record.score,
        "alternates": [to_dict(g) for g, _ in record.contributors[1:]],
    }


def outcome_to_dict(outcome: GroundingOutcome) -> dict:
    """The outcome record; a confirm writes its one candidate as "matched"."""
    return {
        "state": outcome.state.value,
        "query": outcome.query,
        "matched": _record_dict(outcome.matched) if outcome.matched else None,
        "candidates": [] if outcome.matched else [
            {
                **_record_dict(record),
                "difference": sorted([list(step) for step in p] for p in diff),
            }
            for record, diff in outcome.candidates
        ],
    }


def write_outcome(outcome: GroundingOutcome, path: str | Path) -> None:
    Path(path).write_text(json.dumps(outcome_to_dict(outcome), sort_keys=True) + "\n", "utf-8")
