"""Dataset construction and metric evaluation.

Reproduces the experiment protocols at desk scale: a templated parser
corpus with gold labels, counting datasets of seeded rooms per target
instance count, dialogue datasets with oracle-labeled instructions, and an
EvalReport aggregating instance-counting F1, state accuracy, query
accuracy, and corpus BLEU.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .config import PipelineConfig
from .discriminator import DialogueState, GroundingOutcome
from .episodes import (
    DatasetError,
    dump_json_line,
    load_instructions,
    load_room,
    read_json_lines,
    simulate_episode,
)
from .graph import ObjectGraph, serialize
from .language import phrase_to_graph, tag, tokenize
from .lexicon import COLORS, MATERIALS, Lexicon
from .metrics import binary_f1, corpus_bleu, counting_f1, weighted_label_f1
from .pipeline import (
    build_observation_bank,
    ground_in_session,
    needs_bank,
    oracle_outcome,
    query_seed_for,
    session_for_episode,
)
from .simulator import INSTRUCTION_VERBS, PALETTE, GenerationError, generate_room, instruction

COUNTING_TARGETS = ("cup", "book", "lamp", "bowl", "laptop", "chair", "plant", "armchair")
DIALOGUE_MULTI = ("cup", "book", "lamp", "bowl", "chair")


# -- parser corpus ------------------------------------------------------------


@dataclass(frozen=True)
class CorpusCase:
    text: str
    graph: ObjectGraph
    labels: tuple[str, ...]
    re_type: str


def build_parser_corpus(n: int, seed: int = 0) -> list[CorpusCase]:
    """Templated instructions cycling the three referring-expression types.

    Gold labels follow from the template structure, so the corpus doubles as
    a tagger benchmark with known spans.
    """
    rng = np.random.default_rng(np.random.SeedSequence([seed, 505]))
    verbs = sorted(INSTRUCTION_VERBS)
    classes = sorted(PALETTE)
    kinds = ("color", "material")
    cases: list[CorpusCase] = []

    for i in range(n):
        verb = verbs[int(rng.integers(len(verbs)))]
        cls = classes[int(rng.integers(len(classes)))]
        kind = kinds[int(rng.integers(2))]
        values = COLORS if kind == "color" else MATERIALS
        value = values[int(rng.integers(len(values)))]  # drawn for bare cases too
        re_type = ("self", "self+rel", "bare")[i % 3]
        rel = None
        if re_type == "self+rel":
            rel_kind = ("is-on", "is-near", "is-at")[int(rng.integers(3))]
            landmark = classes[int(rng.integers(len(classes)))]
            if landmark == cls:
                landmark = classes[(classes.index(cls) + 1) % len(classes)]
            rel = (rel_kind, landmark)
        attr = None if re_type == "bare" else (kind, value)
        text, labels, g = instruction(verb, cls, attr, rel)
        cases.append(CorpusCase(text, g, labels, re_type))
    return cases


def eval_parser_corpus(cases: list[CorpusCase], lexicon: Lexicon):
    """Graph match rate plus weighted tagger F1 against the gold labels."""
    matches = 0
    gold_seqs, pred_seqs = [], []
    for case in cases:
        tokens = tokenize(case.text)
        predicted = tag(tokens, lexicon)
        gold_seqs.append(list(case.labels))
        pred_seqs.append([str(lab) for lab in predicted])
        if phrase_to_graph(case.text, lexicon) == case.graph:
            matches += 1
    weighted, per_label = weighted_label_f1(gold_seqs, pred_seqs)
    return matches / len(cases), weighted, per_label


# -- dataset simulation -------------------------------------------------------


_SUPPORTERS = ("table", "desk", "counter", "dining table")
_STREAMS = {"counting": 606, "dialogue": 707}  # random stream of each kind's distractor draw


def _room_recipe(target: str, count: int, seed: int, stream: int) -> dict[str, int]:
    """The target class in `count` copies, enough supporters to hold them,
    and three distractor classes."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, stream]))
    copies: dict[str, int] = {target: count}
    needed = count if PALETTE[target].supported else 2
    for sup in _SUPPORTERS[: max(2, needed)]:
        copies[sup] = 1
    pool = [c for c in sorted(PALETTE) if c not in copies and not PALETTE[c].supporter]
    for i in rng.permutation(len(pool))[:3]:
        copies[pool[int(i)]] = 1
    return copies


def _generate_with_retries(kind: str, seed: int, target: str, count: int, config: PipelineConfig):
    last: GenerationError | None = None
    for bump in range(8):
        room_seed = seed + bump * 97
        try:
            return generate_room(room_seed, _room_recipe(target, count, room_seed, _STREAMS[kind]), config)
        except GenerationError as exc:
            last = exc
    raise GenerationError(f"{kind} room {target} x{count} (seed {seed}): {last}")


def _write_dataset(out_dir: str | Path, config: PipelineConfig, kind: str, rooms) -> Path:
    """Generate and simulate one episode per (seed, target, count, manifest fields)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = []
    for index, (seed, target, count, fields) in enumerate(rooms):
        room = _generate_with_retries(kind, seed, target, count, config)
        name = f"episode_{index:05d}"
        simulate_episode(out / name, room, config)
        manifest.append({"dir": name, "seed": seed, "kind": kind, **fields})
    (out / "manifest.jsonl").write_text(
        "\n".join(dump_json_line(m) for m in manifest) + "\n", encoding="utf-8"
    )
    return out


def simulate_counting_dataset(
    out_dir: str | Path,
    config: PipelineConfig,
    rooms_per_count: int = 5,
    counts: tuple[int, ...] = (1, 2, 3),
) -> Path:
    """Seeded rooms cycling target classes for each instance count."""
    rooms = []
    for count in counts:
        for r in range(rooms_per_count):
            target = COUNTING_TARGETS[r % len(COUNTING_TARGETS)]
            fields = {"target": target, "count": count}
            rooms.append((config.seed * 100000 + count * 1000 + r, target, count, fields))
    return _write_dataset(out_dir, config, "counting", rooms)


def simulate_dialogue_dataset(
    out_dir: str | Path, config: PipelineConfig, n_rooms: int = 12
) -> Path:
    """Rooms with one multi-copy class plus distractors, for end-to-end eval."""
    rooms = [
        (config.seed * 100000 + 50000 + i, DIALOGUE_MULTI[i % len(DIALOGUE_MULTI)], 2 + i % 2, {})
        for i in range(n_rooms)
    ]
    return _write_dataset(out_dir, config, "dialogue", rooms)


def load_manifest(dataset_dir: str | Path) -> list[dict]:
    return read_json_lines(Path(dataset_dir) / "manifest.jsonl", _manifest_entry)


def _manifest_entry(record) -> dict:
    if not isinstance(record, dict) or not isinstance(record.get("dir"), str):
        raise ValueError('manifest entry must be an object with a "dir" string')
    if not isinstance(record.get("kind", ""), str):
        raise ValueError('manifest entry "kind" must be a string')
    if record.get("kind") == "counting" and not (
        isinstance(record.get("target"), str) and type(record.get("count")) is int
    ):
        raise ValueError('counting manifest entry must have a "target" string and an integer "count"')
    return record


# -- evaluation ---------------------------------------------------------------


@dataclass
class CountingResult:
    per_count: dict[int, float] = field(default_factory=dict)
    average: float = 0.0
    records: list[dict] = field(default_factory=list)


def _episode_sessions(
    dataset_dir: str | Path,
    config: PipelineConfig,
    noise_preset: str,
    manifest: list[dict] | None,
    kind: str,
    lexicon: Lexicon,
):
    """Yield (entry, episode dir, session) for each `kind` episode of the
    dataset; the manifest is read unless given, and one bank serves all."""
    dataset_dir = Path(dataset_dir)
    entries = load_manifest(dataset_dir) if manifest is None else manifest
    selected = [m for m in entries if m.get("kind") == kind]
    if not selected:
        raise DatasetError(f"{dataset_dir}: no {kind} episodes in manifest")
    bank = build_observation_bank(config) if needs_bank(config, noise_preset) else ()
    for entry in selected:
        episode_dir = dataset_dir / entry["dir"]
        yield entry, episode_dir, session_for_episode(episode_dir, config, noise_preset, lexicon, bank=bank)


def eval_counting(
    dataset_dir: str | Path,
    config: PipelineConfig,
    noise_preset: str = "none",
    manifest: list[dict] | None = None,
) -> CountingResult:
    result = CountingResult()
    buckets: dict[int, list[tuple[int, int]]] = {}
    sessions = _episode_sessions(dataset_dir, config, noise_preset, manifest, "counting", config.lexicon())
    for entry, _, session in sessions:
        records = session.fuse_across_graphs(
            entry["target"], config.region_dx, config.region_dy, config.gamma
        )
        predicted = len(records)
        true = entry["count"]
        buckets.setdefault(true, []).append((true, predicted))
        result.records.append(
            {
                "episode": entry["dir"],
                "target": entry["target"],
                "true": true,
                "predicted": predicted,
            }
        )
    result.per_count = {count: counting_f1(cases) for count, cases in sorted(buckets.items())}
    result.average = sum(result.per_count.values()) / len(result.per_count)
    return result


def _candidate_signature(outcome: GroundingOutcome) -> tuple:
    if outcome.state is DialogueState.CONFIRM:
        assert outcome.matched is not None
        return (outcome.state.value, (serialize(outcome.matched.graph),))
    graphs = sorted(serialize(record.graph) for record, _ in outcome.candidates)
    return (outcome.state.value, tuple(graphs))


@dataclass
class DialogueResult:
    aa_f1: float = 0.0
    state_accuracy: float = 0.0
    qa: float = 0.0
    bleu: float = 0.0
    n_pairs: int = 0
    confusion: dict[str, dict[str, int]] = field(default_factory=dict)
    records: list[dict] = field(default_factory=list)


def eval_dialogue(
    dataset_dir: str | Path,
    config: PipelineConfig,
    noise_preset: str = "none",
    manifest: list[dict] | None = None,
) -> DialogueResult:
    lexicon = config.lexicon()
    result = DialogueResult()
    ambiguity_pairs: list[tuple[bool, bool]] = []
    bleu_pairs: list[tuple[list[str], list[str]]] = []
    state_hits = 0
    qa_hits = 0
    for entry, episode_dir, session in _episode_sessions(
        dataset_dir, config, noise_preset, manifest, "dialogue", lexicon
    ):
        room = load_room(episode_dir)
        for case in load_instructions(episode_dir):
            seed = query_seed_for(config.seed, f"{entry['dir']}:{case.text}")
            predicted, g = ground_in_session(session, case.text, config, lexicon, seed)
            reference = oracle_outcome(room, g, config, seed)
            state_match = predicted.state is reference.state
            qa_match = _candidate_signature(predicted) == _candidate_signature(reference)
            state_hits += int(state_match)
            qa_hits += int(qa_match)
            ambiguity_pairs.append(
                (
                    predicted.state is DialogueState.INFORM_AMBIGUITY,
                    reference.state is DialogueState.INFORM_AMBIGUITY,
                )
            )
            bleu_pairs.append(
                (
                    [t.text for t in tokenize(predicted.query)],
                    [t.text for t in tokenize(reference.query)],
                )
            )
            result.confusion.setdefault(reference.state.value, {}).setdefault(
                predicted.state.value, 0
            )
            result.confusion[reference.state.value][predicted.state.value] += 1
            result.records.append(
                {
                    "episode": entry["dir"],
                    "text": case.text,
                    "predicted_state": predicted.state.value,
                    "oracle_state": reference.state.value,
                    "qa_match": qa_match,
                    "predicted_query": predicted.query,
                    "reference_query": reference.query,
                }
            )
            result.n_pairs += 1
    if result.n_pairs:
        result.state_accuracy = state_hits / result.n_pairs
        result.qa = qa_hits / result.n_pairs
    result.aa_f1 = binary_f1(ambiguity_pairs)
    result.bleu = corpus_bleu(bleu_pairs)
    return result


# -- report -------------------------------------------------------------------


@dataclass
class EvalReport:
    config_echo: dict
    noise_preset: str
    counting: CountingResult | None = None
    dialogue: DialogueResult | None = None

    def to_dict(self) -> dict:
        out: dict = {"config": self.config_echo, "noise": self.noise_preset}
        if self.counting is not None:
            out["counting"] = {
                "per_count_f1": {str(k): v for k, v in self.counting.per_count.items()},
                "average_f1": self.counting.average,
                "records": self.counting.records,
            }
        if self.dialogue is not None:
            out["dialogue"] = {
                "aa_f1": self.dialogue.aa_f1,
                "state_accuracy": self.dialogue.state_accuracy,
                "qa": self.dialogue.qa,
                "bleu": self.dialogue.bleu,
                "n_pairs": self.dialogue.n_pairs,
                "confusion": self.dialogue.confusion,
                "records": self.dialogue.records,
            }
        return out

    def render_table(self) -> str:
        lines = [f"noise preset: {self.noise_preset}"]
        if self.counting is not None:
            lines.append("instance counting F1")
            header = "  count   " + "".join(f"{k:>8}" for k in sorted(self.counting.per_count))
            lines.append(header + "     avg")
            lines.append(
                "  F1      "
                + "".join(f"{self.counting.per_count[k]:>8.3f}" for k in sorted(self.counting.per_count))
                + f"{self.counting.average:>8.3f}"
            )
        if self.dialogue is not None:
            lines.append("dialogue metrics")
            lines.append(f"{'  AA (ambiguity F1)':<28}{self.dialogue.aa_f1:>8.3f}")
            lines.append(f"{'  state accuracy (4-way)':<28}{self.dialogue.state_accuracy:>8.3f}")
            lines.append(f"{'  QA (structural)':<28}{self.dialogue.qa:>8.3f}")
            lines.append(f"{'  BLEU':<28}{self.dialogue.bleu:>8.3f}")
            lines.append(f"{'  pairs':<28}{self.dialogue.n_pairs:>8d}")
        return "\n".join(lines)


def evaluate_dataset(
    dataset_dir: str | Path, config: PipelineConfig, noise_preset: str = "none"
) -> EvalReport:
    manifest = load_manifest(dataset_dir)
    kinds = {m.get("kind") for m in manifest}
    report = EvalReport(config_echo=config.to_dict(), noise_preset=noise_preset)
    if "counting" in kinds:
        report.counting = eval_counting(dataset_dir, config, noise_preset, manifest)
    if "dialogue" in kinds:
        report.dialogue = eval_dialogue(dataset_dir, config, noise_preset, manifest)
    return report


def write_report(report: EvalReport, out_path: str | Path) -> None:
    out_path = Path(out_path)
    out_path.write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    out_path.with_suffix(".txt").write_text(report.render_table() + "\n", encoding="utf-8")
