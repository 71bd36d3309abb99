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
from .language import parse_tags, tag, tokenize
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
from .simulator import INSTRUCTION_VERBS, PALETTE, GenerationError, generate_room, instruction, retry_room

COUNTING_TARGETS = ("cup", "book", "lamp", "bowl", "laptop", "chair", "plant", "armchair")
DIALOGUE_MULTI = ("cup", "book", "lamp", "bowl", "chair")


# -- parser corpus ------------------------------------------------------------


@dataclass(frozen=True)
class CorpusCase:
    text: str
    graph: ObjectGraph
    labels: tuple[str, ...]
    re_type: str


def build_parser_corpus(n: int, seed: int) -> list[CorpusCase]:
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
        gold_seqs.append(list(case.labels))
        tokens = tokenize(case.text)
        labels = tag(tokens, lexicon)
        pred_seqs.append(labels)
        if parse_tags(tokens, labels) == case.graph:
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
    try:
        return retry_room(seed, lambda s: generate_room(s, _room_recipe(target, count, s, _STREAMS[kind]), config))
    except GenerationError as exc:
        raise GenerationError(f"{kind} room {target} x{count} (seed {seed}): {exc}") from None


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
    rooms_per_count: int,
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
    out_dir: str | Path, config: PipelineConfig, n_rooms: int
) -> Path:
    """Rooms with one multi-copy class plus distractors, for end-to-end eval."""
    rooms = [
        (config.seed * 100000 + 50000 + i, DIALOGUE_MULTI[i % len(DIALOGUE_MULTI)], 2 + i % 2, {})
        for i in range(n_rooms)
    ]
    return _write_dataset(out_dir, config, "dialogue", rooms)


def load_manifest(dataset_dir: str | Path) -> list[dict]:
    """The manifest's entries; an episode dir listed twice is refused with both lines."""
    return read_json_lines(Path(dataset_dir) / "manifest.jsonl", _manifest_entry, dict, unique="dir")


def _manifest_entry(record) -> dict:
    if not isinstance(record, dict) or not isinstance(record.get("dir"), str):
        raise ValueError('manifest entry must be an object with a "dir" string')
    if not isinstance(record.get("kind", ""), str):
        raise ValueError('manifest entry "kind" must be a string')
    if record.get("kind") == "counting" and not (
        isinstance(record.get("target"), str) and type(record.get("count")) is int and record["count"] >= 1
    ):
        raise ValueError('counting manifest entry must have a "target" string and an integer "count" of at least 1')
    return record


# -- evaluation ---------------------------------------------------------------


@dataclass
class CountingResult:
    """Per-episode counting records; the metrics are derived from them once."""

    records: list[dict]
    per_count: dict[int, float] = field(init=False)
    average: float = field(init=False)

    def __post_init__(self):
        buckets: dict[int, list[tuple[int, int]]] = {}
        for r in self.records:
            buckets.setdefault(r["true"], []).append((r["true"], r["predicted"]))
        self.per_count = {count: counting_f1(cases) for count, cases in sorted(buckets.items())}
        self.average = sum(self.per_count.values()) / len(self.per_count)


def _episode_sessions(
    dataset_dir: str | Path,
    config: PipelineConfig,
    noise_preset: str,
    manifest: list[dict] | None,
    kind: str,
    lexicon: Lexicon,
):
    """Yield (entry, episode dir, session) for each `kind` episode of the
    dataset; the manifest is read unless given, and one bank serves all.
    A counting episode's session holds its target's detections only."""
    dataset_dir = Path(dataset_dir)
    entries = load_manifest(dataset_dir) if manifest is None else manifest
    selected = [m for m in entries if m.get("kind") == kind]
    if not selected:
        raise DatasetError(f"{dataset_dir}: no {kind} episodes in manifest")
    bank = build_observation_bank(config) if needs_bank(config, noise_preset) else ()
    for entry in selected:
        episode_dir = dataset_dir / entry["dir"]
        root = entry["target"] if kind == "counting" else None
        yield entry, episode_dir, session_for_episode(
            episode_dir, config, noise_preset, lexicon, bank=bank, root=root
        )


def eval_counting(
    dataset_dir: str | Path,
    config: PipelineConfig,
    noise_preset: str,
    manifest: list[dict] | None = None,
    lexicon: Lexicon | None = None,
) -> CountingResult:
    lexicon = config.lexicon() if lexicon is None else lexicon
    records = []
    sessions = _episode_sessions(dataset_dir, config, noise_preset, manifest, "counting", lexicon)
    for entry, _, session in sessions:
        fused = session.fuse_across_graphs(entry["target"], config.region_dx, config.region_dy, config.gamma)
        records.append(
            {"episode": entry["dir"], "target": entry["target"], "true": entry["count"], "predicted": len(fused)}
        )
    return CountingResult(records)


def _candidate_signature(outcome: GroundingOutcome) -> tuple:
    graphs = sorted(serialize(record.graph) for record, _ in outcome.candidates)
    return (outcome.state.value, tuple(graphs))


@dataclass
class DialogueResult:
    """Per-instruction dialogue records; the metrics are derived from them once."""

    records: list[dict]
    aa_f1: float = field(init=False)
    state_accuracy: float = field(init=False)
    qa: float = field(init=False)
    bleu: float = field(init=False)
    n_pairs: int = field(init=False)
    confusion: dict[str, dict[str, int]] = field(init=False)

    def __post_init__(self):
        records = self.records
        self.n_pairs = len(records)
        state_hits = sum(r["predicted_state"] == r["oracle_state"] for r in records)
        qa_hits = sum(r["qa_match"] for r in records)
        self.state_accuracy = state_hits / self.n_pairs if records else 0.0
        self.qa = qa_hits / self.n_pairs if records else 0.0
        ambiguity = DialogueState.INFORM_AMBIGUITY.value
        self.aa_f1 = binary_f1(
            (r["predicted_state"] == ambiguity, r["oracle_state"] == ambiguity) for r in records
        )
        self.bleu = corpus_bleu(
            (tokenize(r["predicted_query"]), tokenize(r["reference_query"])) for r in records
        )
        self.confusion = {}
        for r in records:
            row = self.confusion.setdefault(r["oracle_state"], {})
            row[r["predicted_state"]] = row.get(r["predicted_state"], 0) + 1


def eval_dialogue(
    dataset_dir: str | Path,
    config: PipelineConfig,
    noise_preset: str,
    manifest: list[dict],
    lexicon: Lexicon,
) -> DialogueResult:
    records = []
    for entry, episode_dir, session in _episode_sessions(
        dataset_dir, config, noise_preset, manifest, "dialogue", lexicon
    ):
        room = load_room(episode_dir)
        for case in load_instructions(episode_dir):
            seed = query_seed_for(config.seed, f"{entry['dir']}:{case.text}")
            predicted, g = ground_in_session(session, case.text, config, lexicon, seed)
            reference = oracle_outcome(room, g, config, seed)
            records.append(
                {
                    "episode": entry["dir"],
                    "text": case.text,
                    "predicted_state": predicted.state.value,
                    "oracle_state": reference.state.value,
                    "qa_match": _candidate_signature(predicted) == _candidate_signature(reference),
                    "predicted_query": predicted.query,
                    "reference_query": reference.query,
                }
            )
    return DialogueResult(records)


# -- report -------------------------------------------------------------------


@dataclass
class EvalReport:
    config_echo: dict
    noise_preset: str
    counting: CountingResult | None
    dialogue: DialogueResult | None

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
    dataset_dir: str | Path, config: PipelineConfig, noise_preset: str
) -> EvalReport:
    manifest = load_manifest(dataset_dir)
    kinds = {m.get("kind") for m in manifest}
    if not kinds & {"counting", "dialogue"}:
        raise DatasetError(f"{dataset_dir}: no counting or dialogue episodes in manifest")
    lexicon = config.lexicon()
    counting = dialogue = None
    if "counting" in kinds:
        counting = eval_counting(dataset_dir, config, noise_preset, manifest, lexicon)
    if "dialogue" in kinds:
        dialogue = eval_dialogue(dataset_dir, config, noise_preset, manifest, lexicon)
    return EvalReport(config.to_dict(), noise_preset, counting, dialogue)


def write_report(report: EvalReport, out_path: str | Path) -> None:
    out_path = Path(out_path)
    out_path.write_text(
        json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n", encoding="utf-8"
    )
    out_path.with_suffix(".txt").write_text(report.render_table() + "\n", encoding="utf-8")
