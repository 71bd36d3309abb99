"""Time two refground source trees against each other in one interpreter.

    python tools/ab.py A_SRC B_SRC [--rounds R] [--rooms N] [--seed S]

Both trees are imported into this process, each under its own copy of the
`refground` modules, so they share one machine state and one set of inputs.
A simulates a dialogue dataset of N rooms and dumps every episode's session
under the presets `none` and `cs+sd+fn`; each tree then loads those dumps
with its own `AggregationSession.load`. Probes, each timed per op:

- `cold fusion`: `fuse_across_graphs` for every instruction root of a freshly
  loaded session, the root's first fusion there;
- `warm grounding`: `ground_in_session` for every instruction, on a session
  that has already fused each root once.

Before timing, both trees ground every instruction and must give the same
outcomes and the same fused records, float bits included. Each round then
times every probe on both trees, alternating which tree runs first, and the
tool prints each probe's minimum and median over the rounds and the rounds
in which B was faster. A probe reads "gain" when B was faster in at least 9
rounds of 10 and its median beats A's by more than the interquartile range
of A's rounds (the rule for the benchmark's run pairs); "loss" is the same
rule the other way round.

Example, a change against its parent commit:

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python tools/ab.py /tmp/parent/src src --rounds 15
"""

from __future__ import annotations

import argparse
import gc
import importlib
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

PRESETS = ("none", "cs+sd+fn")
MODULES = ("aggregation", "config", "discriminator", "episodes", "evaluation", "graph", "language", "pipeline")


def load_tree(src: Path) -> SimpleNamespace:
    """The refground modules of one source tree, imported afresh; the
    refground modules imported before, if any, are left in sys.modules."""

    def take():
        return {m: sys.modules.pop(m) for m in list(sys.modules) if m == "refground" or m.startswith("refground.")}

    before = take()
    sys.path.insert(0, str(src))
    try:
        tree = SimpleNamespace(**{m: importlib.import_module(f"refground.{m}") for m in MODULES})
    finally:
        sys.path.remove(str(src))
        take()
        sys.modules.update(before)
    where = Path(tree.pipeline.__file__).resolve()
    if not where.is_relative_to(src.resolve()):
        raise SystemExit(f"error: refground was imported from {where}, not from {src}")
    return tree


def make_sessions(tree: SimpleNamespace, work: Path, rooms: int, seed: int) -> list[tuple[Path, str, list]]:
    """(session dump, episode name, instructions) for every episode and preset."""
    config = tree.config.PipelineConfig(seed=seed)
    lexicon = config.lexicon()
    data = tree.evaluation.simulate_dialogue_dataset(work / "data", config, n_rooms=rooms)
    dumps = []
    for entry in tree.evaluation.load_manifest(data):
        episode = data / entry["dir"]
        texts = [case.text for case in tree.episodes.load_instructions(episode)]
        for preset in PRESETS:
            path = work / f"{entry['dir']}.{preset}.json"
            tree.pipeline.session_for_episode(episode, config, preset, lexicon).dump(path)
            dumps.append((path, entry["dir"], texts))
    return dumps


class Side:
    """One tree's probes over the shared session dumps."""

    def __init__(self, tree: SimpleNamespace, dumps, seed: int):
        self.tree = tree
        self.config = tree.config.PipelineConfig(seed=seed)
        self.lexicon = self.config.lexicon()
        # (dump, [(instruction, query seed, root)]), skipping instructions that do not parse
        self.cases = []
        for path, name, texts in dumps:
            rows = []
            for text in texts:
                try:
                    root = tree.pipeline.phrase_to_graph(text, self.lexicon).root
                except tree.language.PhraseError:
                    continue
                rows.append((text, tree.pipeline.query_seed_for(seed, f"{name}:{text}"), root))
            self.cases.append((path, rows))

    def load(self):
        return [self.tree.aggregation.AggregationSession.load(path) for path, _ in self.cases]

    def results(self) -> list[str]:
        """Every outcome and every fused record, as text that keeps each float's bits."""
        c = self.config
        out = []
        for session, (_, rows) in zip(self.load(), self.cases):
            for text, qseed, root in rows:
                outcome, _ = self.tree.pipeline.ground_in_session(session, text, c, self.lexicon, qseed)
                out.append(repr(self.tree.discriminator.outcome_to_dict(outcome)))
                for r in session.fuse_across_graphs(root, c.region_dx, c.region_dy, c.gamma):
                    contributors = [(self.tree.graph.serialize(g), w.hex()) for g, w in r.contributors]
                    out.append(repr((sorted(r.regions), [v.hex() for v in r.centroid], r.score.hex(), contributors)))
        return out

    def cold_fusion(self) -> tuple[float, int]:
        c = self.config
        sessions = self.load()
        calls = [
            (session.fuse_across_graphs, root)
            for session, (_, rows) in zip(sessions, self.cases)
            for root in dict.fromkeys(root for _, _, root in rows)
        ]
        start = time.perf_counter()
        for fuse, root in calls:
            fuse(root, c.region_dx, c.region_dy, c.gamma)
        return time.perf_counter() - start, len(calls)

    def warm_grounding(self) -> tuple[float, int]:
        c, ground = self.config, self.tree.pipeline.ground_in_session
        calls = []
        for session, (_, rows) in zip(self.load(), self.cases):
            for text, qseed, root in rows:
                session.fuse_across_graphs(root, c.region_dx, c.region_dy, c.gamma)
                calls.append((session, text, qseed))
        start = time.perf_counter()
        for session, text, qseed in calls:
            ground(session, text, c, self.lexicon, qseed)
        return time.perf_counter() - start, len(calls)


PROBES = {"cold fusion": Side.cold_fusion, "warm grounding": Side.warm_grounding}


def timed(side: Side, probe) -> tuple[float, int]:
    gc.collect()
    gc.disable()
    try:
        return probe(side)
    finally:
        gc.enable()


def verdict(a: list[float], b: list[float]) -> str:
    """'gain', 'loss' or 'no gain' for B against A, from per-round times (lower is better)."""
    q1, _, q3 = statistics.quantiles(a, n=4)
    gap = statistics.median(a) - statistics.median(b)
    faster = sum(y < x for x, y in zip(a, b))
    if 10 * faster >= 9 * len(a) and gap > q3 - q1:
        return "gain"
    if 10 * (len(a) - faster) >= 9 * len(a) and -gap > q3 - q1:
        return "loss"
    return "no gain"


def compare(a_src: Path, b_src: Path, rounds: int, rooms: int, seed: int) -> tuple[int, dict[str, dict]]:
    """The number of identical results, and per probe: ops, each side's per-op
    times in µs per round, B's wins and the verdict."""
    if rounds < 2:
        raise SystemExit("error: --rounds must be at least 2")
    trees = load_tree(a_src), load_tree(b_src)
    with tempfile.TemporaryDirectory() as work:
        dumps = make_sessions(trees[0], Path(work), rooms, seed)
        sides = [Side(tree, dumps, seed) for tree in trees]
        a_results, b_results = (side.results() for side in sides)
        if a_results != b_results:
            same = sum(x == y for x, y in zip(a_results, b_results))
            raise SystemExit(f"error: the trees disagree: {same} of {len(a_results)} results identical")
        times = {name: ([], []) for name in PROBES}
        ops = {}
        for r in range(rounds):
            order = (0, 1) if r % 2 == 0 else (1, 0)
            for name, probe in PROBES.items():
                for i in order:
                    seconds, ops[name] = timed(sides[i], probe)
                    times[name][i].append(1e6 * seconds / max(ops[name], 1))
    return len(a_results), {
        name: {"ops": ops[name], "a": a, "b": b, "wins": sum(y < x for x, y in zip(a, b)), "verdict": verdict(a, b)}
        for name, (a, b) in times.items()
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a", type=Path, help="the reference src/ tree")
    p.add_argument("b", type=Path, help="the src/ tree under test")
    p.add_argument("--rounds", type=int, default=15)
    p.add_argument("--rooms", type=int, default=24)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    results, table = compare(args.a, args.b, args.rounds, args.rooms, args.seed)
    print(f"{results} results identical; {args.rounds} rounds, per-op µs")
    print(f"{'probe':<16}{'ops':>6}{'A min':>10}{'A median':>10}{'B min':>10}{'B median':>10}  B faster  verdict")
    for name, row in table.items():
        a, b = row["a"], row["b"]
        print(
            f"{name:<16}{row['ops']:>6}{min(a):>10.2f}{statistics.median(a):>10.2f}"
            f"{min(b):>10.2f}{statistics.median(b):>10.2f}  {row['wins']:>3}/{len(a):<4}  {row['verdict']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
