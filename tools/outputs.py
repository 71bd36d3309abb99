"""Write refground's fixed output set, or compare two such sets byte for byte.

    python tools/outputs.py write DIR [--src SRC]
    python tools/outputs.py diff A B

`write` imports refground from SRC (default: the `src/` beside this
tool), so one copy of the tool writes the outputs of any checkout. To
show that a change leaves every output as its parent commit wrote it:

    mkdir /tmp/parent && git archive HEAD~1 | tar -x -C /tmp/parent
    python tools/outputs.py write /tmp/out-parent --src /tmp/parent/src
    python tools/outputs.py write /tmp/out-change
    python tools/outputs.py diff /tmp/out-parent /tmp/out-change

The set, all from seeded simulation with the default config apart from
`max_range`:

- `corpus/seed_{0,7,11}.jsonl`: the parser corpus (600 cases each);
- per `max_range` in 2.4 and 10, under `range_<max_range>/`:
  - `counting/` (2 rooms per count) and `dialogue/` (4 rooms) datasets;
  - `bank.json`, the false-positive observation bank;
  - per noise preset, every key of the imported `NOISE_PRESETS`:
    - `reports/<kind>_<preset>.json` and `.txt`, the eval reports;
    - `sessions/<kind>/<episode>_<preset>.json`, every episode's session dump;
    - `outcomes/<episode>_<preset>_{fresh,loaded}.jsonl`: every
      instruction of a dialogue episode grounded in turn on the session as
      built and on its reloaded dump;
- `demos/<demo>.txt`: the stdout of each script in the `demos/` beside
  SRC, run with `PYTHONPATH=SRC`.

`diff` prints each file that differs or exists on one side only, then
"N files identical, M differ"; it exits 1 when any differ.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CORPUS_SEEDS = (0, 7, 11)
CORPUS_SIZE = 600
MAX_RANGES = (2.4, 10.0)


def write(out: Path, src: Path) -> None:
    if out.exists() and any(out.iterdir()):
        raise SystemExit(f"error: {out} is not empty")
    sys.path.insert(0, str(src))
    import refground

    if not Path(refground.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"error: refground was imported from {refground.__file__}, not from {src}")
    from refground.aggregation import AggregationSession
    from refground.config import NOISE_PRESETS, PipelineConfig
    from refground.discriminator import outcome_to_dict
    from refground.episodes import load_instructions
    from refground.evaluation import (
        build_parser_corpus,
        evaluate_dataset,
        load_manifest,
        simulate_counting_dataset,
        simulate_dialogue_dataset,
        write_report,
    )
    from refground.graph import serialize
    from refground.pipeline import (
        build_observation_bank,
        ground_in_session,
        query_seed_for,
        session_for_episode,
    )

    def write_lines(path: Path, records) -> None:
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records), "utf-8")

    (out / "corpus").mkdir(parents=True)
    for seed in CORPUS_SEEDS:
        cases = build_parser_corpus(CORPUS_SIZE, seed=seed)
        write_lines(
            out / "corpus" / f"seed_{seed}.jsonl",
            (
                {"text": c.text, "labels": c.labels, "re_type": c.re_type, "graph": serialize(c.graph)}
                for c in cases
            ),
        )

    for max_range in MAX_RANGES:
        config = PipelineConfig(max_range=max_range)
        lexicon = config.lexicon()
        base = out / f"range_{max_range:g}"
        datasets = {
            "counting": simulate_counting_dataset(base / "counting", config, rooms_per_count=2),
            "dialogue": simulate_dialogue_dataset(base / "dialogue", config, n_rooms=4),
        }
        bank = build_observation_bank(config)
        (base / "bank.json").write_text(
            json.dumps([[b.u_min, b.v_min, b.u_max, b.v_max, caption] for b, caption in bank]) + "\n",
            "utf-8",
        )
        for d in ("reports", "sessions/counting", "sessions/dialogue", "outcomes"):
            (base / d).mkdir(parents=True)
        for preset in NOISE_PRESETS:
            for kind, dataset in datasets.items():
                write_report(
                    evaluate_dataset(dataset, config, preset), base / "reports" / f"{kind}_{preset}.json"
                )
                for entry in load_manifest(dataset):
                    episode = dataset / entry["dir"]
                    session = session_for_episode(episode, config, preset, lexicon, bank=bank)
                    dump = base / "sessions" / kind / f"{entry['dir']}_{preset}.json"
                    session.dump(dump)
                    if kind != "dialogue":
                        continue
                    for side, grounded in (("fresh", session), ("loaded", AggregationSession.load(dump))):
                        outcomes = []
                        for case in load_instructions(episode):
                            seed = query_seed_for(config.seed, f"{entry['dir']}:{case.text}")
                            outcome, _ = ground_in_session(grounded, case.text, config, lexicon, seed)
                            outcomes.append(outcome_to_dict(outcome))
                        write_lines(base / "outcomes" / f"{entry['dir']}_{preset}_{side}.jsonl", outcomes)

    (out / "demos").mkdir()
    with tempfile.TemporaryDirectory() as scratch:  # the demos write their episodes under TMPDIR
        env = {**os.environ, "PYTHONPATH": str(src), "TMPDIR": scratch}
        for demo in sorted((src.parent / "demos").glob("*.py")):
            run = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True)
            if run.returncode:
                raise SystemExit(f"error: {demo} exited {run.returncode}: {run.stderr.decode()[-500:]}")
            (out / "demos" / f"{demo.stem}.txt").write_bytes(run.stdout)


def diff(a: Path, b: Path) -> int:
    for root in (a, b):
        if not root.is_dir():
            raise SystemExit(f"error: {root} is not a directory")
    files = sorted(
        {p.relative_to(root).as_posix() for root in (a, b) for p in root.rglob("*") if p.is_file()}
    )
    differ = 0
    for name in files:
        left, right = a / name, b / name
        if not (left.is_file() and right.is_file()):
            print(f"only in {a if left.is_file() else b}: {name}")
        elif left.read_bytes() != right.read_bytes():
            print(f"differs: {name}")
        else:
            continue
        differ += 1
    print(f"{len(files) - differ} files identical, {differ} differ")
    return 1 if differ else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_write = sub.add_parser("write", help="write the output set into an empty directory")
    p_write.add_argument("dir", type=Path)
    p_write.add_argument(
        "--src", type=Path, default=Path(__file__).resolve().parents[1] / "src",
        help="directory holding the refground package to import",
    )
    p_diff = sub.add_parser("diff", help="compare two output sets byte for byte")
    p_diff.add_argument("a", type=Path)
    p_diff.add_argument("b", type=Path)
    args = parser.parse_args(argv)
    if args.command == "write":
        write(args.dir, args.src)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
