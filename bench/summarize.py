"""Run the benchmark over several seeds and summarise every metric.

    python3 bench/summarize.py --seeds 1-10 --seconds 25 --out bench/results/seed.json

Runs are made one at a time, each in its own process, from the checkout
root. For each workload the summary holds every end-to-end run's values
with their median, quartiles and spread (quartile distance over the
median, as `statistics.quantiles(values, n=4)` gives the quartiles), then
the per-layer metrics of one traced run on the first seed. It also
summarises figures the end-to-end runs print that are not metrics:
`repeat_share`, the share of ops whose input was already run in the
process; `first_ops_per_ref_s`, the throughput of the other ops; the
run's median host factor; the wall-time throughput and percentiles; and
each run's duration, set-up included.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["workloads"]]


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


# Printed figures of an end-to-end run that summaries keep: name -> pattern of its value.
FIGURES = {
    "repeat_share": r"\brepeat_share (\S+)",
    "first_ops_per_ref_s": r"\bfirst_ops_per_ref_s (\S+)",
    "host_factor": r"\bhost factor median (\S+),",
    "wall_ops_per_s": r"wall time: ops_per_s (\S+),",
    "wall_p50_ms": r"wall time: .* p50 (\S+) ms",
    "wall_p90_ms": r"wall time: .* p90 (\S+) ms",
}


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, dict]:
    """One benchmark run; returns (machine record, result object, printed figures)."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    figures = {"run_s": time.perf_counter() - start}
    lines = done.stdout.strip().splitlines()
    machine = json.loads(lines[0].removeprefix("machine "))
    for name, pattern in FIGURES.items():
        found = re.search(pattern, done.stdout)
        if found:
            figures[name] = float(found.group(1))
    return machine, json.loads(lines[-1]), figures


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    summary: dict = {"seconds": args.seconds, "workloads": {}}
    for workload in WORKLOADS:
        runs, figures = [], []
        for seed in seed_list(args.seeds):
            machine, result, printed = run_once(workload, seed, args.seconds, 0)
            summary["machine"] = machine
            runs.append(result)
            figures.append(printed)
            print(f"{workload} seed {seed}: correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                name: {"unit": metric["unit"], **summarise([r["metrics"][name]["value"] for r in runs])}
                for name, metric in runs[0]["metrics"].items()
            },
            "figures": {name: summarise([f[name] for f in figures]) for name in figures[0]},
        }
        _, traced, printed = run_once(workload, seed_list(args.seeds)[0], args.seconds, 1)
        entry["per_layer"] = traced["metrics"]
        entry["traced_run_s"] = printed["run_s"]
        summary["workloads"][workload] = entry
        for name, stats in entry["end_to_end"].items():
            print(f"{workload:<15} {name:<12} median {stats['median']:<12.6g} "
                  f"spread {stats['spread']:.4f}", file=sys.stderr)
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    Path(args.out).write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
