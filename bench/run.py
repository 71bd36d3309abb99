"""refground benchmark: one workload per process, end-to-end or traced.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {simulate,count_noise,ground_session} \
        --seed N --seconds S --trace {0,1}

The program is imported from `src/` of the checkout; nothing is installed.
All files go to a temporary directory under `.bench_work/` in the checkout,
removed on exit. Human-readable lines (machine record, metrics with their
workload-specific names, digests) come first; the last line of standard
output is one JSON object with `correct`, `attempted`, `failed` and
`metrics`. `--trace 0` reports the end-to-end metrics, measured with no
tracing installed; `--trace 1` reports the per-layer metrics (see
NOTES.md). Metric names and units are those `BENCHMARK.json` lists.

The script first re-executes itself once with a fixed memory layout and
hash seed (`reexec_steady`). End-to-end timings are reported in reference
time: each op's wall time divided by the host's speed around it, as a
calibration unit measures it between rounds (`hostspeed.py`); the wall
times are printed too.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

# One process on the cores it is given, and no BLAS/OpenMP worker threads.
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

ROOT = Path(__file__).resolve().parent.parent
ADDR_NO_RANDOMIZE = 0x0040000  # personality(2) flag: no address-space randomisation
STEADY_ENV = "REFGROUND_BENCH_STEADY"  # set in the re-executed process
WORKLOAD_NAMES = ("simulate", "count_noise", "ground_session")

# End-to-end JSON keys are the same on every workload; E2E_NAMES gives the
# name each one is printed under for a workload.
E2E_NAMES = {
    "simulate": {
        "ops_per_ref_s": "sim_rooms_per_ref_s",
        "op_p50_ref_ms": "sim_room_p50_ref_ms",
        "op_p90_ref_ms": "sim_room_p90_ref_ms",
        "quality": "sim_frame_agreement",
    },
    "count_noise": {
        "ops_per_ref_s": "count_episodes_per_ref_s",
        "op_p50_ref_ms": "count_episode_p50_ref_ms",
        "op_p90_ref_ms": "count_episode_p90_ref_ms",
        "quality": "count_f1",
    },
    "ground_session": {
        "ops_per_ref_s": "ground_per_ref_s",
        "op_p50_ref_ms": "ground_p50_ref_ms",
        "op_p90_ref_ms": "ground_p90_ref_ms",
        "quality": "ground_qa",
    },
}


def metric_units(kind: str) -> dict[str, str]:
    """{name: unit} of the `end_to_end` or `per_layer` metrics, in BENCHMARK.json order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def machine_record(numpy) -> dict:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = "unknown"
    flags = personality()
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "aslr": "unknown" if flags == -1 else "off" if flags & ADDR_NO_RANDOMIZE else "on",
        "python_threads": threading.active_count(),
    }


def measure(workload, seconds: float, speed, tracer=None):
    """Run rounds until the base rounds are done and `seconds` have gone by.

    After every round the host's speed is sampled. With a tracer, each
    round runs twice on the same inputs, untraced and traced, in
    alternating order; the pairs give the tracing overhead.
    """
    import layers
    from workloads import Tally

    plain, traced = Tally(), Tally()
    start = time.perf_counter()
    index = 0
    while (
        index < workload.base_rounds
        or index % workload.period
        or time.perf_counter() - start < seconds
    ):
        plain.round = traced.round = index
        if tracer is None:
            workload.round(index, plain)
        else:
            for traced_run in (False, True) if index % 2 == 0 else (True, False):
                if not traced_run:
                    workload.round(index, plain)
                    continue
                layers.install(tracer)
                try:
                    workload.round(index, traced, tracer)
                finally:
                    tracer.unpatch()
        speed.sample(index)
        index += 1
    return plain, traced, time.perf_counter() - start


def percentiles(samples: list[float]) -> tuple[float, float]:
    q = statistics.quantiles(samples, n=10, method="inclusive")
    return q[4], q[8]


def timings(ops, factors=None) -> dict[str, float]:
    """Throughput and per-unit latency percentiles of ops.

    With `factors` (round index -> host factor) each op's time is read in
    reference time, else in wall time.
    """
    seconds = [op.seconds / (factors[op.round] if factors else 1.0) for op in ops]
    p50, p90 = percentiles([1e3 * t / op.units for t, op in zip(seconds, ops)])
    return {"ops_per_s": sum(op.units for op in ops) / sum(seconds), "p50_ms": p50, "p90_ms": p90}


def run(args, work: Path, out) -> dict:
    from hostspeed import HostSpeed
    from tracer import Tracer
    from workloads import SETUPS, WORKLOADS, tree_digest

    workload = WORKLOADS[args.workload](args.seed, work)
    setup_times, setup_digests = [], []
    for index in range(SETUPS):
        start = time.perf_counter()
        path = workload.setup(index)
        setup_times.append(time.perf_counter() - start)
        setup_digests.append(tree_digest(path))

    tracer = Tracer() if args.trace else None
    speed = HostSpeed(workload.calibration)
    plain, traced, elapsed = measure(workload, args.seconds, speed, tracer)
    factors = speed.factors()
    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    for error in (plain.errors + traced.errors)[:5]:
        print(f"failed op: {error}", file=sys.stderr)
    correct = failed == 0

    names = E2E_NAMES[args.workload]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}", file=out)
    print(
        f"  setups {SETUPS}: {', '.join(f'{t:.3f}' for t in setup_times)} s",
        file=out,
    )
    print(
        f"  measured {elapsed:.2f} s, ops attempted {attempted}, failed {failed}, "
        f"fail_share {failed / attempted:.4f}, latency samples {len(plain.ops)}",
        file=out,
    )
    host = sorted(factors.values())
    print(
        f"  host factor median {statistics.median(host):.4f}, min {host[0]:.4f}, "
        f"max {host[-1]:.4f} (calibration unit time over its reference)",
        file=out,
    )
    first = [op for op in plain.ops if op.first]
    print(
        f"  repeat_share {workload.repeat_share():.4f} (ops on an input already run in this "
        f"process), first_ops_per_ref_s "
        f"{timings(first, factors)['ops_per_s'] if first else 0.0:.6g} (ops on first-seen inputs)",
        file=out,
    )
    print(
        "  digest "
        + json.dumps({"setups": setup_digests, **workload.digest()}, sort_keys=True),
        file=out,
    )

    if tracer is None:
        wall, ref = timings(plain.ops), timings(plain.ops, factors)
        print(
            f"  wall time: ops_per_s {wall['ops_per_s']:.6g}, p50 {wall['p50_ms']:.6g} ms, "
            f"p90 {wall['p90_ms']:.6g} ms",
            file=out,
        )
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_ref_s": ref["ops_per_s"],
            "op_p50_ref_ms": ref["p50_ms"],
            "op_p90_ref_ms": ref["p90_ms"],
            "quality": workload.quality(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = metric_units("end_to_end")
        for key, unit in units.items():
            print(f"  {names.get(key, key):<24} {metrics[key]:>14.6g} {unit:<6} [{key}]", file=out)
        for name, (value, unit) in workload.extra_metrics().items():
            print(f"  {name:<24} {value:>14.6g} {unit}", file=out)
    else:
        from layers import layer_metrics

        metrics = layer_metrics(tracer, traced.units, plain.busy, traced.busy)
        units = metric_units("per_layer")
        for key, unit in units.items():
            print(f"  {key:<44} {metrics[key]:>14.6g} {unit}", file=out)
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": units[key]} for key in units},
    }


def personality(flags: int | None = None) -> int:
    """The process's personality(2) flags, after setting them to `flags`; -1 where unavailable."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        if flags is not None:
            libc.personality(flags)
        return libc.personality(0xFFFFFFFF)
    except (OSError, AttributeError):
        return -1


def reexec_steady(argv: list[str]) -> None:
    """Run this script again, once, with a fixed memory layout and hash seed.

    Address-space randomisation and Python's string-hash seed give every
    process its own memory layout and dict orders, which moved the same
    op's time by up to 15% from one process to the next on the host the
    benchmark was built on. The script re-executes itself with
    PYTHONHASHSEED=0 and, where the kernel allows it, with
    ADDR_NO_RANDOMIZE set, which exec keeps (as `setarch -R` does). Both
    are properties of this process only. The machine record says which
    took effect. `exec` replaces the process, so no child is left behind.
    """
    if os.environ.get(STEADY_ENV):
        return
    current = personality()
    if current != -1:
        personality(current | ADDR_NO_RANDOMIZE)
    env = dict(os.environ, PYTHONHASHSEED="0", **{STEADY_ENV: "1"}, **{n: "1" for n in THREAD_ENV})
    os.execve(sys.executable, [sys.executable, str(Path(__file__).resolve()), *argv], env)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = parse_args(argv)
    reexec_steady(argv)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import refground
    except ImportError as exc:
        print(f"error: cannot import refground from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(refground.__file__).resolve().parent != (ROOT / "src" / "refground").resolve():
        print(f"error: refground comes from {refground.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 2
    print("machine " + json.dumps(machine_record(numpy), sort_keys=True))

    work_root = ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=work_root))
    try:
        result = run(args, work, sys.stdout)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:  # another run still uses it
            pass
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
