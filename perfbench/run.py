"""comcat benchmark: time-to-verdict of verification checks.

    python3 perfbench/run.py --workload exact --seed 0 --seconds 40 --trace 0

Run from anywhere; the program is the checkout's ``src/comcat``.  Set-up
time is the median over fresh processes that start the interpreter,
import comcat and generate the inputs.  The workload then runs in one more
fresh process, with tracing off (end-to-end metrics) or on (per-layer
metrics).  Every time it reports is normalized to the host's quiet speed
with the reference workload of ``reference.py``, timed in the same
process.  Every metric is printed by name with its unit; the last line is
one JSON object.  Exit status 1 when a check's verdict is wrong, 2 when the
program cannot be found or the run cannot finish.

perfbench/design.json defines every metric and records the check mixes,
the layer-to-metric predictions and the baseline.  The benchmark's own
tests: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("exact", "spectral")
SETUP_PROBES = 8
DEADLINE_S = 170  # a run must end within 180 s

THREAD_PINS = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "checks_per_s": "1/s",
    "check_s.p50": "s",
    "check_s.p90": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER_UNITS = {
    "lp.calls": "count/round",
    "lp.self_s": "s/round",
    "lp.optimal_ratio": "ratio",
    "lp.cells": "count/round",
    "cones.convert.calls": "count/round",
    "cones.convert.self_s": "s/round",
    "cones.build.calls": "count/round",
    "cones.build.self_s": "s/round",
    "cones.member.calls": "count/round",
    "cones.member.self_s": "s/round",
    "matching.calls": "count/round",
    "matching.self_s": "s/round",
    "matching.lp_calls": "count/round",
    "matching.yield_ratio": "ratio",
    "protocols.search.calls": "count/round",
    "protocols.search.self_s": "s/round",
    "protocols.search.lp_calls": "count/round",
    "protocols.verify.self_s": "s/round",
    "selfdual.calls": "count/round",
    "selfdual.self_s": "s/round",
    "linalg.calls": "count/round",
    "linalg.self_s": "s/round",
    "hermitian.calls": "count/round",
    "hermitian.self_s": "s/round",
    "composites.calls": "count/round",
    "composites.self_s": "s/round",
    "conditioning.self_s": "s/round",
    "com.self_s": "s/round",
    "models.self_s": "s/round",
    "cli.self_s": "s/round",
    "serialize.self_s": "s/round",
    "trace.overhead_ratio": "ratio",
}


def quantile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def end_to_end(sample: dict, setup_times: list[float]) -> tuple[dict, list[str]]:
    """Metrics from the worker's raw samples, plus human-readable notes.
    ``setup_times`` are already normalized.  Each family counts at its
    median normalized check time, ``weight`` times, as in one round of the
    mix; the percentiles are taken over that round."""
    speed = reference.speed(sample["references"])
    fams = sample["families"]
    median = {name: statistics.median(f["durations"]) * speed for name, f in fams.items()}
    mix = [median[name] for name, f in fams.items() for _ in range(f["weight"])]
    p50, p90 = quantile(mix, 0.5), quantile(mix, 0.9)
    durations = [d * speed for f in fams.values() for d in f["durations"]]
    beyond = sum(1 for d in durations if d > p90)
    if beyond < 10:
        raise RuntimeError(f"only {beyond} samples beyond p90; the run is too short")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "checks_per_s": len(mix) / sum(mix),
        "check_s.p50": p50,
        "check_s.p90": p90,
        "peak_rss_mb": sample["rss_kib"] / 1024,
    }
    notes = [
        f"samples: {len(durations)} checks in {sample['rounds']:.2f} rounds of {len(mix)}, {beyond} beyond p90; "
        f"setup probes: {len(setup_times)}",
        f"host speed: {speed:.4f} x quiet ({len(sample['references'])} reference timings); as measured: "
        f"p50 {p50 / speed:.6g} s, p90 {p90 / speed:.6g} s",
        f"failed_ratio = {sample['failed'] / sample['attempted']:.6f} fraction",
    ]
    return metrics, notes


def probe(base, env, deadline: float) -> float:
    """Seconds from spawning a set-up-only worker to the end of its set-up,
    normalized by the reference timings the worker makes after it.  The
    worker prints the wall clock when done; timing the wait instead would
    round to subprocess's polling steps."""
    t0 = time.time()
    out = subprocess.run([*base, "--setup-only"], env=env, check=True, stdout=subprocess.PIPE, text=True,
                         timeout=deadline - time.monotonic())
    done, *timings = map(float, out.stdout.split())
    return (done - t0) * reference.speed(zip(timings[::2], timings[1::2]))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="comcat time-to-verdict benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "comcat" / "__init__.py").is_file():
        print(f"run.py: no comcat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **THREAD_PINS)
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # the discarded probe caches bytecode for the rest
    base = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed)]

    try:
        # half the set-up probes before the run and half after, so their
        # median spans the machine's slow and fast phases alike
        deadline = time.monotonic() + DEADLINE_S
        probes = 0 if args.trace else SETUP_PROBES
        probe(base, env, deadline)  # discarded: fills the bytecode cache
        setup_times = [probe(base, env, deadline) for _ in range(probes // 2)]
        proc = subprocess.run(
            [*base, "--seconds", str(args.seconds), "--trace", str(args.trace)],
            env=env, check=True, stdout=subprocess.PIPE, text=True, timeout=deadline - time.monotonic(),
        )
        setup_times += [probe(base, env, deadline) for _ in range(probes - probes // 2)]
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        if args.trace:
            metrics = sample["layers"]
            units = PER_LAYER_UNITS
            notes = [f"traced rounds: {sample['rounds']}, spans: {sample['spans']}"]
        else:
            metrics, notes = end_to_end(sample, setup_times)
            units = END_TO_END_UNITS
    except (subprocess.SubprocessError, OSError, ValueError, KeyError, IndexError, RuntimeError) as exc:
        print(f"run.py: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    for error in sample["errors"]:
        print(f"  FAILED {error}")
    correct = sample["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": sample["attempted"],
        "failed": sample["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
