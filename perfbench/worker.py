"""One benchmark process: set up one workload, then measure it.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

Set-up is interpreter start, ``import comcat`` and input generation.  The
measurement is a closed loop with one caller: each check starts when the
previous one returned, and the round's interleaved schedule repeats until
``--seconds`` have passed and one full round has run.  Between checks,
about once for every ``REFERENCE_PERIOD_S`` of the run (``Gauge``), the
worker times the reference workload of ``reference.py``, outside every
check's timer.  The last line of standard output is one JSON object with
the raw samples and the reference timings; ``run.py`` turns them into
metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from pathlib import Path

import reference

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PERIOD_S = 1.0
MAX_REFERENCES_PER_GAP = 4  # made up after a long check, so heavy workloads get as many timings
SETUP_REFERENCES = 5  # reference timings after a set-up probe


def schedule(families) -> list[int]:
    """One round: family i with weight w at positions (k + (i+1)/(F+1)) / w,
    so every stretch of the round holds about the mix's proportions."""
    F = len(families)
    slots = [
        ((k + (i + 1) / (F + 1)) / fam.weight, i)
        for i, fam in enumerate(families)
        for k in range(fam.weight)
    ]
    return [i for _, i in sorted(slots)]


def run_check(check):
    """(seconds from start to verdict, failure reason or None)."""
    t0 = time.perf_counter()
    try:
        obs = check.run()
    except Exception as exc:  # a raising check is a failed check, not a crashed run
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, check.gate(obs)
    except Exception as exc:
        return elapsed, f"gate raised {type(exc).__name__}: {exc}"


def warm_up(families) -> None:
    """Run each light family's first instance once, uncounted.  The timed
    loop repeats it, so its CLI reports are also compared by hash."""
    reference.time_reference()
    for fam in families:
        if fam.warm:
            run_check(fam.next())
            fam.rewind()


class Tally:
    def __init__(self, families):
        self.families = families
        self.durations = [[] for _ in families]
        self.attempted = 0
        self.errors: list[str] = []

    def run(self, i: int) -> None:
        duration, error = run_check(self.families[i].next())
        self.durations[i].append(duration)
        self.attempted += 1
        if error is not None:
            self.errors.append(f"{self.families[i].name}: {error}")
            print(f"check failed: {self.errors[-1]}", file=sys.stderr)


class Gauge:
    """Times the reference workload between checks, about once for every
    REFERENCE_PERIOD_S of the run, and keeps count of the seconds that
    took.  After a check longer than the period it makes up the timings it
    missed, up to MAX_REFERENCES_PER_GAP."""

    def __init__(self):
        self.timings: list[tuple[float, float]] = []
        self.spent = 0.0
        self.last = -float("inf")

    def tick(self) -> None:
        now = time.perf_counter()
        owed = int(min(MAX_REFERENCES_PER_GAP, (now - self.last) // REFERENCE_PERIOD_S))
        if owed:
            self.timings += [reference.time_reference() for _ in range(owed)]
            self.last = time.perf_counter()
            self.spent += self.last - now

    def normalize(self, seconds: float) -> float:
        """Quiet-host seconds worth of ``seconds`` of wall time that
        include this gauge's own timings."""
        return (seconds - self.spent) * reference.speed(self.timings)


def measure(families, seconds: float) -> dict:
    tally = Tally(families)
    warm_up(families)
    order = schedule(families)
    gauge = Gauge()
    t0 = time.perf_counter()
    pos = 0
    while True:
        gauge.tick()
        tally.run(order[pos % len(order)])
        pos += 1
        if pos >= len(order) and time.perf_counter() - t0 >= seconds:
            break
    return {
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "errors": tally.errors[:20],
        "rounds": pos / len(order),
        "references": gauge.timings,
        "families": {
            fam.name: {"weight": fam.weight, "durations": tally.durations[i]} for i, fam in enumerate(families)
        },
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


def measure_traced(families, seconds: float) -> dict:
    """One untraced round as the baseline, then traced rounds until the
    time is up; per-layer metrics are per traced round.  The overhead
    compares the first traced round with the untraced one, each
    normalized with the reference timings made during it."""
    import tracer as tr

    tally = Tally(families)
    warm_up(families)
    order = schedule(families)
    untraced_gauge, traced_gauge = Gauge(), Gauge()
    t0 = time.perf_counter()
    for i in order:
        untraced_gauge.tick()
        tally.run(i)
    untraced = untraced_gauge.normalize(time.perf_counter() - t0)
    tracer = tr.Tracer()
    rounds, first = 0, None
    with tracer:
        while rounds == 0 or time.perf_counter() - t0 < seconds:
            start = time.perf_counter()
            for i in order:
                if rounds == 0:
                    traced_gauge.tick()  # the reference runs no comcat code, so it makes no spans
                with tracer.span(tr.CHECK):
                    tally.run(i)
            if rounds == 0:
                first = traced_gauge.normalize(time.perf_counter() - start)
            rounds += 1
    metrics = tr.per_layer_metrics(tracer, rounds)
    metrics["trace.overhead_ratio"] = first / untraced
    return {
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "errors": tally.errors[:20],
        "rounds": rounds,
        "spans": len(tracer.start),
        "layers": metrics,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import comcat

    if Path(comcat.__file__).resolve().parent != ROOT / "src" / "comcat":
        print(f"worker: imported comcat from {comcat.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    build = workloads.WORKLOADS.get(args.workload)
    if build is None:
        print(f"worker: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        families = build(args.seed, Path(workdir))
        if args.setup_only:
            done = time.time()
            reference.time_reference()  # warm-up
            print(done, *(t for _ in range(SETUP_REFERENCES) for t in reference.time_reference()))
            return 0
        if args.trace:
            result = measure_traced(families, args.seconds)
        else:
            result = measure(families, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
