"""A fixed reference workload that gauges the machine's current speed.

The benchmark's host is a 2-vCPU virtual machine shared with other tenants.
Its speed drifts by up to 1.8x over seconds to minutes, as other tenants
contend for the core and its caches.  Process CPU time slows with it (there
is no steal time to subtract), so no clock of our own tells the two apart.

The reference work runs no comcat code, so a change to the program never
moves it.  It has two parts: a pure-Python integer loop, which follows the
core's speed, and random reads from a few megabytes of Fractions, which
follow the caches'.  The worker times both between checks, spread over the
run; run.py divides the run's check times by the geometric mean of the two
parts' median times and multiplies by ``REFERENCE_S``, about that mean on
the host when the host is quiet.

In two trials of 8-10 minutes on the host, 20 s medians of check
families (c2/c2 teleportation, a forced c3 (x) gbit composite, quantum
spatial composites, morphism and teleportation checks, the quantum3
dagger verdict) had an interquartile spread of 13-33 % of their median;
their ratios to this reference had 4-5 % in the first trial and 6-15 % in
the second, about as much as their ratios to the loop alone.
"""

from __future__ import annotations

import math
import random
import statistics
import time
from fractions import Fraction

REFERENCE_S = 0.02  # about the reference on the quiet host; sets the scale of normalized times


def loop_work(n: int = 100_000) -> int:
    s = 0
    for i in range(n):
        s += i * i % 7
    return s


def memory_work(n: int = 20_000, reads: int = 5_000) -> Fraction:
    rng = random.Random(5)
    cells = [Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(n)]
    total = Fraction(0)
    for _ in range(reads):
        total += cells[rng.randrange(n)]
    return total


def time_reference() -> tuple[float, float]:
    """Seconds taken by each part, in order."""
    t0 = time.perf_counter()
    loop_work()
    t1 = time.perf_counter()
    memory_work()
    return t1 - t0, time.perf_counter() - t1


def speed(timings) -> float:
    """How many quiet-host seconds one measured second is worth, from
    (loop, memory) reference timings made over the same stretch."""
    loops, memories = zip(*timings)
    return REFERENCE_S / math.sqrt(statistics.median(loops) * statistics.median(memories))
