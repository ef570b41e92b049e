"""A fixed probe that gauges how fast the host runs Python right now.

The hosts this benchmark runs on change speed for every process at once,
by up to 2x, in phases that last from milliseconds to minutes; neither
the fastest nor the median of a run's samples removes a phase that covers
most of a run.  So ``run.py`` times :func:`probe` between commands, about
every PROBE_EVERY_S of wall time, and divides the time of each command by
the time of the probes around it (see :class:`Gauge`).  A scaled time
reads as the time on a host where the probe takes PROBE_NOMINAL_S.

The probe is fixed code that does not touch the package under test, so a
change to the program moves scaled times as much as raw ones.  It mixes
the two kinds of interpreter work the workloads spend their time on:
a tight loop of integer, dict and tuple operations, and object-heavy work
(an argparse parser with subcommands, parsing and printing cycle text,
orbits, duals, JSON) done by ``workloads.py``'s own hypermap code.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
from time import perf_counter

import workloads

PROBE_NOMINAL_S = 0.0016
PROBE_EVERY_S = 0.02

_MAPS = [workloads.random_map(8 + i, random.Random(i)) for i in range(2)]


def _loop() -> int:
    counts: dict[int, int] = {}
    total = 0
    for i in range(4000):
        key = (i * 7919) & 1023
        counts[key] = counts.get(key, 0) + 1
        pair = (key, i & 7)
        total += pair[1]
    return len(counts) + total


def _objects() -> int:
    parser = argparse.ArgumentParser(prog="probe", description="speed probe")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("a", "b", "c", "d", "e"):
        p = sub.add_parser(name, help=f"subcommand {name}")
        p.add_argument("file")
        p.add_argument("--kind", choices=["x", "y", "z"])
        p.add_argument("--special", nargs="+", type=int)
    parser.parse_args(["c", "f", "--kind", "x", "--special", "1", "2"])
    size = 0
    for m in _MAPS:
        copy, _ = workloads.read_hypermap(workloads.hypermap_text(m))
        d = workloads.dual(copy)
        workloads.triangle_dual(copy)
        workloads.is_transitive(d.alpha, d.sigma)
        size += len(json.dumps({"vertices": [list(c) for c in d.vertices]}))
    return size


def probe() -> float:
    """Seconds the fixed probe work takes now."""
    start = perf_counter()
    _loop()
    _objects()
    return perf_counter() - start


class Gauge:
    """Probes between commands and scales each command's time by the probes around it."""

    def __init__(self):
        self.groups: list[list[float]] = []  # command times between two probes
        self.slowdowns: list[float] = []  # the probe ending each group, over PROBE_NOMINAL_S
        self.pending: list[float] = []
        self.last = perf_counter()

    def add(self, seconds: float) -> None:
        """Record one command's time; probe if PROBE_EVERY_S has passed since the last probe."""
        self.pending.append(seconds)
        if perf_counter() - self.last >= PROBE_EVERY_S:
            self.probe()

    def probe(self) -> None:
        """Probe now, ending the group of times recorded since the last probe."""
        if self.pending:
            self.slowdowns.append(probe() / PROBE_NOMINAL_S)
            self.groups.append(self.pending)
            self.pending = []
        self.last = perf_counter()

    def scaled(self) -> list[float]:
        """Each time divided by the median of the probe ending its group and its two neighbours.

        The median drops a probe that a pause of the host stretched.
        """
        out = []
        for i, times in enumerate(self.groups):
            slowdown = statistics.median(self.slowdowns[max(i - 1, 0):i + 2])
            out += [t / slowdown for t in times]
        return out
