"""Shared pieces of the benchmark: host shape, memory, percentiles,
set-up timing and the result object every workload fills in."""

from __future__ import annotations

import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, Iterable, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# How many times set-up is repeated in one run; setup_s is the median.
SETUP_REPEATS = 3
IMPORT_REPEATS = 7


def cpu_seconds() -> float:
    """CPU time of this process (all threads), seconds.

    Every host time in the end-to-end metrics is CPU time. On a shared
    virtual machine, wall time also counts the time the hypervisor runs
    other guests on this vCPU (the steal column of /proc/stat), which
    swings by tens of percent from one minute to the next; the kernel
    leaves steal out of a task's CPU time.
    """
    return time.process_time()


# The host-speed reference. On a shared host the same work takes up to
# twice the CPU time from one minute to the next (frequency, core and
# cache contention the guest cannot see). A fixed pure-Python kernel of
# the same kind of work as the simulator, timed between the measured
# operations, slows down with it: over 13 groups of 32 sweep program
# runs on a 2-vCPU Xeon virtual machine, the simulator's CPU-time speed
# spread 0.10 (IQR/median) and its speed at the reference 0.02. Every
# end-to-end host time is therefore given at the reference speed, that
# of a host that runs the kernel in REFERENCE_S of CPU time.
REFERENCE_S = 0.025
REFERENCE_STEPS = 45_000
REFERENCE_READS = 12_000
_MASK = 0xFFFFFFFF


class _Machine:
    """The kernel's toy register machine: dispatch through bound
    methods, list registers and a dict memory, as the simulator's
    interpreter does."""

    __slots__ = ("regs", "mem")

    def __init__(self):
        self.regs = [0] * 32
        self.regs[1] = 1
        self.mem: "Dict[int, int]" = {}

    def add(self, rd: int, rs: int, rt: int) -> None:
        self.regs[rd] = (self.regs[rs] + self.regs[rt]) & _MASK

    def xor(self, rd: int, rs: int, rt: int) -> None:
        self.regs[rd] = self.regs[rs] ^ self.regs[rt]

    def addi(self, rd: int, rs: int, imm: int) -> None:
        self.regs[rd] = (self.regs[rs] + imm) & _MASK

    def load(self, rd: int, rs: int, imm: int) -> None:
        self.regs[rd] = self.mem.get((self.regs[rs] + imm) & 0xFFFF, 0)

    def store(self, rd: int, rs: int, imm: int) -> None:
        self.mem[(self.regs[rs] + imm) & 0xFFFF] = self.regs[rd]


def _reference_program() -> "List[tuple]":
    rng = random.Random(1)
    program = []
    for _ in range(64):
        op = rng.choice(("add", "xor", "addi", "load", "store"))
        last = rng.randrange(1, 32) if op in ("add", "xor") \
            else rng.randrange(4096)
        program.append((op, rng.randrange(1, 32), rng.randrange(1, 32),
                        last))
    return program


_PROGRAM = _reference_program()
# Random reads over these make the kernel's memory behaviour part of
# the reference too; about 3 MiB, built on first use.
_TABLES: "List[tuple]" = []


def reference_kernel() -> float:
    """CPU seconds of one run of the reference kernel: the toy machine
    runs a fixed 64-instruction loop, then random reads go to a list
    and a dict too large for the core's own caches."""
    if not _TABLES:
        table = list(range(1 << 16))
        index = {(key * 2654435761) & 0xFFFFFFF: key
                 for key in range(1 << 14)}
        _TABLES.append((table, index, list(index)))
    table, index, keys = _TABLES[0]
    machine = _Machine()
    code = [(getattr(_Machine, op), a, b, c) for op, a, b, c in _PROGRAM]
    value, total = 1, 0
    began = cpu_seconds()
    for step in range(REFERENCE_STEPS):
        method, a, b, c = code[step & 63]
        method(machine, a, b, c)
    for _ in range(REFERENCE_READS):
        value = (value * 1103515245 + 12345) & 0x7FFFFFFF
        total += table[value & 0xFFFF]
        total ^= index[keys[value & 0x3FFF]]
    return cpu_seconds() - began


class HostSpeed:
    """Reference-kernel samples taken between measured operations."""

    def __init__(self, every: float = 0.5):
        # CPU seconds of other work between two samples (see tick).
        self.every = every
        self.samples: "List[float]" = []
        self._last: "float | None" = None

    def sample(self) -> float:
        took = reference_kernel()
        self.samples.append(took)
        self._last = cpu_seconds()
        return took

    def tick(self) -> "float | None":
        """Sample when ``every`` CPU seconds have passed since the last
        sample; returns the sample taken, if any."""
        if self._last is None or cpu_seconds() - self._last >= self.every:
            return self.sample()
        return None

    def kernel_s(self) -> float:
        """The kernel's mean time: the measured work's summed time
        averages the host's speed over time too."""
        return statistics.mean(self.samples)

    def scale(self) -> float:
        """Factor from CPU seconds on this host, over the samples' time,
        to seconds at the reference speed."""
        return REFERENCE_S / self.kernel_s()


def process_cpu_seconds(pids: "Iterable[int]") -> float:
    """Summed CPU time of other live processes, seconds (the time-on-CPU
    field of /proc/<pid>/schedstat, which leaves out steal too)."""
    total = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/schedstat", encoding="ascii") as handle:
                total += int(handle.read().split()[0])
        except (OSError, IndexError, ValueError):
            pass
    return total / 1e9


def children_cpu_seconds() -> float:
    """CPU time of this process's ended and waited-for children."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def host_shape(**extra) -> dict:
    shape = {"cpu_count": cpu_count(),
             "python": platform.python_version(),
             "platform": platform.platform()}
    shape.update(extra)
    return shape


def peak_rss_mib(children_kib: int = 0) -> float:
    """Peak resident set of this process plus its children, MiB.

    Each workload reads it when its measured work ends. ``children_kib``
    is the summed peak of child processes the workload read before they
    ended (see ``children_peak_kib``); other children count as the
    largest one the kernel reports. Linux reports both in KiB.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + max(children, children_kib)) / 1024.0


def children_peak_kib() -> int:
    """Summed peak resident set (VmHWM) of this process's live
    multiprocessing children, KiB."""
    import multiprocessing

    total = 0
    for child in multiprocessing.active_children():
        try:
            with open(f"/proc/{child.pid}/status",
                      encoding="ascii") as handle:
                total += next(int(line.split()[1]) for line in handle
                              if line.startswith("VmHWM:"))
        except (OSError, StopIteration):
            pass
    return total


def percentile(values: "List[float]", q: float) -> float:
    """Percentile, q in [0, 1], interpolated between the two closest
    ranks: with few values (the sweep's eight programs) a nearest rank
    jumps from one program to another between runs."""
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: "List[float]") -> float:
    return statistics.median(values)


def import_seconds(modules: str) -> float:
    """Median CPU time of a fresh interpreter importing ``modules`` —
    the set-up every user of the library pays once per process — at
    the reference speed, sampled between the imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    samples, speed = [], HostSpeed()
    for _ in range(IMPORT_REPEATS):
        speed.sample()
        began = children_cpu_seconds()
        subprocess.run([sys.executable, "-c", f"import {modules}"],
                       env=env, check=True, cwd=ROOT)
        samples.append(children_cpu_seconds() - began)
    return median(samples) * speed.scale()


@dataclass
class Result:
    """What one workload run produced, before it is printed."""

    metrics: "Dict[str, tuple]" = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: "List[str]" = field(default_factory=list)
    host: dict = field(default_factory=dict)
    # Reference-kernel samples of the measured phase.
    speed: HostSpeed = field(default_factory=HostSpeed)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def check(self, ok: bool, message: str) -> None:
        """Record one output check; a failure counts as a failed op."""
        if not ok:
            self.errors.append(message)
            self.failed += 1

    @property
    def correct(self) -> bool:
        return not self.errors

    def to_json(self, names: "List[str]", units: "Dict[str, str]") -> str:
        metrics = {name: {"value": self.metrics[name][0],
                          "unit": units[name]} for name in names}
        return json.dumps({"correct": self.correct,
                           "attempted": max(1, self.attempted),
                           "failed": self.failed, "metrics": metrics})
