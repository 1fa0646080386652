"""In-memory span tracing around the simulator's layer entry points.

The traced run patches the public entry point of each layer (module
attributes at their call sites, or methods on the class) with a wrapper
that records a span: name, start, end, parent, and the session or
execution id it belongs to. Nothing in the simulator itself changes;
:func:`uninstall` puts every original back.

Spans live in a list in memory and are written out once, at the end,
as Chrome trace-event JSON (Perfetto opens it). Worker processes
forked while the wrappers are installed inherit them; their spans are
drained into each reply (see :mod:`serve_load`) and merged here with
their own pid.

A span's *self time* is its duration minus the part of it its child
spans cover. Layer metrics are sums of self time, so the layers of one
call tree add up to the wall time of its root.
"""

from __future__ import annotations

import contextvars
import functools
import itertools
import json
import os
import sys
import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, List, Optional

# The span the current code runs under. A ContextVar rather than a stack
# so concurrent asyncio clients each keep their own parent chain.
_CURRENT: "contextvars.ContextVar[Optional[int]]" = \
    contextvars.ContextVar("perfbench_span", default=None)
# The display lane (trace "thread") of the current code: a client index
# for asyncio clients that share one OS thread, else the thread id.
_LANE: "contextvars.ContextVar[Optional[str]]" = \
    contextvars.ContextVar("perfbench_lane", default=None)


class Tracer:
    """Span buffer plus the per-call counters the wrappers collect."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.pid = os.getpid()
        self.spans: "List[dict]" = []
        self.counters: "Dict[str, float]" = {}
        self._ids = itertools.count(1)

    def _new_id(self) -> int:
        # Unique across the processes whose spans are merged here.
        return (self.pid << 20) | next(self._ids)

    def count(self, name: str, value: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    @contextmanager
    def span(self, name: str, lane: "Optional[str]" = None, **args):
        span_id = self._new_id()
        parent = _CURRENT.get()
        token = _CURRENT.set(span_id)
        lane_token = _LANE.set(lane) if lane is not None else None
        tid = _LANE.get() or threading.get_ident()
        start = perf_counter()
        try:
            yield args
        finally:
            end = perf_counter()
            _CURRENT.reset(token)
            if lane_token is not None:
                _LANE.reset(lane_token)
            self.spans.append({"id": span_id, "name": name,
                               "start": start, "end": end,
                               "parent": parent, "pid": self.pid,
                               "tid": tid, "args": args})

    def drain(self) -> dict:
        """Hand over (and forget) everything recorded so far."""
        out = {"spans": self.spans, "counters": self.counters}
        self.spans, self.counters = [], {}
        return out

    def merge(self, payload: dict) -> None:
        """Adopt spans and counters drained in another process."""
        self.spans.extend(payload.get("spans", ()))
        for name, value in payload.get("counters", {}).items():
            self.count(name, value)


# One tracer per process: the wrappers live inside the simulator's own
# modules and have no caller that could pass one in. A forked child
# starts with an empty buffer and its own pid.
TRACER = Tracer()
os.register_at_fork(after_in_child=TRACER.reset)


# -- wrapping -----------------------------------------------------------------

_INSTALLED: "List[tuple]" = []


def _patch(owner, attr: str, wrapper) -> None:
    original = owner.__dict__[attr]
    _INSTALLED.append((owner, attr, original))
    setattr(owner, attr, wrapper(original))


def spanned(name: str, on_call=None):
    """Wrapper factory: time every call as a span called ``name``.

    ``on_call(args, kwargs, span_args)`` may return a callback that is
    run with the result once the call returns (for counters).
    """
    def wrap(func):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            with TRACER.span(name) as span_args:
                after = on_call(args, kwargs, span_args) if on_call \
                    else None
                result = func(*args, **kwargs)
            if after is not None:
                after(result)
            return result
        return wrapper
    return wrap


def _mem_counters(system) -> tuple:
    dtlb, dcache, mmu = system.mmu.dtlb, system.dcache, system.mmu.stats
    return (dtlb.hits, dtlb.misses, dcache.hits, dcache.misses,
            mmu.walks, mmu.roload_checks,
            system.memory.private_frame_count())


_MEM_NAMES = ("mem.dtlb_hits", "mem.dtlb_misses", "mem.dcache_hits",
              "mem.dcache_misses", "mem.mmu_walks", "mem.roload_checks",
              "mem.private_frames")
_CPU_COUNTS = ("retired", "tier4_retired", "jit_compiled",
               "jit_compile_seconds", "regions_compiled",
               "flat_regions_compiled", "region_compile_seconds")
FLUSH_CAUSES = ("smc", "context_switch", "mmu_generation",
                "block_cache_capacity")


def _kernel_run_counters(args, kwargs, span_args):
    """Kernel.run: retired instructions, memory-system and tier
    counters, as the difference across the call."""
    kernel = args[0]
    system = kernel.system
    core = system.core
    mem_before = _mem_counters(system)
    cpu_before = core.tier_residency()

    def after(_result):
        retired = core.instret - cpu_before["retired"]
        span_args["instret"] = retired
        TRACER.count("kernel.run_calls")
        for name, old, new in zip(_MEM_NAMES, mem_before,
                                  _mem_counters(system)):
            TRACER.count(name, new - old)
        cpu_after = core.tier_residency()
        for key in _CPU_COUNTS:
            TRACER.count(f"cpu.{key}", cpu_after[key] - cpu_before[key])
        old_causes = cpu_before["flush_causes"]
        for cause, count in cpu_after["flush_causes"].items():
            delta = count - old_causes.get(cause, 0)
            if delta:
                bucket = cause if cause in FLUSH_CAUSES else "other"
                TRACER.count(f"cpu.flushes.{bucket}", delta)
                TRACER.count("cpu.flushes", delta)
    return after


_EXECUTIONS = itertools.count()


def _execution_id(args, kwargs, span_args):
    """Number fuzz executions so a span names the one it belongs to."""
    span_args["execution"] = next(_EXECUTIONS)


def install() -> None:
    """Wrap every layer entry point; :func:`uninstall` undoes it."""
    import repro
    import repro.compiler
    import repro.compiler.pipeline as pipeline
    import repro.fuzz.campaign as campaign
    import repro.fuzz.executor as executor
    import repro.replay
    import repro.replay.check as check
    import repro.replay.inject as inject
    import repro.serve.pool as pool
    import repro.soc
    import repro.soc.system as soc_system
    import repro.workloads
    import repro.workloads.generator as generator
    from repro.kernel.kernel import Kernel

    for module in (repro.workloads, generator):
        _patch(module, "build_workload", spanned("workloads.generate"))
    for module in (repro.compiler, pipeline):
        _patch(module, "compile_module", spanned("compiler.compile"))
    _patch(pipeline, "assemble", spanned("asm.assemble"))
    _patch(pipeline, "link", spanned("asm.link"))
    for module in (repro.soc, soc_system):
        _patch(module, "build_system", spanned("soc.build_system"))
    _patch(Kernel, "create_process", spanned("kernel.create_process"))
    _patch(Kernel, "run", spanned("kernel.run", _kernel_run_counters))
    # The package re-exports shadow the submodule attribute, hence
    # sys.modules for the defining module.
    for module in (sys.modules["repro.replay.snapshot"], repro,
                   repro.replay, check, inject, pool, executor):
        _patch(module, "snapshot", spanned("replay.snapshot"))
        _patch(module, "restore", spanned("replay.restore"))
    _patch(executor, "build_image", spanned("fuzz.victim_build"))
    _patch(executor.WarmVictimPool, "_warm", spanned("fuzz.victim_warm"))
    _patch(executor.WarmVictimPool, "execute",
           spanned("fuzz.execute", _execution_id))
    _patch(campaign.Campaign, "_triage", spanned("fuzz.triage"))


def uninstall() -> None:
    while _INSTALLED:
        owner, attr, original = _INSTALLED.pop()
        setattr(owner, attr, original)


# -- analysis -----------------------------------------------------------------


def self_times(spans: "List[dict]") -> "Dict[int, float]":
    """Span id -> duration minus the union of its children's intervals."""
    children: "Dict[int, List[tuple]]" = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"]))
    out = {}
    for span in spans:
        covered, reach = 0.0, span["start"]
        for start, end in sorted(children.get(span["id"], ())):
            start, end = max(start, reach), min(end, span["end"])
            if end > start:
                covered += end - start
                reach = end
        out[span["id"]] = (span["end"] - span["start"]) - covered
    return out


def self_seconds_by_name(spans: "List[dict]") -> "Dict[str, float]":
    own = self_times(spans)
    out: "Dict[str, float]" = {}
    for span in spans:
        out[span["name"]] = out.get(span["name"], 0.0) + own[span["id"]]
    return out


def calls_by_name(spans: "List[dict]") -> "Dict[str, int]":
    out: "Dict[str, int]" = {}
    for span in spans:
        out[span["name"]] = out.get(span["name"], 0) + 1
    return out


def top_level_coverage(spans: "List[dict]", start: float,
                       end: float) -> float:
    """Share of [start, end] the parentless spans of this process
    cover."""
    pid = os.getpid()
    intervals = sorted((s["start"], s["end"]) for s in spans
                       if s["parent"] is None and s["pid"] == pid)
    covered, reach = 0.0, start
    for lo, hi in intervals:
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered / (end - start) if end > start else 0.0


def write_chrome_trace(spans: "List[dict]", path: str) -> None:
    """Chrome trace-event JSON: one complete ("X") event per span."""
    origin = min((span["start"] for span in spans), default=0.0)
    tids: "Dict[tuple, int]" = {}
    events = []
    for span in sorted(spans, key=lambda s: s["start"]):
        lane = tids.setdefault((span["pid"], span["tid"]), len(tids) + 1)
        args = dict(span["args"], span=span["id"])
        if span["parent"] is not None:
            args["parent"] = span["parent"]
        events.append({"name": span["name"], "ph": "X",
                       "cat": span["name"].split(".")[0],
                       "ts": (span["start"] - origin) * 1e6,
                       "dur": (span["end"] - span["start"]) * 1e6,
                       "pid": span["pid"], "tid": lane, "args": args})
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"},
                  handle)
