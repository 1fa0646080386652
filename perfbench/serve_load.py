"""The ``serve`` workload: a closed loop against roload-serve.

An in-process ``roload-serve`` front end runs with ``workers`` worker
processes, and ``clients`` connections drive it, each running sessions
back to back: create (a copy-on-write fork of a warm snapshot), a few
step slices, query (state hash and audit head), destroy. A client sends
its next request only when the previous reply has arrived.

The seed orders each client's sessions over every combination of pool
key and step plan. Sessions with the same key and plan form a
determinism group: every member must end with the same retired count,
state, state hash and audit head, whichever worker served it.

The end-to-end figures are CPU time at the reference host speed (see
``common.HostSpeed``): ``sim_mips`` and ``ops_per_s`` per CPU second of
the whole service (front end, clients and workers), the latencies as
each step's CPU time in its worker. The client-observed wall-clock
figures, queueing included, are the per-layer ``serve.*`` metrics.
"""

from __future__ import annotations

import asyncio
import os
import random
from time import perf_counter
from typing import Dict, List, Optional

import common
import spans

# (workload, hardening variant) pool keys the sessions draw from.
KEYS = (("429.mcf", "vcall"), ("471.omnetpp", "vcall"),
        ("403.gcc", "icall"))
SCALE = 0.05
PROFILE = "processor+kernel"
STEPS = (3, 4)
# Step time is bimodal in the slice size: a 10k-instruction step takes
# about ten times as long as a 5k one. Three sizes in equal shares put
# the median step in the middle size's samples, away from that gap.
SLICES = (2_500, 5_000, 10_000)
SOCKET_DIR = ".bench_out"
COMBOS = [(key, steps, size) for key in KEYS for steps in STEPS
          for size in SLICES]
CYCLE = len(COMBOS)


def session_plan(seed: int, client: int, index: int) -> dict:
    """Pool key and step plan of a client's ``index``-th session.

    Each client works through every (key, steps, slice) combination
    once per cycle, in an order the seed shuffles, so every cycle holds
    the same mix and only the order varies.
    """
    combos = list(COMBOS)
    cycle, slot = divmod(index, CYCLE)
    random.Random(f"serve:{seed}:{client}:{cycle}").shuffle(combos)
    (workload, variant), steps, size = combos[slot]
    return {"workload": workload, "variant": variant, "steps": steps,
            "slice": size}


def pool_fields(plan: dict) -> dict:
    return {"profile": PROFILE, "workload": plan["workload"],
            "scale": SCALE, "variant": plan["variant"]}


class Stats:
    """Everything the clients observed in one measured phase."""

    def __init__(self):
        self.requests = 0
        self.failed: "List[str]" = []
        self.create_ms: "List[float]" = []
        # Worker CPU time of each step request, and the instructions
        # the steps retired.
        self.step_cpu_ms: "List[float]" = []
        self.executed = 0
        # CPU time of the whole service (front end, clients, workers)
        # over the phase, reference-kernel samples left out, and those
        # samples.
        self.cpu_s = 0.0
        self.reference_s: "List[float]" = []
        self.fork_ms: "List[float]" = []
        self.step_ms: "List[float]" = []
        self.service_ms: "List[float]" = []
        self.sessions: "List[dict]" = []
        self.clients = 0
        # Wall seconds of every completed cycle of one client.
        self.cycles: "List[float]" = []

    def sessions_per_s(self) -> float:
        """Sessions per wall second for all clients together: the median
        over cycles, which all hold the same mix."""
        return self.clients * CYCLE / common.median(self.cycles)


async def _request(client, stats: Stats, sid, **fields) -> dict:
    """One request, timed as a span; adopts worker spans it carries."""
    with spans.TRACER.span("serve.request", op=fields["op"], sid=sid):
        reply = await client.request(**fields)
    cpu_us = reply.pop("_cpu_us", None)
    reference_us = reply.pop("_reference_us", None)
    if reference_us is not None:
        stats.reference_s.append(reference_us / 1e6)
    if fields["op"] == "step" and cpu_us is not None:
        stats.step_cpu_ms.append(cpu_us / 1e3)
    payload = reply.pop("_perfbench", None)
    if payload:
        spans.TRACER.merge(payload)
    stats.requests += 1
    if not reply.get("ok"):
        stats.failed.append(f"{fields['op']}: {reply.get('error')}")
    return reply


async def _session(client, stats: Stats, plan: dict) -> None:
    """One session start to end."""

    def request(sid, **fields):
        return _request(client, stats, sid, **fields)

    began = perf_counter()
    reply = await request(None, op="create", **pool_fields(plan))
    if not reply.get("ok"):
        return
    stats.create_ms.append((perf_counter() - began) * 1e3)
    stats.fork_ms.append(reply["fork_us"] / 1e3)
    sid = reply["session"]
    outcome = dict(plan, worker=reply["worker"])
    state, retired = "running", 0
    for _ in range(plan["steps"]):
        began = perf_counter()
        reply = await request(sid, op="step", session=sid,
                              n=plan["slice"])
        if not reply.get("ok"):
            break
        stats.step_ms.append((perf_counter() - began) * 1e3)
        stats.service_ms.append(reply["wall_us"] / 1e3)
        stats.executed += reply["executed"]
        state, retired = reply["state"], reply["retired"]
        if state == "running" and reply["executed"] != plan["slice"]:
            stats.failed.append(f"step: session {sid} ran "
                                f"{reply['executed']} of {plan['slice']}")
        if state != "running":
            break
    reply = await request(sid, op="query", session=sid, hash=True,
                          audit=True)
    if reply.get("ok"):
        outcome.update(state=state, retired=retired,
                       state_hash=reply.get("state_hash"),
                       audit_head=reply["audit"]["head"])
        stats.sessions.append(outcome)
    await request(sid, op="destroy", session=sid)


async def _client(path: str, index: int, seed: int, deadline: float,
                  stats: Stats) -> None:
    """Whole cycles of sessions until the deadline has passed."""
    from repro.serve.loadgen import Client

    client = await Client.connect(path)
    try:
        session = 0
        with spans.TRACER.span("serve.client", lane=f"client-{index}"):
            while perf_counter() < deadline:
                began = perf_counter()
                for _ in range(CYCLE):
                    await _session(client, stats,
                                   session_plan(seed, index, session))
                    session += 1
                stats.cycles.append(perf_counter() - began)
    finally:
        await client.close()


class Server:
    """An in-process front end plus its workers, warmed for KEYS."""

    def __init__(self, workers: int):
        self.workers = workers
        self.path = os.path.join(SOCKET_DIR, f"s{os.getpid()}.sock")
        self.task: "Optional[asyncio.Task]" = None
        self.warm_s = 0.0
        # CPU time start() took, workers included, and their pids.
        self.setup_cpu_s = 0.0
        self.pids: "List[int]" = []
        # Summed peak resident set of the workers, read at stop.
        self.workers_kib = 0

    async def start(self) -> None:
        import multiprocessing

        from repro.serve.loadgen import Client
        from repro.serve.server import serve

        os.makedirs(SOCKET_DIR, exist_ok=True)
        began_cpu = common.cpu_seconds()
        before = {child.pid for child in multiprocessing.active_children()}
        bound = asyncio.Event()
        self.task = asyncio.create_task(serve(
            path=self.path, workers=self.workers,
            ready=lambda _address: bound.set()))
        await asyncio.wait_for(bound.wait(), timeout=60)
        control = await Client.connect(self.path)
        try:
            began = perf_counter()
            for workload, variant in KEYS:
                reply = await control.request(
                    op="warm", **pool_fields({"workload": workload,
                                              "variant": variant}))
                if not reply.get("ok"):
                    raise RuntimeError(f"warm {workload}/{variant}: "
                                       f"{reply.get('error')}")
            self.warm_s = perf_counter() - began
        finally:
            await control.close()
        self.pids = [child.pid for child in multiprocessing.active_children()
                     if child.pid not in before]
        self.setup_cpu_s = (common.cpu_seconds() - began_cpu
                            + common.process_cpu_seconds(self.pids))

    async def stop(self) -> None:
        if self.task is None:
            return
        self.workers_kib = common.children_peak_kib()
        self.task.cancel()
        try:
            await self.task
        except asyncio.CancelledError:
            pass
        self.task = None


async def _measure(server: Server, clients: int, seed: int,
                   seconds: float, name: str) -> Stats:
    stats = Stats()
    stats.clients = clients
    began_cpu = (common.cpu_seconds()
                 + common.process_cpu_seconds(server.pids))
    deadline = perf_counter() + seconds
    with spans.TRACER.span(name, workers=server.workers, clients=clients):
        await asyncio.gather(*(
            _client(server.path, index, seed, deadline, stats)
            for index in range(clients)))
    stats.cpu_s = (common.cpu_seconds()
                   + common.process_cpu_seconds(server.pids) - began_cpu
                   - sum(stats.reference_s))
    return stats


def _cpu_handle(handle):
    """Worker.handle, with the CPU time it took in the reply.

    Before a step, outside its timing, the worker also samples the
    reference kernel when half a second of its CPU time has passed
    since the last sample, and the reply carries the sample home.
    """
    speed = common.HostSpeed()

    def wrapper(self, request):
        reference = speed.tick() if request.get("op") == "step" else None
        began = common.cpu_seconds()
        reply = handle(self, request)
        reply["_cpu_us"] = (common.cpu_seconds() - began) * 1e6
        if reference is not None:
            reply["_reference_us"] = reference * 1e6
        return reply
    return wrapper


def _traced_handle(handle):
    """Worker.handle, timed; the reply carries the worker's spans home.

    Spans of a ``warm`` stay buffered and ride on the next reply: the
    front end answers a warm with a summary, not the worker replies.
    """
    def wrapper(self, request):
        with spans.TRACER.span("serve.handle", op=request.get("op"),
                               sid=request.get("session")):
            reply = handle(self, request)
        if request.get("op") != "warm":
            reply["_perfbench"] = spans.TRACER.drain()
        return reply
    return wrapper


def check_outputs(result: common.Result, stats: Stats) -> None:
    for failure in stats.failed:
        result.check(False, f"serve {failure}")
    result.check(bool(stats.sessions), "serve: no session completed")
    groups: "Dict[tuple, set]" = {}
    for session in stats.sessions:
        key = (session["workload"], session["variant"], session["steps"],
               session["slice"])
        groups.setdefault(key, set()).add(
            (session["retired"], session["state"], session["state_hash"],
             session["audit_head"]))
    for key, outcomes in groups.items():
        result.check(len(outcomes) == 1,
                     f"serve group {key}: {len(outcomes)} different "
                     f"outcomes")
    result.put("serve.groups", len(groups), "count")


def _put_stats(result: common.Result, stats: Stats, prefix: str) -> None:
    mean = (lambda values: sum(values) / len(values) if values else 0.0)
    steps = len(stats.step_ms)
    result.put(f"{prefix}sessions_per_s", stats.sessions_per_s(), "1/s")
    result.put(f"{prefix}create_p50_ms",
               common.percentile(stats.create_ms, 0.5), "ms")
    result.put(f"{prefix}step_p50_ms",
               common.percentile(stats.step_ms, 0.5), "ms")
    result.put(f"{prefix}step_p95_ms",
               common.percentile(stats.step_ms, 0.95), "ms")
    result.put(f"{prefix}step_samples", steps, "count")
    result.put(f"{prefix}fork_ms", mean(stats.fork_ms), "ms")
    result.put(f"{prefix}step_service_ms", mean(stats.service_ms), "ms")
    result.put(f"{prefix}step_wait_ms",
               mean([c - s for c, s in zip(stats.step_ms,
                                           stats.service_ms)]), "ms")


async def _run(args, result: common.Result, tracer) -> None:
    import repro.serve.worker as worker_module

    setup_times: "List[float]" = []
    warm_times: "List[float]" = []
    server = None
    for _ in range(common.SETUP_REPEATS):
        if server is not None:
            await server.stop()
        server = Server(args.workers)
        with spans.TRACER.span("serve.setup", workers=args.workers):
            await server.start()
        setup_times.append(server.setup_cpu_s)
        warm_times.append(server.warm_s)
    seconds = args.seconds / 2 if tracer is not None else args.seconds
    try:
        stats = await _measure(server, args.clients, args.seed, seconds,
                               "serve.run")
    finally:
        await server.stop()
    # The measured server's workers hold the most sessions.
    result.put("peak_rss_mib", common.peak_rss_mib(server.workers_kib),
               "MiB")
    result.speed.samples.extend(stats.reference_s)
    scale = result.speed.scale()
    result.put("setup_s", common.median(setup_times) * scale, "s")
    result.put("serve.warm_s", common.median(warm_times), "s")
    measured = [stats]

    if tracer is not None:
        untraced = stats
        tracer.begin()
        original = worker_module.Worker.__dict__["handle"]
        worker_module.Worker.handle = _traced_handle(original)
        try:
            for workers, name in ((args.workers, "serve.run"),
                                  (1, "serve.run_1w")):
                server = Server(workers)
                with spans.TRACER.span("serve.setup", workers=workers):
                    await server.start()
                try:
                    measured.append(await _measure(
                        server, args.clients, args.seed, seconds, name))
                finally:
                    await server.stop()
        finally:
            worker_module.Worker.handle = original
            tracer.end()
        stats, one_worker = measured[1], measured[2]
        result.put("serve.sessions_per_s_1w", one_worker.sessions_per_s(),
                   "1/s")
        result.put("trace.overhead",
                   untraced.sessions_per_s() / stats.sessions_per_s(),
                   "ratio")

    for each in measured:
        check_outputs(result, each)
        result.attempted += each.requests
    _put_stats(result, stats, "serve.")
    seconds = stats.cpu_s * scale
    step_ms = [elapsed * scale for elapsed in stats.step_cpu_ms]
    result.put("sim_mips", stats.executed / seconds / 1e6, "MIPS")
    result.put("ops_per_s", stats.requests / seconds, "1/s")
    result.put("latency_p50_ms", common.percentile(step_ms, 0.50), "ms")
    result.put("latency_p95_ms", common.percentile(step_ms, 0.95), "ms")


def run(args, result: common.Result, tracer=None) -> None:
    import repro.serve.worker as worker_module

    # Installed before the workers fork, so every worker times itself.
    original = worker_module.Worker.__dict__["handle"]
    worker_module.Worker.handle = _cpu_handle(original)
    try:
        asyncio.run(_run(args, result, tracer))
    finally:
        worker_module.Worker.handle = original
