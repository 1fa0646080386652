"""The ``fuzz`` workload: guided campaigns with a fixed budget.

Runs :class:`repro.fuzz.Campaign` in-process (``workers=1``) with a
fixed execution budget. The worker count is part of the workload: the
feedback batch is 8 x workers, so the findings change with it.
The seed is the seed of campaign 0; see :func:`run` for the others.
"""

from __future__ import annotations

from typing import List

import common
import spans

BUDGET = 48
WORKERS = 1
MIN_CAMPAIGNS = 3
# Untimed warm-up campaign: lazy imports and first-use set-up stay out
# of the figures.
WARMUP_BUDGET = 8


class _Probe:
    """Counts guest instructions retired in ``Kernel.run`` and times
    every ``WarmVictimPool.execute``. The campaign keeps its machines
    and executions to itself, so these are the calls to watch; the cost
    is two clock reads per call of tens of milliseconds. Before an
    execution, outside its timing, it also ticks ``speed``."""

    def __init__(self, speed: common.HostSpeed):
        self.speed = speed
        self.instret = 0
        self.execute_ms: "List[float]" = []
        self._originals = []

    def __enter__(self):
        from repro.fuzz.executor import WarmVictimPool
        from repro.kernel.kernel import Kernel

        probe = self
        run = Kernel.__dict__["run"]
        execute = WarmVictimPool.__dict__["execute"]

        def counted_run(kernel, *args, **kwargs):
            before = kernel.system.core.instret
            try:
                return run(kernel, *args, **kwargs)
            finally:
                probe.instret += kernel.system.core.instret - before

        def timed_execute(*args, **kwargs):
            probe.speed.tick()
            began = common.cpu_seconds()
            try:
                return execute(*args, **kwargs)
            finally:
                probe.execute_ms.append(
                    (common.cpu_seconds() - began) * 1e3)

        self._originals = [(Kernel, "run", run),
                           (WarmVictimPool, "execute", execute)]
        Kernel.run = counted_run
        WarmVictimPool.execute = timed_execute
        return self

    def __exit__(self, *exc):
        for owner, name, original in self._originals:
            setattr(owner, name, original)


def campaign_seed(seed: int, index: int) -> int:
    return seed if index == 0 else seed * 7919 + index


def one_campaign(seed: int, budget: int = BUDGET):
    """Run one campaign; returns (report, CPU seconds)."""
    from repro.fuzz import Campaign

    began = common.cpu_seconds()
    report = Campaign(executions=budget, workers=WORKERS, mode="guided",
                      seed=seed).run()
    return report, common.cpu_seconds() - began


def check_report(result: common.Result, report) -> None:
    tag = f"fuzz seed {report.seed}"
    result.check(report.executions == BUDGET,
                 f"{tag}: {report.executions} of {BUDGET} executions")
    result.check(report.errors == 0, f"{tag}: {report.errors} errors")
    result.check(not report.result.escapes,
                 f"{tag}: {len(report.result.escapes)} escapes")
    result.check(report.unexplained_escapes == 0,
                 f"{tag}: {report.unexplained_escapes} unexplained")
    result.check(report.ok, f"{tag}: campaign not ok")


def fingerprint(report) -> tuple:
    return (report.unique_signatures, tuple(report.coverage_curve),
            report.result.table.to_dict().__repr__())


def run(args, result: common.Result, tracer=None) -> None:
    """The measured campaigns; fills ``result`` with every metric.

    Campaign 0 takes the run's seed, and further campaigns take seeds
    derived from it, until the measured time reaches ``--seconds``. The
    victims a campaign builds, and so its cost, depend strongly on its
    seed; many short campaigns per run keep that from setting the
    figures. ``fuzz.unique_signatures`` is campaign 0's, so it repeats
    exactly for a seed.
    """
    def measured_campaign(seed: int):
        taken = len(result.speed.samples)
        report, cpu = one_campaign(seed)
        # The reference kernel's own time is not the campaign's.
        return report, cpu - sum(result.speed.samples[taken:])

    one_campaign(campaign_seed(args.seed, -1), budget=WARMUP_BUDGET)
    reports = []
    cpu_times: "List[float]" = []
    with _Probe(result.speed) as probe:
        if tracer is not None:
            # Campaign 0 untraced first: the same work, so the CPU-time
            # ratio is the tracing overhead, and tracing must not change
            # a single finding.
            untraced, untraced_cpu = measured_campaign(args.seed)
            check_report(result, untraced)
            probe.instret, probe.execute_ms = 0, []
            tracer.begin()
        while (len(cpu_times) < MIN_CAMPAIGNS
               or sum(cpu_times) < args.seconds):
            seed = campaign_seed(args.seed, len(cpu_times))
            with spans.TRACER.span("fuzz.campaign", seed=seed):
                report, cpu = measured_campaign(seed)
            reports.append(report)
            cpu_times.append(cpu)
        if tracer is not None:
            tracer.end()
            result.check(fingerprint(reports[0]) == fingerprint(untraced),
                         f"fuzz seed {args.seed}: tracing changed the "
                         f"campaign's findings")
            result.put("trace.overhead", cpu_times[0] / untraced_cpu, "ratio")
    result.put("peak_rss_mib", common.peak_rss_mib(), "MiB")
    executions = sum(report.executions for report in reports)
    for report in reports:
        check_report(result, report)
    result.attempted += executions
    scale = result.speed.scale()
    seconds = sum(cpu_times) * scale
    execute_ms = [elapsed * scale for elapsed in probe.execute_ms]
    result.put("sim_mips", probe.instret / seconds / 1e6, "MIPS")
    result.put("ops_per_s", executions / seconds, "1/s")
    result.put("latency_p50_ms", common.percentile(execute_ms, 0.50), "ms")
    result.put("latency_p95_ms", common.percentile(execute_ms, 0.95), "ms")
    first = reports[0]
    result.put("fuzz.unique_signatures", first.unique_signatures, "count")
    result.put("fuzz.novel_frac",
               first.unique_signatures / first.executions, "ratio")
