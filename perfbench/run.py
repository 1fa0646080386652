"""Benchmark of the ROLoad simulator: one command, three workloads.

    python3 perfbench/run.py --workload {sweep,serve,fuzz} --seed N
                             --seconds S --trace {0,1}

Run from the repository root; the simulator is imported from ``src/``.
Every workload uses the default configuration (all interpreter tiers
on, observability off). Host times in the end-to-end metrics are CPU
time, which leaves out the time a shared virtual machine's vCPU spends
running other guests (see ``common.cpu_seconds``), scaled to a
reference host speed measured during the run (``common.HostSpeed``).
The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The traced run also writes a Chrome trace-event file
(opens in Perfetto) under ``.bench_out/``.

Exit status: 0 when every output check passed, 1 when one failed (the
result is still printed), 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("sweep", "serve", "fuzz")
OUT_DIR = ".bench_out"


def load_spec() -> dict:
    with open(os.path.join(common.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as handle:
        return json.load(handle)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one benchmark workload and print its metrics.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run printing per-layer metrics")
    parser.add_argument("--clients", type=int, default=None,
                        help="serve: client connections (default nproc)")
    parser.add_argument("--workers", type=int, default=None,
                        help="serve: worker processes (default nproc)")
    return parser


class TraceWindow:
    """The traced part of a run: wrappers installed, spans kept."""

    def __init__(self):
        self.started = self.ended = 0.0

    def begin(self) -> None:
        spans.TRACER.drain()
        spans.install()
        self.started = perf_counter()

    def end(self) -> None:
        self.ended = perf_counter()
        spans.uninstall()


def layer_metrics(result: common.Result, window: TraceWindow) -> None:
    """Per-layer metrics from the spans and counters of the window.

    Every ``*_s`` figure is self time: the span's duration minus what
    its child spans cover, summed over the spans of that name, so the
    layers of one call tree add up to its root. Counters are totals of
    the per-call differences the wrappers took.
    """
    recorded = spans.TRACER.spans
    counters = spans.TRACER.counters
    own = spans.self_seconds_by_name(recorded)
    calls = spans.calls_by_name(recorded)
    count = (lambda name: counters.get(name, 0))
    ratio = (lambda num, den: num / den if den else 0.0)

    for metric, span in (
            ("workloads.generate_s", "workloads.generate"),
            ("compiler.codegen_s", "compiler.compile"),
            ("asm.assemble_s", "asm.assemble"),
            ("asm.link_s", "asm.link"),
            ("soc.build_system_s", "soc.build_system"),
            ("kernel.create_process_s", "kernel.create_process"),
            ("kernel.run_s", "kernel.run"),
            ("replay.snapshot_s", "replay.snapshot"),
            ("replay.restore_s", "replay.restore"),
            ("fuzz.victim_build_s", "fuzz.victim_build"),
            ("fuzz.victim_warm_s", "fuzz.victim_warm"),
            ("fuzz.execute_s", "fuzz.execute"),
            ("fuzz.triage_s", "fuzz.triage")):
        result.put(metric, own.get(span, 0.0), "s")
    runs = count("kernel.run_calls")
    result.put("kernel.run_calls", runs, "count")
    result.put("kernel.instret_per_run", ratio(count("cpu.retired"), runs),
               "count")
    result.put("cpu.top_tier_frac",
               ratio(count("cpu.tier4_retired"), count("cpu.retired")),
               "ratio")
    result.put("cpu.jit_compiled", count("cpu.jit_compiled"), "count")
    result.put("cpu.jit_compile_s", count("cpu.jit_compile_seconds"), "s")
    result.put("cpu.regions_compiled",
               count("cpu.regions_compiled")
               + count("cpu.flat_regions_compiled"), "count")
    result.put("cpu.region_compile_s", count("cpu.region_compile_seconds"),
               "s")
    result.put("cpu.flushes", count("cpu.flushes"), "count")
    for cause in spans.FLUSH_CAUSES + ("other",):
        result.put(f"cpu.flushes.{cause}", count(f"cpu.flushes.{cause}"),
                   "count")
    for kind in ("dtlb", "dcache"):
        misses = count(f"mem.{kind}_misses")
        result.put(f"mem.{kind}_miss_rate",
                   ratio(misses, misses + count(f"mem.{kind}_hits")),
                   "ratio")
    for name in ("mmu_walks", "roload_checks", "private_frames"):
        result.put(f"mem.{name}", count(f"mem.{name}"), "count")
    result.put("fuzz.victim_hit_frac",
               1.0 - ratio(calls.get("fuzz.victim_warm", 0),
                           calls.get("fuzz.execute", 0))
               if calls.get("fuzz.execute") else 0.0, "ratio")
    result.put("trace.spans", len(recorded), "count")
    result.put("trace.top_level_coverage",
               spans.top_level_coverage(recorded, window.started,
                                        window.ended), "ratio")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    spec = load_spec()
    names = [m["name"] for m in
             spec["per_layer" if args.trace else "end_to_end"]]
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    cpus = common.cpu_count()
    args.clients = args.clients or cpus
    args.workers = args.workers or cpus
    if args.workload == "serve" and max(args.clients, args.workers) > cpus:
        print(f"perfbench: refusing {args.clients} clients / "
              f"{args.workers} workers on {cpus} CPUs: an oversubscribed "
              f"host measures queueing, not the server", file=sys.stderr)
        return 2
    sys.path.insert(0, common.SRC)
    try:
        import repro
    except ImportError as error:
        print(f"perfbench: cannot import the simulator from "
              f"{common.SRC}: {error}", file=sys.stderr)
        return 2
    if not os.path.abspath(repro.__file__).startswith(common.SRC + os.sep):
        print(f"perfbench: the simulator must come from {common.SRC}, "
              f"not {repro.__file__}", file=sys.stderr)
        return 2

    import fuzz_load
    import serve_load
    import sweep

    workload = {"sweep": sweep, "serve": serve_load,
                "fuzz": fuzz_load}[args.workload]
    result = common.Result()
    result.host = common.host_shape(
        workload=args.workload, seed=args.seed, trace=args.trace,
        clients=args.clients if args.workload == "serve" else 1,
        workers=args.workers if args.workload == "serve"
        else fuzz_load.WORKERS if args.workload == "fuzz" else 1)
    window = TraceWindow() if args.trace else None
    workload.run(args, result, window)
    # The workload has read its peak memory, so the child processes of
    # the import probe are not counted in it.
    workload_setup = result.metrics.pop("setup_s", (0.0,))[0]
    result.put("setup_s", common.import_seconds("repro") + workload_setup,
               "s")
    result.host["ref_kernel_ms"] = result.speed.kernel_s() * 1e3
    if window is not None:
        layer_metrics(result, window)
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(
            OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        spans.write_chrome_trace(spans.TRACER.spans, trace_path)
        print(f"trace: {trace_path}")

    result.check(result.attempted > 0, "no operation was attempted")
    for name in names:
        if name not in result.metrics:
            # A layer this workload does not exercise reads 0; every
            # end-to-end metric must be measured.
            result.check(bool(args.trace), f"{name} was not measured")
            result.put(name, 0, units[name])
    print(f"host: {json.dumps(result.host, sort_keys=True)}")
    for name in names:
        print(f"{args.workload} {name} = {result.metrics[name][0]:.6g} "
              f"{units[name]}")
    for error in result.errors:
        print(f"CHECK FAILED: {error}")
    print(result.to_json(names, units))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
