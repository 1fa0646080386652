"""The ``sweep`` workload: batch evaluation, serial, in one process.

Runs the reference sweep (four SPEC-like programs x ``base``/``vcall``)
through the public toolchain and kernel, exactly as a batch evaluation
does: generate, compile, build a system, load, run to exit. Set-up
(everything before ``Kernel.run``) is timed apart from the run itself.
A pass prepares and runs all eight programs; passes repeat until the
measured run time (CPU time) reaches ``--seconds``.

The seed replaces each profile's generator seed. Seed 0 keeps the
profiles' own seeds, which is what ``reference.json`` pins.
"""

from __future__ import annotations

import dataclasses
import json
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List

import common

PROGRAMS = ("429.mcf", "401.bzip2", "473.astar", "471.omnetpp")
VARIANTS = ("base", "vcall")
SCALE = 0.5
# Untimed warm-up pass: lazy imports and first-use set-up happen once
# per process, not once per program, so they stay out of the figures.
WARMUP_SCALE = 0.02
SYSTEM = "processor+kernel"
MAX_INSTRUCTIONS = 100_000_000
REFERENCE = os.path.join(common.HERE, "reference.json")
ARCH_FIELDS = ("cycles", "instructions", "exit_code", "dcache_miss_rate",
               "dtlb_miss_rate")


def load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as handle:
        return json.load(handle)


def program_profile(name: str, seed: int):
    from repro.workloads import profile
    base = profile(name)
    if seed == 0:
        return base
    return dataclasses.replace(
        base, seed=(base.seed * 1_000_003 + seed) & 0x7FFFFFFF)


def prepare(seed: int, scale: float,
            programs: "tuple" = PROGRAMS) -> "List[tuple]":
    """Generate, compile and load every program; nothing has run yet.

    Calls go through the package attributes so the traced run's
    wrappers see them.
    """
    import repro.compiler
    import repro.soc
    import repro.workloads
    from repro.eval.measure import make_hardening
    from repro.kernel import Kernel

    prepared = []
    for name in programs:
        program = repro.workloads.build_workload(
            program_profile(name, seed), scale=scale)
        for variant in VARIANTS:
            image = repro.compiler.compile_module(
                program.module,
                hardening=make_hardening(variant, program))
            kernel = Kernel(repro.soc.build_system(SYSTEM))
            process = kernel.create_process(image, name=name)
            prepared.append((name, variant, kernel, process))
    return prepared


def run_prepared(kernel, process) -> dict:
    """Run one loaded program to exit; its architectural results."""
    kernel.run(process, max_instructions=MAX_INSTRUCTIONS)
    system = kernel.system
    return {"state": process.state.value,
            "cycles": system.timing.stats.cycles,
            "instructions": system.timing.stats.instructions,
            "exit_code": process.exit_code,
            "dcache_miss_rate": 1.0 - system.dcache.hit_rate,
            "dtlb_miss_rate": 1.0 - system.mmu.dtlb.hit_rate}


def architectural(seed: int, scale: float, tier: "str | None" = None,
                  programs: "tuple" = PROGRAMS) -> "Dict[str, dict]":
    """Every program's architectural results, optionally on a pinned
    interpreter tier (``slow`` is the reference)."""
    from contextlib import nullcontext

    from repro import config

    scope = config.overrides(**config.TIERS[tier]) if tier \
        else nullcontext()
    out = {}
    with scope:
        for name, variant, kernel, process in prepare(seed, scale, programs):
            arch = run_prepared(kernel, process)
            out[f"{name}/{variant}"] = {k: arch[k] for k in ARCH_FIELDS}
    return out


def check_outputs(result: common.Result, passes: "List[Dict[str, dict]]",
                  seed: int,
                  reference: "Dict[str, dict] | None" = None) -> None:
    """Every output check of the sweep; failures land in ``result``.

    The measured outputs are compared with ``reference``, by default
    the slow-tier results of the same seed (see ``slow_reference``).
    """
    first = passes[0]
    for key, arch in first.items():
        result.check(arch["state"] == "exited",
                     f"sweep {key}: did not exit ({arch['state']})")
    for index, other in enumerate(passes[1:], start=1):
        for key, arch in other.items():
            result.check(arch == first[key],
                         f"sweep {key}: pass {index} differs from pass 0")
    for name in PROGRAMS:
        codes = {first[f"{name}/{v}"]["exit_code"] for v in VARIANTS}
        result.check(len(codes) == 1,
                     f"sweep {name}: variants disagree on exit code "
                     f"{sorted(codes)}")
    if reference is None:
        reference = slow_reference(seed)
    for key, expected in reference.items():
        got = {k: first[key][k] for k in ARCH_FIELDS} if key in first \
            else None
        result.check(got == expected,
                     f"sweep {key}: {got} != reference {expected}")


def slow_reference(seed: int) -> "Dict[str, dict]":
    """The slow tier's results for ``seed`` at the sweep scale.

    The default seed is pinned in reference.json; any other seed runs
    on the slow tier now, outside the measured time, one program per
    process and as many processes as there are CPUs.
    """
    pinned = load_reference()["sweep"]
    if seed == pinned["seed"] and pinned["scale"] == SCALE:
        return pinned["programs"]
    reference: "Dict[str, dict]" = {}
    workers = min(common.cpu_count(), len(PROGRAMS))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_slow_program, [seed] * len(PROGRAMS),
                             PROGRAMS):
            reference.update(part)
    return reference


def _slow_program(seed: int, name: str) -> "Dict[str, dict]":
    return architectural(seed, SCALE, tier="slow", programs=(name,))


def run(args, result: common.Result, tracer=None) -> None:
    """The measured sweep; fills ``result`` with every metric.

    Every pass runs the same eight programs, so each program's run time
    is taken as its median over the passes: a slow moment of the host
    moves one sample, not the figure.
    """
    import spans

    seed, seconds = args.seed, args.seconds
    setup_times: "List[float]" = []
    run_times: "Dict[str, List[float]]" = {}
    passes: "List[Dict[str, dict]]" = []
    measured = 0.0

    def one_pass() -> float:
        nonlocal measured
        began = common.cpu_seconds()
        with spans.TRACER.span("sweep.setup"):
            prepared = prepare(seed, SCALE)
        setup_times.append(common.cpu_seconds() - began)
        outputs = {}
        with spans.TRACER.span("sweep.run"):
            for name, variant, kernel, process in prepared:
                result.speed.sample()
                began = common.cpu_seconds()
                arch = run_prepared(kernel, process)
                elapsed = common.cpu_seconds() - began
                result.attempted += 1
                key = f"{name}/{variant}"
                run_times.setdefault(key, []).append(elapsed)
                measured += elapsed
                outputs[key] = arch
        passes.append(outputs)
        return setup_times[-1] + sum(run_times[k][-1] for k in outputs)

    for _name, _variant, kernel, process in prepare(seed, WARMUP_SCALE):
        run_prepared(kernel, process)
    untraced_pass = None
    if tracer is not None:
        # One untraced pass of identical work: the tracing-overhead base.
        untraced_pass = one_pass()
        run_times.clear()
        measured = 0.0
        tracer.begin()
    pass_times = []
    while len(pass_times) < common.SETUP_REPEATS or measured < seconds:
        pass_times.append(one_pass())
    if tracer is not None:
        tracer.end()
    # Before the check: its slow-tier processes are not the workload's.
    result.put("peak_rss_mib", common.peak_rss_mib(), "MiB")

    with spans.TRACER.span("sweep.check"):
        check_outputs(result, passes, seed)

    scale = result.speed.scale()
    typical = {key: common.median(times) * scale
               for key, times in run_times.items()}
    instructions = sum(passes[0][key]["instructions"] for key in typical)
    result.put("setup_s", common.median(setup_times) * scale, "s")
    result.put("sim_mips", instructions / sum(typical.values()) / 1e6,
               "MIPS")
    result.put("ops_per_s", len(typical) / sum(typical.values()), "1/s")
    run_ms = [elapsed * 1e3 for elapsed in typical.values()]
    result.put("latency_p50_ms", common.percentile(run_ms, 0.50), "ms")
    result.put("latency_p95_ms", common.percentile(run_ms, 0.95), "ms")
    for key, elapsed in typical.items():
        name, variant = key.split("/")
        result.put(f"sweep.{name}.{variant}.sim_mips",
                   passes[0][key]["instructions"] / elapsed / 1e6, "MIPS")
    if tracer is not None:
        result.put("trace.overhead",
                   common.median(pass_times) / untraced_pass, "ratio")
