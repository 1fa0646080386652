"""Tests of the benchmark itself (not of the simulator).

    python3 -m pytest perfbench/tests

Tiny runs of every workload go through the real command line; the
checks and the span arithmetic are tested in-process.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

import common
import spans
import sweep

RUN = os.path.join(common.HERE, "run.py")
SPEC = json.load(open(os.path.join(common.ROOT, "BENCHMARK.json"),
                      encoding="utf-8"))
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

# The ROADMAP anchor: the scale-8 reference sweep on every tier.
ANCHOR_CYCLES = 90_896_556
ANCHOR_INSTRUCTIONS = 42_023_910

# The sweep's tiny run takes the default seed, so it also checks the
# measured outputs against the pinned reference.
SEED = {"sweep": 0, "serve": 5, "fuzz": 5}


def bench(*argv, cwd=common.ROOT):
    return subprocess.run([sys.executable, RUN, *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["sweep", "serve", "fuzz"])
def test_tiny_run_prints_every_metric(workload, trace):
    seed = SEED[workload]
    done = bench("--workload", workload, "--seed", str(seed),
                 "--seconds", "0.5", "--trace", str(trace))
    assert done.returncode == 0, done.stdout + done.stderr
    result = last_json(done.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = PER_LAYER if trace else E2E
    assert list(result["metrics"]) == names
    units = {m["name"]: m["unit"]
             for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, name
    for name in names:
        assert f"{workload} {name} = " in done.stdout
    assert '"cpu_count"' in done.stdout
    if trace:
        metrics = result["metrics"]
        assert metrics["trace.top_level_coverage"]["value"] >= 0.95
        path = os.path.join(common.ROOT, ".bench_out",
                            f"trace-{workload}-{seed}.json")
        events = json.load(open(path, encoding="utf-8"))["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)


def test_serve_refuses_oversubscription():
    done = bench("--workload", "serve", "--seed", "1", "--seconds", "1",
                 "--trace", "0", "--workers", str(common.cpu_count() + 1))
    assert done.returncode == 2
    assert "refusing" in done.stderr
    assert not done.stdout.strip()


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(os.path.join(common.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(common.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert done.returncode != 0
    assert not done.stdout.strip()


# -- output checks ------------------------------------------------------------


def _pinned_pass() -> dict:
    pinned = sweep.load_reference()["sweep"]["programs"]
    return {key: dict(arch, state="exited") for key, arch in pinned.items()}


def test_reference_check_passes_on_the_reference():
    result = common.Result()
    reference = sweep.load_reference()["sweep"]["programs"]
    sweep.check_outputs(result, [_pinned_pass()], 0, reference=reference)
    assert result.correct, result.errors


def test_reference_off_by_one_cycle_fails():
    result = common.Result()
    reference = copy.deepcopy(sweep.load_reference()["sweep"]["programs"])
    reference["429.mcf/vcall"]["cycles"] += 1
    sweep.check_outputs(result, [_pinned_pass()], 0, reference=reference)
    assert not result.correct
    assert result.failed == 1
    assert "429.mcf/vcall" in result.errors[0]


def test_variant_exit_code_disagreement_fails():
    result = common.Result()
    outputs = _pinned_pass()
    outputs["401.bzip2/vcall"]["exit_code"] += 1
    sweep.check_outputs(result, [outputs], 0, reference={})
    assert any("variants disagree" in e for e in result.errors)


def test_reference_anchor_totals():
    reference = sweep.load_reference()
    assert reference["tier"] == "slow"
    anchor = reference["anchor"]
    assert anchor["scale"] == 8.0
    assert sum(r["cycles"] for r in anchor["programs"].values()) \
        == anchor["cycles"] == ANCHOR_CYCLES
    assert sum(r["instructions"] for r in anchor["programs"].values()) \
        == anchor["instructions"] == ANCHOR_INSTRUCTIONS
    assert reference["sweep"]["scale"] == sweep.SCALE
    assert set(reference["sweep"]["programs"]) == {
        f"{p}/{v}" for p in sweep.PROGRAMS for v in sweep.VARIANTS}


# -- spans --------------------------------------------------------------------


@pytest.fixture
def traced_sweep():
    spans.TRACER.drain()
    spans.install()
    try:
        with spans.TRACER.span("sweep.setup"):
            prepared = sweep.prepare(0, 0.02)
        with spans.TRACER.span("sweep.run"):
            for _name, _variant, kernel, process in prepared[:2]:
                sweep.run_prepared(kernel, process)
    finally:
        spans.uninstall()
    return spans.TRACER.drain()["spans"]


def test_spans_nest_and_self_times_sum_to_parent(traced_sweep):
    by_id = {s["id"]: s for s in traced_sweep}
    names = {s["name"] for s in traced_sweep}
    assert {"workloads.generate", "compiler.compile", "asm.assemble",
            "asm.link", "soc.build_system", "kernel.create_process",
            "kernel.run"} <= names
    children = {}
    for span in traced_sweep:
        parent = span["parent"]
        if parent is None:
            continue
        outer = by_id[parent]
        assert outer["start"] <= span["start"] <= span["end"] \
            <= outer["end"]
        children.setdefault(parent, []).append(span)
    own = spans.self_times(traced_sweep)

    def subtree_self(span_id):
        return own[span_id] + sum(subtree_self(c["id"])
                                  for c in children.get(span_id, ()))

    for span in traced_sweep:
        if span["parent"] is None:
            duration = span["end"] - span["start"]
            assert subtree_self(span["id"]) == pytest.approx(duration,
                                                             abs=1e-9)
    assert by_id[next(s["id"] for s in traced_sweep
                      if s["name"] == "asm.assemble")]["parent"] in {
        s["id"] for s in traced_sweep if s["name"] == "compiler.compile"}


def test_uninstall_restores_every_entry_point():
    from repro.kernel.kernel import Kernel

    original = Kernel.__dict__["run"]
    spans.install()
    assert Kernel.__dict__["run"] is not original
    spans.uninstall()
    assert Kernel.__dict__["run"] is original


# -- host speed ---------------------------------------------------------------


def test_host_speed_scales_to_the_reference_kernel_time():
    speed = common.HostSpeed()
    speed.samples = [0.030, 0.040, 0.050]
    assert speed.scale() == pytest.approx(common.REFERENCE_S / 0.040)


def test_host_speed_ticks_once_per_interval():
    speed = common.HostSpeed(every=3600.0)
    assert speed.tick() is not None
    assert speed.tick() is None
    assert len(speed.samples) == 1 and speed.samples[0] > 0


# -- the benchmark's own description -----------------------------------------


def test_every_per_layer_metric_names_what_it_moves():
    layers = json.load(open(os.path.join(common.HERE, "layers.json"),
                            encoding="utf-8"))
    assert set(layers) == set(PER_LAYER)
    assert all(entry["moves"] for entry in layers.values())
    assert [w["name"] for w in SPEC["workloads"]] == \
        ["sweep", "serve", "fuzz"]
    assert all(0 < len(w["why"]) <= 200 for w in SPEC["workloads"])
