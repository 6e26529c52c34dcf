"""Tests of the benchmark itself, on smoke-sized workloads."""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
import scipy.linalg

import run
import workloads
from tracer import Tracer

run.import_opfam()

import opfam.cli  # noqa: E402
import opfam.emit  # noqa: E402
import opfam.families  # noqa: E402
import opfam.spectra  # noqa: E402
import opfam.verify  # noqa: E402

SMOKE = {
    "scan-spectrum": functools.partial(workloads.scan_spectrum, dims=(2,)),
    "scan-local": functools.partial(workloads.scan_local, dims=(2,)),
    "verify-core": functools.partial(workloads.verify_core, count=1),
}


def _benchmark_json() -> dict:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _smoke(tmp_path, name, trace, seed=3):
    tmp_path.mkdir(exist_ok=True)
    return run.run_benchmark(name, seed, 1e-3, trace, str(tmp_path), factory=SMOKE[name])


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_smoke_run_of_each_workload(tmp_path, name):
    result, detail, measured = _smoke(tmp_path, name, trace=False)
    metrics = result.pop("metrics")
    assert result == {"correct": True, "attempted": len(measured.workload.ops), "failed": 0}
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {
        k: v["unit"] for k, v in metrics.items()
    }
    assert all(v["value"] > 0 for v in metrics.values())
    assert len(detail["verdict_sha256"]) == 64


def _wrapped_names() -> dict:
    """The bindings the tracer rebinds, as they stand now."""
    return {
        "cli.family_spectrum_grid": opfam.cli.family_spectrum_grid,
        "cli.family_local_spectrum_grid": opfam.cli.family_local_spectrum_grid,
        "cli.grid_to_csv": opfam.cli.grid_to_csv,
        "spectra.family_spectrum_grid": opfam.spectra.family_spectrum_grid,
        "verify.CHECKS": opfam.verify.CHECKS,
        "verify.checks": [fn for _, _, fn in opfam.verify.CHECKS],
        "verify.spectral_decomp": opfam.verify.spectral_decomp,
        "eval_stack": opfam.families.OperatorFamily.eval_stack,
        "svd": np.linalg.svd,
        "lu": scipy.linalg.lu_factor,
    }


# The layer each smoke workload must reach through the bindings that the
# tracer patches by name.
TRACED_LAYER = {
    "scan-spectrum": "spectra.grid_s.const2",
    "scan-local": "local.grid_s.const2",
    "verify-core": "verify.check_s.ac01-bracket-recurrence",
}


@pytest.mark.parametrize("name", sorted(SMOKE))
def test_traced_run_matches_untraced_run_and_restores_every_wrapper(tmp_path, name):
    originals = _wrapped_names()
    plain, plain_detail, _ = _smoke(tmp_path / "plain", name, trace=False)
    traced, traced_detail, _ = _smoke(tmp_path / "traced", name, trace=True)
    layers = traced["metrics"]
    assert plain["correct"] and traced["correct"]
    assert plain["failed"] == traced["failed"] == 0
    assert plain_detail["verdict_sha256"] == traced_detail["verdict_sha256"]
    assert layers[TRACED_LAYER[name]]["value"] > 0
    if name != "verify-core":
        # The CLI binds grid_to_csv by name: its spans only exist if the
        # tracer patched the CLI's own binding.
        assert layers["emit.csv_s"]["value"] > 0
    spec = _benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        k: v["unit"] for k, v in layers.items()
    }
    assert _wrapped_names() == originals


def test_tracer_wraps_check_registry_and_counts_batched_matrices():
    original = opfam.verify.CHECKS
    tracer = Tracer()
    with tracer:
        assert [fn.__wrapped__ for _, _, fn in opfam.verify.CHECKS] == [fn for _, _, fn in original]
        tracer.op, tracer.active = 4, True
        np.linalg.svd(np.zeros((5, 3, 2, 2)), compute_uv=False)
        tracer.active = False
    assert tracer.counts["mats.svd", 4] == 15
    assert opfam.verify.CHECKS is original


def _write_grid(paths: dict, classes: np.ndarray) -> None:
    """Rewrite the CSV and PGM outputs of a scan with another class grid."""
    with open(paths["csv"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    chars = {v: k for k, v in workloads.CLASS_CODES.items()}
    for row, code in enumerate(classes.ravel(), start=1):
        cols = lines[row].split(",")
        cols[2] = chars[int(code)]
        lines[row] = ",".join(cols)
    with open(paths["csv"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    ny, nx = classes.shape
    rows = [" ".join(str(workloads.PGM_LEVELS[int(c)]) for c in classes[iy]) for iy in range(ny - 1, -1, -1)]
    with open(paths["pgm"], "w", encoding="utf-8") as fh:
        fh.write("\n".join(["P2", f"{nx} {ny}", "255", *rows]) + "\n")


@pytest.mark.parametrize("name", ["scan-spectrum", "scan-local"])
def test_corrupted_class_grid_counts_as_failed(tmp_path, name):
    workload = SMOKE[name](5, str(tmp_path))
    op = workload.ops[0]
    res = int(round(op.cells**0.5))
    verb = "spectrum" if name == "scan-spectrum" else "local-spectrum"
    paths = workloads._output_paths(str(tmp_path), f"{op.label}.{verb}")

    good = run.measure(workload, 1e-3)
    assert good.failed == 0

    original = op.run

    def corrupted():
        status = original()
        classes = workloads.read_csv_classes(paths["csv"], res)
        _write_grid(paths, np.roll(classes, res // 4, axis=1))
        return status

    op.run = corrupted
    bad = run.measure(workload, 1e-3)
    assert bad.failed == 1
    assert bad.failures == [f"{op.label}: spectrum cells differ from the oracle"]


def test_a_call_that_fails_after_the_first_pass_counts_once():
    calls = []

    def sleep_then_raise_on_second_call():
        calls.append(None)
        time.sleep(0.01)
        if len(calls) == 2:
            raise RuntimeError("injected")

    op = workloads.Op(
        label="op",
        size=1,
        run=sleep_then_raise_on_second_call,
        check=lambda _: workloads.Outcome(True, b"verdict"),
    )
    # 10 ms a call, so 35 ms of operation time takes at least four calls.
    measured = run.measure(workloads.Workload(ops=[op], warmup=lambda: None), 0.035)
    assert measured.attempted >= 4
    assert measured.failed == 1
    assert len(measured.failures) == 1 and "injected" in measured.failures[0]


def test_exits_nonzero_without_result_in_a_bare_checkout(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "scan-local", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
