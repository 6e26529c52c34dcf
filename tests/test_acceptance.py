"""Acceptance gate: every criterion runs at its stated tolerance and budget.

Each test prints one pass/fail line.  The checks themselves live in
opfam.verify (shared with `opfam verify`); this module pins the runtime
budgets and runs the determinism criterion through the real CLI.
"""

import os
import re
import subprocess
import sys
import time

import pytest

from opfam.verify import CHECKS, CLAIMS, PASS, ScenarioConfig

CFG = ScenarioConfig(seed=42)


def _run_check(check_id: str):
    for pos, (cid, suite, fn) in enumerate(CHECKS):
        if cid == check_id:
            t0 = time.perf_counter()
            results = fn(CFG, pos)
            elapsed = time.perf_counter() - t0
            return results, elapsed
    raise KeyError(check_id)


def _gate(criterion: str, check_id: str, budget_s: float | None = None):
    results, elapsed = _run_check(check_id)
    ok = all(r.verdict == PASS for r in results)
    within = budget_s is None or elapsed <= budget_s
    status = "PASS" if (ok and within) else "FAIL"
    budget = f" ({elapsed:.1f}s / {budget_s:.0f}s)" if budget_s else f" ({elapsed:.1f}s)"
    print(f"criterion {criterion}: {status}{budget}")
    for r in results:
        assert r.verdict == PASS, f"{r.check_id}: {r.details} {dict(r.metrics)}"
    if budget_s is not None:
        assert elapsed <= budget_s, f"{check_id} took {elapsed:.1f}s > {budget_s}s"


def test_criterion_01_bracket_correctness():
    _gate("1", "ac01-bracket-recurrence", 5.0)


def test_criterion_02_qn_instance_suite():
    _gate("2", "ac02-qn-pairs", 30.0)


def test_criterion_03_non_equivalence_control():
    _gate("3", "ac03-non-equivalence-control")


def test_criterion_04_family_spectrum_vs_oracle():
    _gate("4", "ac04-spectrum-grid-oracle", 300.0)


def test_criterion_05_asymptotic_pseudospectrum():
    _gate("5", "ac05-asymptotic-pseudospectrum", 30.0)


def test_criterion_06_quotient_sandwich():
    _gate("6", "ac06-quotient-sandwich")


def test_criterion_07_resolvent_identity_uniqueness():
    _gate("7", "ac07-resolvent-identity-uniqueness")


def test_criterion_08_spectrum_invariance():
    _gate("8", "ac08-spectrum-invariance")


def test_criterion_09_local_oracle():
    _gate("9", "ac09-local-oracle")


def test_criterion_10_commuting_local_suite():
    _gate("10", "ac10-commuting-local-invariance", 600.0)


def test_criterion_11_local_remark_chain():
    _gate("11", "ac11-local-remark-chain")


def _verify_cli(seed, out_dir, extra=(), env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "opfam.cli", "verify", "--seed", str(seed), "--out", out_dir, *extra],
        capture_output=True,
        text=True,
        env=env,
        timeout=1200,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(os.path.join(out_dir, "report.txt"), "rb") as fh:
        return fh.read()


@pytest.mark.slow
def test_criterion_12_determinism(tmp_path, blas_thread_env):
    t0 = time.perf_counter()
    rep1 = _verify_cli(42, str(tmp_path / "r1"))
    rep2 = _verify_cli(42, str(tmp_path / "r2"))
    assert rep1 == rep2, "full verify reports differ between runs"

    # Different BLAS/OpenMP parallelism settings must not move a byte.
    sub = ("--suite", "bracket,family,linalg")
    rep3 = _verify_cli(42, str(tmp_path / "r3"), sub, blas_thread_env(1))
    rep4 = _verify_cli(42, str(tmp_path / "r4"), sub, blas_thread_env(4))
    assert rep3 == rep4, "subset reports differ across thread counts"

    text = rep1.decode()
    records = set(re.findall(r"^check=([^|]*)\|suite=[^|]*\|anchor=([^|]*)\|", text, re.M))
    missing = [pair for pair in CLAIMS.items() if pair not in records]
    assert not missing, f"claims without a record carrying their anchor: {missing}"
    print(f"criterion 12: PASS ({time.perf_counter() - t0:.1f}s)")
