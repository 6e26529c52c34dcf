import dataclasses
import os
import pathlib
import re
import subprocess
import sys
import time

import pytest

import opfam
from opfam import spectra, verify
from opfam.bracket import NOT_EQUIVALENT
from opfam.errors import InputError
from opfam.families import BOUNDED_POSITIVE, HGrid
from opfam.verify import (
    ALL_SUITES,
    CHECKS,
    CLAIMS,
    FAIL,
    PASS,
    ReportBundle,
    ScenarioConfig,
    _cells_match_one_off,
    _Tally,
    run_suite,
)


def test_registry_sanity():
    ids = [cid for cid, _, _ in CHECKS]
    assert len(ids) == len(set(ids))
    assert all(suite in ALL_SUITES for _, suite, _ in CHECKS)
    assert len(set(CLAIMS.values())) == len(CLAIMS)


def test_every_record_carries_its_claim_anchor():
    bundle = run_suite(ScenarioConfig(seed=3, suites=("bracket", "linalg")))
    ids = [r.check_id for r in bundle.results]
    # CLAIMS lists the records in report order.
    assert ids == [cid for cid in CLAIMS if cid in ids]
    assert all(r.anchor == CLAIMS[r.check_id] for r in bundle.results)


def test_readme_claim_table_matches_claims():
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    table = readme.read_text().split("| check | claim anchor |\n| --- | --- |\n")[1]
    rows = re.findall(r"^\| (\S+) \| (\S+) \|$", table.split("\n\n")[0], re.M)
    assert rows == [(cid.split("-")[0], anchor) for cid, anchor in CLAIMS.items()]


def test_config_validation():
    with pytest.raises(InputError):
        ScenarioConfig(dim_min=1)
    cfg = ScenarioConfig(dim_min=2, dim_max=4)
    assert [cfg.dims(k) for k in range(4)] == [2, 3, 4, 2]


def test_subset_run_deterministic():
    cfg = ScenarioConfig(seed=3, suites=("linalg",))
    b1 = run_suite(cfg)
    b2 = run_suite(cfg)
    assert b1.render_machine() == b2.render_machine()
    assert all(r.suite == "linalg" for r in b1.results)
    assert all(r.verdict == PASS for r in b1.results)
    assert b1.exit_code == 0
    assert "schema=opfam-verify-v1" in b1.render_machine()


def _header(cfg: ScenarioConfig) -> list[str]:
    report = ReportBundle(config=cfg, results=()).render_machine()
    return [line for line in report.splitlines() if not line.startswith("summary=")]


def test_every_config_field_is_in_the_report_header():
    # A setting that can change verdicts must show in the report it changes;
    # out_dir only says where the report goes.
    changed = {
        "seed": 43,
        "dim_min": 3,
        "dim_max": 5,
        "grid": HGrid(tail=7),
        "suites": ("linalg",),
    }
    names = {f.name for f in dataclasses.fields(ScenarioConfig)} - {"out_dir"}
    assert names == set(changed)
    base = ScenarioConfig()
    for name, value in changed.items():
        assert _header(dataclasses.replace(base, **{name: value})) != _header(base), name


def test_unknown_suite_rejected():
    with pytest.raises(InputError):
        run_suite(ScenarioConfig(suites=("nope",)))


def test_seed_changes_report():
    a = run_suite(ScenarioConfig(seed=3, suites=("linalg",)))
    b = run_suite(ScenarioConfig(seed=4, suites=("linalg",)))
    assert a.render_machine() != b.render_machine()


def test_cells_match_one_off():
    assert _cells_match_one_off({(3, 3)}, {(3, 4)})
    assert _cells_match_one_off({(3, 3), (3, 4)}, {(3, 3)})
    assert not _cells_match_one_off({(3, 3)}, {(5, 5)})
    assert not _cells_match_one_off(set(), {(1, 1)})


def test_report_files_written(tmp_path):
    cfg = ScenarioConfig(seed=5, suites=("linalg",), out_dir=str(tmp_path / "rep"))
    bundle = run_suite(cfg)
    report = (tmp_path / "rep" / "report.txt").read_text()
    summary = (tmp_path / "rep" / "summary.txt").read_text()
    assert report == bundle.render_machine()
    assert "verification summary" in summary


def test_crashing_check_becomes_one_fail_record(monkeypatch, tmp_path, capsys):
    cfg = ScenarioConfig(seed=5, suites=("linalg",), out_dir=str(tmp_path / "rep"))
    clean = run_suite(cfg)
    pos, (crash_id, suite, _) = next(
        (k, entry) for k, entry in enumerate(CHECKS) if entry[1] == "linalg"
    )

    def crash(cfg, idx):
        raise RuntimeError("synthetic crash")

    patched = list(CHECKS)
    patched[pos] = (crash_id, suite, crash)
    monkeypatch.setattr(verify, "CHECKS", tuple(patched))
    bundle = run_suite(cfg)

    kept = [r for r in clean.results if r.check_id != crash_id]
    assert [r for r in bundle.results if r.check_id != crash_id] == kept
    (failed,) = [r for r in bundle.results if r.check_id == crash_id]
    assert failed.verdict == FAIL
    assert failed.details == "RuntimeError: synthetic crash"
    assert failed.anchor == "check-raised"
    assert bundle.exit_code == 1
    assert "Traceback" in capsys.readouterr().err
    report = (tmp_path / "rep" / "report.txt").read_text()
    assert report == bundle.render_machine()
    assert f"check={crash_id}|" in report
    assert "repro=opfam verify --seed 5 --suite linalg" in report
    assert crash_id in (tmp_path / "rep" / "summary.txt").read_text()


def _verify_report(out_dir, pin: bool) -> bytes:
    src = os.path.dirname(os.path.dirname(opfam.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    cpu = min(os.sched_getaffinity(0))
    argv = ["verify", "--seed", "42", "--suite", "bracket,family,linalg", "--out", str(out_dir)]
    proc = subprocess.run(
        [sys.executable, "-m", "opfam.cli", *argv],
        capture_output=True,
        env=env,
        timeout=300,
        preexec_fn=(lambda: os.sched_setaffinity(0, {cpu})) if pin else None,
    )
    assert proc.returncode == 0, proc.stderr
    return (out_dir / "report.txt").read_bytes()


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or spectra._usable_cores() < 2,
    reason="needs CPU affinity and two usable cores",
)
def test_the_worker_count_cannot_move_a_byte(tmp_path):
    # Pinned to one CPU the run forks no worker; unpinned it forks one per
    # further usable core.
    assert _verify_report(tmp_path / "pinned", True) == _verify_report(tmp_path / "free", False)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def worker_takes_last(monkeypatch, tmp_path):
    """Patch the linalg suite so a worker runs its last check as `last`.

    The caller's first check waits until the last check has started in
    another process, so the last check runs in a worker on any machine
    that can fork; two usable cores are assumed so one worker is forked.
    """
    if not hasattr(os, "fork"):
        pytest.skip("needs os.fork")
    monkeypatch.setattr(spectra, "_usable_cores", lambda: 2)
    selected = [k for k, entry in enumerate(CHECKS) if entry[1] == "linalg"]
    first, last = selected[0], selected[-1]
    started = tmp_path / "last-started"
    caller = os.getpid()

    def install(last_fn, first_fn=None):
        patched = list(CHECKS)
        first_id, suite, real_first = CHECKS[first]

        def wait_then_first(cfg, idx):
            deadline = time.monotonic() + 60
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.002)
            return (first_fn or real_first)(cfg, idx)

        def in_worker(cfg, idx):
            assert os.getpid() != caller, "the last check ran in the caller"
            started.touch()
            return last_fn(cfg, idx)

        patched[first] = (first_id, suite, wait_then_first)
        patched[last] = (CHECKS[last][0], suite, in_worker)
        monkeypatch.setattr(verify, "CHECKS", tuple(patched))
        return CHECKS[last][0]

    return install


def test_a_check_that_raises_in_a_worker_is_one_fail_record(worker_takes_last, capsys):
    clean = run_suite(ScenarioConfig(seed=5, suites=("linalg",)))

    def crash(cfg, idx):
        raise RuntimeError("synthetic crash in a worker")

    crash_id = worker_takes_last(crash)
    bundle = run_suite(ScenarioConfig(seed=5, suites=("linalg",)))
    _assert_no_child_left()
    assert [r for r in bundle.results if r.check_id != crash_id] == [
        r for r in clean.results if r.check_id != crash_id
    ]
    (failed,) = [r for r in bundle.results if r.check_id == crash_id]
    assert failed.verdict == FAIL and failed.anchor == "check-raised"
    assert failed.details == "RuntimeError: synthetic crash in a worker"
    err = capsys.readouterr().err
    assert "Traceback" in err and "synthetic crash in a worker" in err


def test_a_worker_that_dies_gives_one_fail_record_naming_its_status(worker_takes_last):
    clean = run_suite(ScenarioConfig(seed=5, suites=("linalg",)))

    def die(cfg, idx):
        os._exit(3)

    dead_id = worker_takes_last(die)
    bundle = run_suite(ScenarioConfig(seed=5, suites=("linalg",)))
    _assert_no_child_left()
    assert [r.check_id for r in bundle.results] == [r.check_id for r in clean.results]
    assert [r for r in bundle.results if r.check_id != dead_id] == [
        r for r in clean.results if r.check_id != dead_id
    ]
    (failed,) = [r for r in bundle.results if r.check_id == dead_id]
    assert failed.verdict == FAIL and failed.anchor == "check-raised"
    assert failed.details == "worker ended with exit status 3"


def test_an_interrupt_in_the_caller_propagates_and_reaps_the_workers(worker_takes_last):
    def interrupt(cfg, idx):
        raise KeyboardInterrupt

    def long_check(cfg, idx):
        time.sleep(60)
        return []

    worker_takes_last(long_check, interrupt)
    t0 = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        run_suite(ScenarioConfig(seed=5, suites=("linalg",)))
    _assert_no_child_left()
    # The worker was terminated, not waited for.
    assert time.monotonic() - t0 < 30


def _run_check(check_id: str) -> dict:
    """The records of one registered check at seed 42, by record id."""
    pos, fn = next((k, fn) for k, (cid, _, fn) in enumerate(CHECKS) if cid == check_id)
    return {r.check_id: r for r in fn(ScenarioConfig(), pos)}


def test_tally_one_failing_instance_fails_the_record():
    tally = _Tally()
    assert tally.add("pairs", True) is True
    assert tally.add("pairs", False) is False
    tally.add("pairs", True)
    assert (tally.ok["pairs"], tally.total["pairs"]) == (2, 3)
    assert not tally.passed()
    assert not tally.passed("pairs")


def test_tally_a_criterion_without_instances_fails():
    tally = _Tally()
    assert not tally.passed()
    assert not tally.passed("pairs")
    tally.add("pairs", True)
    assert tally.passed() and tally.passed("pairs")
    assert not tally.passed("pairs", "memberships")
    assert (tally.ok["memberships"], tally.total["memberships"]) == (0, 0)
    assert tally.passed()


def test_tally_passed_reads_the_named_criteria_alone():
    tally = _Tally()
    tally.add("radius", True)
    tally.add("neumann", False)
    tally.add("tails", True)
    assert list(tally.total) == ["radius", "neumann", "tails"]
    assert tally.passed("radius") and tally.passed("tails") and tally.passed("radius", "tails")
    assert not tally.passed("neumann")
    assert not tally.passed()


def test_a_wrong_equivalence_verdict_fails_sup06(monkeypatch):
    real = verify.asym_qn_equivalent
    calls = []

    def third_not_equivalent(f, g, grid):
        calls.append(None)
        rep = real(f, g, grid)
        return dataclasses.replace(rep, verdict=NOT_EQUIVALENT) if len(calls) == 3 else rep

    monkeypatch.setattr(verify, "asym_qn_equivalent", third_not_equivalent)
    rec = _run_check("sup06-bounded-asym-implies-qn")["sup06-bounded-asym-implies-qn"]
    assert len(calls) == 12
    assert rec.verdict == FAIL
    assert dict(rec.metrics) == {"pairs_ok": 11.0}


def test_a_persistent_commutator_fails_ac10_and_ac10b(monkeypatch):
    real = verify.commute_in_limit

    def bounded_positive(f, g, grid):
        return dataclasses.replace(real(f, g, grid), limit_verdict=BOUNDED_POSITIVE)

    monkeypatch.setattr(verify, "commute_in_limit", bounded_positive)
    recs = _run_check("ac10-commuting-local-invariance")
    pairs = recs["ac10-commuting-local-invariance"]
    members = recs["ac10b-spectral-space-equality"]
    assert pairs.verdict == FAIL and members.verdict == FAIL
    assert dict(pairs.metrics) == {"pairs_ok": 0.0, "pairs_total": 20.0}
    assert dict(members.metrics) == {"memberships_ok": 0.0, "memberships_total": 0.0}


def test_sup10_needs_the_neumann_certificate(monkeypatch):
    real = verify.probe_resolvent

    def no_certificate(fam, lam, grid):
        return dataclasses.replace(real(fam, lam, grid), neumann=False)

    monkeypatch.setattr(verify, "probe_resolvent", no_certificate)
    rec = _run_check("sup10-radius-remarks")["sup10-radius-remarks"]
    assert rec.verdict == FAIL
    assert dict(rec.metrics) == {"radius_ok": 1.0, "neumann_ok": 0.0, "tails_ok": 1.0}
