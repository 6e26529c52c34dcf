import dataclasses
import pathlib
import re

import pytest

from opfam import verify
from opfam.errors import InputError
from opfam.families import HGrid
from opfam.verify import (
    ALL_SUITES,
    CHECKS,
    CLAIMS,
    FAIL,
    PASS,
    ReportBundle,
    ScenarioConfig,
    _cells_match_one_off,
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
