"""Output bytes pinned across commits.

A change that only makes opfam faster must leave these bytes as they are.
Each digest was computed before the family layer's per-grid coefficient
columns landed.  A change that moves a byte updates the digest here and
says which bytes moved and why.
"""

import hashlib

import numpy as np

from opfam.cli import main
from opfam.families import CoeffFn, OperatorFamily
from opfam.fileio import save_family, save_vector
from opfam.verify import ScenarioConfig, run_suite

REPORT_SHA256 = "79d2f602a57858678996f0d685c368b8bc10fbe42f2ef990240eb675546f37b0"
SPECTRUM_CSV_SHA256 = "d038392e6e78bbb2307d377711bbea370cd4732bb6b88f460517356569afe435"
LOCAL_CSV_SHA256 = "85a10bd8e8bae70b1683ad19cb368792ec25e11c0d6102de9ded93b0f23618d2"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _drift_family() -> OperatorFamily:
    """A + h B at d = 3: A upper triangular with eigenvalues 1, -1 + 0.5i, 0.5i."""
    a = np.array(
        [[1.0, 0.25, 0.0], [0.0, -1.0 + 0.5j, 0.5], [0.0, 0.0, 0.5j]], dtype=complex
    )
    b = np.array(
        [[0.0, 1.0, -0.5j], [0.3, 0.0, 0.0], [1.0, 0.2 - 0.1j, 0.0]], dtype=complex
    )
    return OperatorFamily.from_terms(3, [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)])


def test_core_suites_report_is_pinned(tmp_path):
    run_suite(
        ScenarioConfig(seed=42, suites=("bracket", "family", "linalg"), out_dir=str(tmp_path))
    )
    assert _sha256(tmp_path / "report.txt") == REPORT_SHA256


def test_scan_csvs_are_pinned(tmp_path, capsys):
    fam, x = tmp_path / "drift.fam", tmp_path / "x.vec"
    save_family(_drift_family(), fam)
    save_vector(np.array([1.0, 0.5, -0.25j]), x)
    scan = ["--family", str(fam), "--rect", "-2:2:-2:2"]
    spectrum, local = tmp_path / "spectrum.csv", tmp_path / "local.csv"
    assert main(["spectrum", *scan, "--res", "32", "--out", str(spectrum)]) == 0
    assert main(["local-spectrum", *scan, "--x", str(x), "--res", "24", "--out", str(local)]) == 0
    capsys.readouterr()
    assert (_sha256(spectrum), _sha256(local)) == (SPECTRUM_CSV_SHA256, LOCAL_CSV_SHA256)
