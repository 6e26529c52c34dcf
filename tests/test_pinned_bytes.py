"""Output bytes pinned across commits.

A change that only makes opfam faster must leave these bytes as they are.
Each digest was computed before the family layer's per-grid coefficient
columns landed, except SPECTRUM_CSV_SHA256.  A change that moves a byte
updates the digest here and says which bytes moved and why.

SPECTRUM_CSV_SHA256 moved when spectrum scans began certified skipping:
the `min_tail_sigma` of the 778 settled cells of the 32 x 32 scan (all R)
became their certified lower bound; the 246 computed cells kept their
bytes.  SPECTRUM_CLASSES_SHA256, the same CSV with its score column
stripped, was computed before that change, so the `re,im,class` bytes
stay pinned across it.
"""

import hashlib

import numpy as np

from opfam.cli import main
from opfam.families import CoeffFn, OperatorFamily
from opfam.fileio import save_family, save_vector
from opfam.verify import ScenarioConfig, run_suite

REPORT_SHA256 = "79d2f602a57858678996f0d685c368b8bc10fbe42f2ef990240eb675546f37b0"
SPECTRUM_CSV_SHA256 = "7a1da8d3e53a73eb61f1c4954930f80ee27a0b2b1b8a1973937cb0945786bb34"
SPECTRUM_CLASSES_SHA256 = "5d8c2e9478b14912a6ac81497a636fd70e2b1e614fb293076af4d0ef0895c35d"
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
    stripped = b"".join(row.rsplit(b",", 1)[0] + b"\n" for row in spectrum.read_bytes().splitlines())
    assert hashlib.sha256(stripped).hexdigest() == SPECTRUM_CLASSES_SHA256
