import math
import re
from pathlib import Path

import numpy as np
import pytest

import opfam.bracket as bracket_module
from opfam import cli
from opfam.bracket import brackets
from opfam.cli import main
from opfam.emit import read_grid_csv
from opfam.errors import InvariantError
from opfam.families import CoeffFn, HGrid, OperatorFamily
from opfam.fileio import load_family, save_family, save_vector, write_matrix
from opfam.spectra import CLS_SPECTRUM


@pytest.fixture()
def workdir(tmp_path):
    for name, mat in (("t", 2.0 * np.eye(3)), ("s", 2.0 * np.eye(3) + np.eye(3, k=1))):
        with open(tmp_path / f"{name}.mat", "w", encoding="utf-8") as fh:
            write_matrix(mat, fh)
    save_family(OperatorFamily.constant(np.diag([1.0, 2.0])), tmp_path / "d.fam")
    flip = OperatorFamily.from_terms(
        2,
        [
            (CoeffFn.const(), np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)),
            (CoeffFn.pow_h(1.0), np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)),
        ],
    )
    save_family(flip, tmp_path / "flip.fam")
    save_vector(np.array([1.0, 0.0], dtype=complex), tmp_path / "e1.vec")
    return tmp_path


def test_bracket_command(workdir, capsys):
    rc = main(["bracket", "--t", str(workdir / "t.mat"), "--s", str(workdir / "s.mat"), "--nmax", "10"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "verdict: Equivalent" in out


def test_bracket_nmax_below_the_root_test_window(workdir, capsys):
    pair = ["--t", str(workdir / "t.mat"), "--s", str(workdir / "s.mat")]
    assert main(["bracket", *pair, "--nmax", "4"]) == 2
    assert "n_max must be >= 5 (the root-test window), got 4" in capsys.readouterr().err
    assert main(["bracket", *pair, "--nmax", "5"]) == 0
    assert "verdict: Equivalent" in capsys.readouterr().out


def test_bracket_nmax_above_the_order_bound(workdir, capsys):
    pair = ["--t", str(workdir / "t.mat"), "--s", str(workdir / "s.mat")]
    assert main(["bracket", *pair, "--nmax", "65"]) == 2
    assert "n_max must be in [4, 64], got 65" in capsys.readouterr().err
    assert main(["bracket", *pair, "--nmax", "64"]) == 0
    assert "verdict: Equivalent" in capsys.readouterr().out


def test_bracket_csv_output(workdir, capsys):
    out_path = workdir / "roots.csv"
    rc = main(
        [
            "bracket",
            "--t", str(workdir / "t.mat"),
            "--s", str(workdir / "s.mat"),
            "--nmax", "8",
            "--emit", "csv",
            "--out", str(out_path),
        ]
    )
    assert rc == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "n,norm,root,rev_norm,rev_root"
    assert len(lines) == 9



def test_bracket_command_builds_the_bracket_stack_once(workdir, monkeypatch, capsys):
    calls = []

    def counting(t, s, n_max):
        calls.append(n_max)
        return brackets(t, s, n_max)

    monkeypatch.setattr(bracket_module, "brackets", counting)
    pair = ["--t", str(workdir / "t.mat"), "--s", str(workdir / "s.mat")]
    assert main(["bracket", *pair, "--nmax", "10", "--emit", "csv"]) == 0
    assert calls == [10]
    # The verdict fails before anything is printed.
    assert main(["bracket", *pair, "--nmax", "4"]) == 2
    assert calls == [10, 4]
    assert capsys.readouterr().out.count("verdict:") == 1

def test_equivalence_command(workdir, capsys):
    rc = main(
        ["equivalence", "--f", str(workdir / "d.fam"), "--g", str(workdir / "d.fam")]
    )
    assert rc == 0
    assert "ToZero" in capsys.readouterr().out
    rc = main(
        [
            "equivalence",
            "--f", str(workdir / "d.fam"),
            "--g", str(workdir / "d.fam"),
            "--mode", "qn",
        ]
    )
    assert rc == 0
    assert "Equivalent" in capsys.readouterr().out


def test_spectrum_command_writes_outputs(workdir, capsys):
    csv_path = workdir / "grid.csv"
    pgm_path = workdir / "grid.pgm"
    svg_path = workdir / "grid.svg"
    rc = main(
        [
            "spectrum",
            "--family", str(workdir / "flip.fam"),
            "--rect", "-2:2:-2:2",
            "--res", "32",
            "--out", str(csv_path),
            "--pgm", str(pgm_path),
            "--svg", str(svg_path),
        ]
    )
    assert rc == 0
    assert csv_path.read_text().startswith("re,im,class,min_tail_sigma")
    assert pgm_path.read_text().startswith("P2\n32 32\n255")
    assert svg_path.read_text().startswith("<?xml")


def test_readme_flip_family_renders_its_spectrum_at_the_origin(tmp_path, capsys):
    # The README's .fam block, scanned as its CLI line says: the S cells
    # lie within one cell diagonal of 0 (ac05's claim, through the CLI).
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"^```\n(dim \d+\n.*?)^```", readme, re.M | re.S)
    fam = tmp_path / "flip.fam"
    fam.write_text(block, encoding="utf-8")
    out = {fmt: tmp_path / f"flip.{fmt}" for fmt in ("csv", "pgm", "svg")}
    rc = main(
        [
            "spectrum",
            "--family", str(fam),
            "--rect", "-2:2:-2:2",
            "--res", "128",
            "--out", str(out["csv"]),
            "--pgm", str(out["pgm"]),
            "--svg", str(out["svg"]),
        ]
    )
    assert rc == 0
    assert all(path.stat().st_size > 0 for path in out.values())
    grid = read_grid_csv(str(out["csv"]))
    centers = grid.cells_with_class(CLS_SPECTRUM).ravel()
    assert len(centers) >= 1
    assert all(abs(c) <= math.hypot(*grid.cell_size()) for c in centers)


def test_local_spectrum_and_member(workdir, capsys):
    rc = main(
        [
            "local-spectrum",
            "--family", str(workdir / "d.fam"),
            "--x", str(workdir / "e1.vec"),
            "--rect", "-3:3:-3:3",
            "--res", "32",
            "--out", str(workdir / "local.csv"),
        ]
    )
    assert rc == 0
    capsys.readouterr()
    member = [
        "local-member",
        "--family", str(workdir / "d.fam"),
        "--x", str(workdir / "e1.vec"),
        "--rect", "-3:3:-3:3",
        "--res", "32",
    ]
    assert main([*member, "--a", "disc 1,0,0.3"]) == 0
    assert capsys.readouterr() == (
        "member: True\ninconclusive: False\nlocal spectrum cells: 2\n", ""
    )
    assert main([*member, "--a", "disc 2,0,0.3"]) == 0
    assert capsys.readouterr().out == (
        "member: False\ninconclusive: False\nlocal spectrum cells: 2\n"
        "cells outside the region: 1.031-0.09375j, 1.031+0.09375j\n"
    )


@pytest.mark.parametrize(
    "change, err",
    [
        ({"--a": "disc1,0"}, "region descriptor error at 7: expected ',' in 'disc1,0'"),
        ({"--rect": "1:-1:-1:1"}, "empty rectangle (1.0, -1.0, -1.0, 1.0)"),
        (
            {"--rect": "-1:1:-1:1"},
            "rect (-1.0, 1.0, -1.0, 1.0) does not cover the spectral-radius disk "
            "(radius 2.000e+00)",
        ),
        ({"--res": "4"}, "need nx, ny >= 8"),
        ({"--family": "huge.fam"}, "family values overflow on the h-grid"),
        ({"--family": "wide.fam"}, "spectral radius bound diverged; cannot validate rect"),
    ],
)
def test_local_member_rejects_each_bad_input(workdir, monkeypatch, capsys, change, err):
    save_family(OperatorFamily.constant(np.full((2, 2), 1e308)), workdir / "huge.fam")
    save_family(OperatorFamily.constant(np.full((2, 2), 1e200)), workdir / "wide.fam")
    scans = []
    scan = cli.family_local_spectrum_grid
    monkeypatch.setattr(
        cli, "family_local_spectrum_grid", lambda *a: scans.append(a) or scan(*a)
    )
    opts = {"--family": "d.fam", "--x": "e1.vec", "--a": "disc 1,0,0.3"}
    opts |= {"--rect": "-3:3:-3:3", "--res": "32", **change}
    for key in ("--family", "--x"):
        opts[key] = str(workdir / opts[key])
    assert main(["local-member", *(t for kv in opts.items() for t in kv)]) == 2
    assert capsys.readouterr() == ("", f"error: {err}\n")
    # A bad region is rejected before any scan.
    assert (not scans) == ("--a" in change)


@pytest.mark.parametrize(
    "verb, resolvent", [("spectrum", "resolvent"), ("local-spectrum", "local-resolvent")]
)
def test_scan_writes_the_same_csv_to_stdout_and_out(workdir, capsys, verb, resolvent):
    argv = [verb, "--family", str(workdir / "d.fam"), "--rect", "-3:3:-3:3", "--res", "16"]
    if verb == "local-spectrum":
        argv += ["--x", str(workdir / "e1.vec")]
    assert main(argv) == 0
    captured = capsys.readouterr()
    csv_path = workdir / f"{verb}.csv"
    assert main([*argv, "--out", str(csv_path)]) == 0
    assert capsys.readouterr() == ("", captured.err)
    assert csv_path.read_bytes() == captured.out.encode("utf-8")
    counts = read_grid_csv(str(csv_path)).counts()
    assert captured.err == (
        f"cells: 256  {verb}: {counts['S']}  undetermined: {counts['U']}  "
        f"{resolvent}: {counts['R']}\n"
    )
    assert counts["S"] > 0 and counts["R"] > 0


def test_plot_roundtrip(workdir, capsys):
    main(
        [
            "spectrum",
            "--family", str(workdir / "d.fam"),
            "--rect", "-3:3:-3:3",
            "--res", "16",
            "--out", str(workdir / "g.csv"),
            "--pgm", str(workdir / "g.pgm"),
        ]
    )
    rc = main(
        [
            "plot",
            "--grid-csv", str(workdir / "g.csv"),
            "--format", "pgm",
            "--out", str(workdir / "g2.pgm"),
        ]
    )
    assert rc == 0
    assert (workdir / "g.pgm").read_bytes() == (workdir / "g2.pgm").read_bytes()


def test_input_errors_exit_2(workdir, tmp_path, capsys):
    rc = main(["bracket", "--t", str(tmp_path / "missing.mat"), "--s", str(workdir / "s.mat")])
    assert rc == 2
    corrupt = tmp_path / "bad.fam"
    corrupt.write_text("dim 2\nterm wiggle\n")
    rc = main(["equivalence", "--f", str(corrupt), "--g", str(workdir / "d.fam")])
    err = capsys.readouterr().err
    assert rc == 2
    assert "bad.fam" in err
    rc = main(
        [
            "spectrum",
            "--family", str(workdir / "d.fam"),
            "--rect", "nonsense",
            "--res", "16",
        ]
    )
    assert rc == 2
    nan_fam = tmp_path / "nan.fam"
    nan_fam.write_text("dim 2\nterm pow nan\n2\n1.0+0.0i 0.0+0.0i\n0.0+0.0i 1.0+0.0i\n")
    rc = main(["spectrum", "--family", str(nan_fam), "--rect", "-3:3:-3:3", "--res", "8"])
    assert rc == 2
    assert "nan.fam:2" in capsys.readouterr().err
    bare = tmp_path / "bare.fam"
    bare.write_text("dim 2\nterm\n2\n1.0+0.0i 0.0+0.0i\n0.0+0.0i 1.0+0.0i\n")
    assert main(["spectrum", "--family", str(bare), "--rect", "-3:3:-3:3", "--res", "8"]) == 2
    assert capsys.readouterr().err == f"error: {bare}:2: term needs a coefficient kind\n"


def test_underflowing_grid_exits_2(workdir, capsys):
    rc = main(
        [
            "spectrum",
            "--family", str(workdir / "d.fam"),
            "--rect", "-2:2:-2:2",
            "--res", "16",
            "--grid", "1:0.5:1100:6",
        ]
    )
    assert rc == 2
    assert "underflow" in capsys.readouterr().err


@pytest.mark.parametrize("grid", ["1:0.5:30:30", "1:0.999999:30:6"])
def test_grid_whose_tail_does_not_approach_zero_exits_2(workdir, capsys, grid):
    # On the flip family, whose spectrum is {0}, 1:0.5:30:30 gave no S cell.
    scan = ["--family", str(workdir / "flip.fam"), "--rect", "-1:1:-1:1", "--res", "16"]
    assert main(["spectrum", *scan, "--grid", grid]) == 2
    assert capsys.readouterr() == (
        "",
        "error: largest tail sample h0 * ratio**(count-tail) exceeds 0.001: "
        "the tail must approach h -> 0\n",
    )


@pytest.mark.filterwarnings("error")
def test_overflowing_family_exits_2(workdir, capsys):
    save_family(OperatorFamily.constant(np.full((2, 2), 1e308)), workdir / "huge.fam")
    save_vector(np.array([1e308, 1e308], dtype=complex), workdir / "huge.vec")
    scan = ["--family", str(workdir / "huge.fam"), "--rect", "-3:3:-3:3", "--res", "8"]
    # A finite x whose norm overflows is refused the same way.
    flip = ["--family", str(workdir / "flip.fam"), "--rect", "-2:2:-2:2", "--res", "16"]
    for argv in (
        ["spectrum", *scan],
        ["local-spectrum", *scan, "--x", str(workdir / "e1.vec")],
        ["local-member", *scan, "--x", str(workdir / "e1.vec"), "--a", "disc 0,0,1"],
        ["local-spectrum", *flip, "--x", str(workdir / "huge.vec")],
        ["local-member", *flip, "--x", str(workdir / "huge.vec"), "--a", "disc 0,0,1"],
    ):
        assert main(argv) == 2
        assert "overflow" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_terms_that_sum_past_the_float_range_exit_2(workdir, capsys):
    # Each term is finite; their sum overflows in the family evaluation.
    big = np.full((2, 2), 1e308)
    terms = [(CoeffFn.const(), big), (CoeffFn.pow_h(0.0), big)]
    save_family(OperatorFamily.from_terms(2, terms), workdir / "sum.fam")
    scan = ["--family", str(workdir / "sum.fam"), "--rect", "-2:2:-2:2", "--res", "8"]
    assert main(["spectrum", *scan]) == 2
    assert capsys.readouterr() == ("", "error: family values overflow on the h-grid\n")


@pytest.mark.filterwarnings("error")
def test_overflowing_expinv_rate_is_a_zero_term(workdir, capsys):
    zero = CoeffFn.exp_inv(1e308)
    assert not zero.eval_many(HGrid().samples()).any()
    flip = load_family(str(workdir / "flip.fam"))
    save_family(flip + OperatorFamily.from_terms(2, [(zero, np.ones((2, 2)))]), workdir / "z.fam")
    for name in ("flip", "z"):
        scan = ["--family", str(workdir / f"{name}.fam"), "--rect", "-2:2:-2:2", "--res", "32"]
        assert main(["spectrum", *scan, "--out", str(workdir / f"{name}.csv")]) == 0
    assert (workdir / "z.csv").read_bytes() == (workdir / "flip.csv").read_bytes()


def test_broken_invariant_exits_3(workdir, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise InvariantError("classification is inconsistent")

    monkeypatch.setattr("opfam.cli.family_spectrum_grid", broken)
    scan = ["--family", str(workdir / "d.fam"), "--rect", "-2:2:-2:2", "--res", "8"]
    assert main(["spectrum", *scan]) == 3
    assert "internal error: classification is inconsistent" in capsys.readouterr().err


def test_verify_subset(workdir, capsys, tmp_path):
    rc = main(
        [
            "verify",
            "--seed", "11",
            "--suite", "linalg",
            "--out", str(tmp_path / "rep"),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "checks run" in out
    report = (tmp_path / "rep" / "report.txt").read_text()
    assert report.startswith("schema=opfam-verify-v1")
    assert "sup01-norm-algebra" in report


@pytest.mark.parametrize("rect", ["-inf:inf:-1:1", "-1e308:1e308:-1:1", "nan:1:-1:1"])
def test_non_finite_scan_rect_exits_2(workdir, capsys, rect):
    scan = ["--family", str(workdir / "d.fam"), "--rect", rect, "--res", "8"]
    x = ["--x", str(workdir / "e1.vec")]
    for argv in (["spectrum", *scan], ["local-spectrum", *scan, *x]):
        assert main(argv) == 2
        assert "error: rectangle" in capsys.readouterr().err


def test_negative_verify_seed_exits_2(capsys):
    assert main(["verify", "--seed", "-1", "--suite", "linalg"]) == 2
    assert "error: seed must be >= 0, got -1" in capsys.readouterr().err
