"""Benchmark workloads: inputs made from a seed, the timed operations, and
the oracle that checks every operation's outputs.

Each workload is a fixed list of operations generated from the seed.  An
operation drives opfam from outside, through ``opfam.cli.main(argv)`` or
``opfam.verify.run_suite``, and writes its outputs into a work directory.
The oracle reads those outputs back and decides whether the operation
failed; it runs outside the timed region and does not call the code it
checks, except for the reference computations named below.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import operator
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

RECT = (-3.0, 3.0, -3.0, 3.0)
RECT_ARG = "-3:3:-3:3"
SCAN_DIMS = (2, 6, 16)
KINDS = ("const", "drift")
SPECTRUM_RES = 128
LOCAL_RES = 64
VERIFY_SUITES = ("bracket", "family", "linalg")
VERIFY_SEEDS_PER_PASS = 16

# The default eigenvalue sampler and support sampler do not converge at
# d = 16 on the [-3, 3]^2 scan; these looser draws do.  The 64x64 local
# grid does not mark eigenvalues whose support weight is below about 0.1,
# so the ac09 rule needs min_support well above that: at 0.05, 8 of 12
# seeds had such an eigenvalue.  The scans themselves run with the CLI
# defaults at every d.
D16_DRAW = {"gap": 0.9, "disk": 2.6}
D16_MIN_SUPPORT = 0.15

PGM_LEVELS = {0: 0, 1: 128, 2: 255}
CLASS_CODES = {"S": 0, "U": 1, "R": 2}


@dataclass
class Op:
    """One timed operation and what its outputs must satisfy."""

    label: str
    size: int  # d of a scan; the suite seed of a verify call
    run: Callable[[], object]
    check: Callable[[object], "Outcome"]
    cells: int = 0


@dataclass
class Outcome:
    ok: bool
    digest: bytes
    message: str = ""


@dataclass
class Workload:
    ops: list[Op]
    warmup: Callable[[], object]
    info: dict = field(default_factory=dict)


def spectrum_cells(classes: np.ndarray) -> set:
    return {(int(iy), int(ix)) for iy, ix in np.argwhere(classes == CLASS_CODES["S"])}


def read_csv_classes(path: str, n: int) -> np.ndarray:
    """Class codes of an n-by-n grid CSV, rows ordered [iy][ix]."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines or lines[0] != "re,im,class,min_tail_sigma" or len(lines) != n * n + 1:
        raise ValueError(f"{os.path.basename(path)}: not an {n}x{n} grid CSV")
    codes = [CLASS_CODES[line.split(",")[2]] for line in lines[1:]]
    return np.array(codes, dtype=np.int8).reshape(n, n)


def check_pgm(path: str, classes: np.ndarray) -> str:
    """Empty string when the PGM shows `classes` (top row = largest im)."""
    with open(path, encoding="utf-8") as fh:
        tokens = fh.read().split()
    ny, nx = classes.shape
    if tokens[:4] != ["P2", str(nx), str(ny), "255"]:
        return "bad PGM header"
    levels = np.array([int(t) for t in tokens[4:]])
    want = np.vectorize(PGM_LEVELS.get)(classes[::-1]).ravel()
    if levels.shape != want.shape or not np.array_equal(levels, want):
        return "PGM pixels differ from the CSV classes"
    return ""


def check_svg(path: str, classes: np.ndarray) -> str:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not text.startswith("<?xml") or not text.rstrip().endswith("</svg>"):
        return "SVG is not a complete document"
    # One rect per cell, the background and three legend swatches.
    if text.count("<rect ") != classes.size + 4:
        return "SVG cell count differs from the grid"
    return ""


def class_digest(classes: np.ndarray) -> bytes:
    return hashlib.sha256(repr(classes.shape).encode() + classes.tobytes()).digest()


def _quiet(fn, *args):
    """Run fn with its stdout/stderr chatter kept out of the result stream."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return fn(*args)


def _cli_main(argv):
    from opfam import cli

    # Looked up at call time, so a traced run sees the wrapped entry point.
    return _quiet(cli.main, argv)


@dataclass(frozen=True)
class ScanInstance:
    d: int
    kind: str
    family: object
    a: np.ndarray
    eigenvalues: np.ndarray
    x: np.ndarray


def scan_instances(seed: int, dims=SCAN_DIMS) -> list[ScanInstance]:
    """A conditioned diagonalizable A per d, plus the constant family A and
    the drifting family A + h B; x is supported on every eigenvector."""
    from opfam.families import CoeffFn, OperatorFamily
    from opfam.generators import random_diagonalizable, random_matrix, supported_vector
    from opfam.linalg import op_norm

    out = []
    for d in dims:
        rng = np.random.default_rng([seed, d])
        draw = D16_DRAW if d == 16 else {}
        a, w, v = random_diagonalizable(rng, d, rect=RECT, n_cells=SPECTRUM_RES, **draw)
        vinv = np.linalg.inv(v)
        projections = [np.outer(v[:, i], vinv[i, :]) for i in range(d)]
        min_support = {"min_support": D16_MIN_SUPPORT} if d == 16 else {}
        x = supported_vector(rng, projections, **min_support)
        b = random_matrix(rng, d)
        b /= op_norm(b)
        families = {
            "const": OperatorFamily.constant(a),
            "drift": OperatorFamily.from_terms(d, [(CoeffFn.const(), a), (CoeffFn.pow_h(1.0), b)]),
        }
        for kind in KINDS:
            out.append(ScanInstance(d=d, kind=kind, family=families[kind], a=a, eigenvalues=w, x=x))
    return out


def _remove(paths) -> None:
    """Delete read outputs, so that the next call must write them afresh."""
    for path in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(path)


def _grid_outputs_check(paths: dict, n: int, expected: set, rule: Callable[[set, set], bool]):
    def check(code) -> Outcome:
        if code != 0:
            return Outcome(False, b"", f"exit code {code}")
        try:
            classes = read_csv_classes(paths["csv"], n)
            problem = check_pgm(paths["pgm"], classes) or check_svg(paths["svg"], classes)
        except (OSError, ValueError, KeyError) as exc:
            return Outcome(False, b"", f"unreadable output: {exc}")
        finally:
            _remove(paths.values())
        digest = class_digest(classes)
        if problem:
            return Outcome(False, digest, problem)
        if not rule(spectrum_cells(classes), expected):
            return Outcome(False, digest, "spectrum cells differ from the oracle")
        return Outcome(True, digest)

    return check


def _output_paths(workdir: str, stem: str) -> dict:
    return {ext: os.path.join(workdir, f"{stem}.{ext}") for ext in ("csv", "pgm", "svg")}


def _output_args(paths: dict) -> list:
    return ["--out", paths["csv"], "--pgm", paths["pgm"], "--svg", paths["svg"]]


def _scan_workload(verb: str, seed: int, workdir: str, res: int, dims) -> Workload:
    from opfam.fileio import save_family, save_vector
    from opfam.local import local_spectrum_exact
    # The oracle applies the acceptance checks' own cell rules.
    from opfam.verify import _cell_of, _cells_match_one_off

    ops = []
    warmup_argv = None
    for inst in scan_instances(seed, dims):
        label = f"{inst.kind}{inst.d}"
        fam_path = os.path.join(workdir, f"{label}.fam")
        save_family(inst.family, fam_path)
        argv = [verb, "--family", fam_path]
        if verb == "local-spectrum":
            x_path = os.path.join(workdir, f"{label}.vec")
            save_vector(inst.x, x_path)
            argv += ["--x", x_path]
            # The ac09 rule: exactly the cells of the exact local spectrum.
            support = local_spectrum_exact(inst.a, inst.x).support_points()
            expected = {_cell_of(complex(z), RECT, res, res) for z in support}
            rule = operator.eq
        else:
            # The ac04 rule: the eigenvalue cells of A, within one cell.
            expected = {_cell_of(complex(z), RECT, res, res) for z in inst.eigenvalues}
            rule = _cells_match_one_off
        argv += ["--rect", RECT_ARG, "--res", str(res)]
        paths = _output_paths(workdir, f"{label}.{verb}")
        ops.append(
            Op(
                label=label,
                size=inst.d,
                run=lambda argv=argv + _output_args(paths): _cli_main(argv),
                check=_grid_outputs_check(paths, res, expected, rule),
                cells=res * res,
            )
        )
        if not warmup_argv:
            warmup_argv = argv + _output_args(_output_paths(workdir, "warmup"))
    return Workload(ops=ops, warmup=lambda: _cli_main(warmup_argv))


def scan_spectrum(seed: int, workdir: str, dims=SCAN_DIMS) -> Workload:
    return _scan_workload("spectrum", seed, workdir, SPECTRUM_RES, dims)


def scan_local(seed: int, workdir: str, dims=SCAN_DIMS) -> Workload:
    return _scan_workload("local-spectrum", seed, workdir, LOCAL_RES, dims)


def verify_seeds(seed: int, count: int) -> list[int]:
    rng = np.random.default_rng([seed, 7])
    return sorted(int(s) for s in rng.choice(100_000, size=count, replace=False))


def _verify_run(seed: int, out_dir: str):
    from opfam import verify

    return verify.run_suite(verify.ScenarioConfig(seed=seed, suites=VERIFY_SUITES, out_dir=out_dir))


def _verify_check(out_dir: str):
    report_path = os.path.join(out_dir, "report.txt")

    def check(bundle) -> Outcome:
        try:
            with open(report_path, "rb") as fh:
                report = fh.read()
        except OSError as exc:
            return Outcome(False, b"", f"report.txt not written: {exc}")
        finally:
            _remove([report_path])
        digest = hashlib.sha256(report).digest()
        failed = [r.check_id for r in bundle.results if r.verdict == "fail"]
        if failed:
            return Outcome(False, digest, f"fail records: {','.join(failed)}")
        if not report.startswith(b"schema=opfam-verify-v1\n") or b"|verdict=fail|" in report:
            return Outcome(False, digest, "report.txt is malformed or records a failure")
        return Outcome(True, digest)

    return check


def verify_core(seed: int, workdir: str, count: int = VERIFY_SEEDS_PER_PASS) -> Workload:
    ops = []
    for s in verify_seeds(seed, count):
        out_dir = os.path.join(workdir, f"verify-{s}")
        ops.append(
            Op(
                label=f"seed{s}",
                size=s,
                run=lambda s=s, out_dir=out_dir: _verify_run(s, out_dir),
                check=_verify_check(out_dir),
            )
        )
    warm_dir = os.path.join(workdir, "verify-warmup")
    first = ops[0].size
    return Workload(
        ops=ops,
        warmup=lambda: _verify_run(first, warm_dir),
        info={"verify_seeds": [op.size for op in ops]},
    )


WORKLOADS = {
    "scan-spectrum": scan_spectrum,
    "scan-local": scan_local,
    "verify-core": verify_core,
}
