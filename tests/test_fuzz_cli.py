"""Every input verb answers with finite output or refuses with exit 2.

Structured mutations of valid `.mat`, `.vec` and `.fam` texts, and argv of
the scan, member, bracket and equivalence verbs, go through `cli.main`
with warnings as errors.  A call returns 0 with no `nan` in stdout or in
any file it wrote, or 2 with one `error:` line on stderr; a grid whose
tail does not approach h -> 0 is always refused.
"""

import contextlib
import io
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_regions import _regions

from opfam import cli
from opfam.families import CoeffFn, OperatorFamily
from opfam.fileio import write_family, write_matrix, write_vector

_GRIDS = (
    "1:0.5:40:6",
    "1:0.5:40:7",
    "1:0.5:40:9",
    "1:0.5:44:6",
    "1:0.5:30:6",
    "1:0.5:32:6",
    "1:0.6:50:6",
    "1:0.25:20:6",
)
_REFUSED_GRIDS = ("1:0.5:30:30", "1:0.999999:30:6")
_RECTS = ("-3:3:-3:3", "-2:2:-2:2", "-1:1:-1:1", "0:1:0:1")
_REPLACEMENTS = (
    "", "nan", "inf", "1e308+0.0i", "9e153+0.0i", "1e-320+0.0i", "x", "-", "term", "dim 0"
)
_COEFFS = (CoeffFn.const(), CoeffFn.pow_h(1.0), CoeffFn.pow_h(2.0), CoeffFn.exp_inv(1.0))
_VALUES = st.sampled_from((0.0, 1.0, -1.0, 0.5, -0.25, 1.5, 2.0))


class Case(NamedTuple):
    """The argv of one call.

    Each (flag, text) pair of `files` becomes the flag and the path of a
    file holding the text; an option `@name` becomes the path of an output
    file `name` in the same directory.
    """

    verb: str
    files: tuple[tuple[str, str], ...]
    opts: tuple[str, ...]


def _text(write, obj) -> str:
    buf = io.StringIO()
    write(obj, buf)
    return buf.getvalue()


def _array(draw, *shape) -> np.ndarray:
    n = int(np.prod(shape))
    parts = draw(st.lists(_VALUES, min_size=2 * n, max_size=2 * n))
    return (np.array(parts[:n]) + 1j * np.array(parts[n:])).reshape(shape)


@st.composite
def _mutated(draw, text: str) -> str:
    """text with up to two lines dropped, duplicated or swapped, or tokens replaced."""
    lines = text.splitlines()
    for _ in range(draw(st.integers(0, 2))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        op = draw(st.sampled_from(("drop", "duplicate", "swap", "token")))
        if op == "drop":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            tokens = lines[i].split()
            j = draw(st.integers(0, max(len(tokens) - 1, 0)))
            tokens[j : j + 1] = [draw(st.sampled_from(_REPLACEMENTS))]
            lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@st.composite
def _file(draw, kind: str, d: int) -> str:
    if kind == "mat":
        text = _text(write_matrix, _array(draw, d, d))
    elif kind == "vec":
        text = _text(write_vector, _array(draw, d))
    else:
        coeffs = draw(st.lists(st.sampled_from(_COEFFS), min_size=1, max_size=2))
        fam = OperatorFamily.from_terms(d, [(c, _array(draw, d, d)) for c in coeffs])
        text = _text(write_family, fam)
    return draw(_mutated(text))


@st.composite
def _region_text(draw) -> str:
    text = draw(_regions).describe()
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(text)))
        ch = draw(st.sampled_from(list("0123456789.eE+-,:() ") + ["", "disc", "x"]))
        text = text[:i] + ch + text[i + draw(st.integers(0, 1)) :]
    return text


@st.composite
def _cases(draw) -> Case:
    verbs = ("spectrum", "local-spectrum", "local-member", "bracket", "equivalence")
    verb = draw(st.sampled_from(verbs))
    d = draw(st.integers(1, 3))
    grid = ("--grid", draw(st.sampled_from(_GRIDS + _REFUSED_GRIDS)))
    if verb == "bracket":
        files = (("--t", draw(_file("mat", d))), ("--s", draw(_file("mat", d))))
        nmax = draw(st.sampled_from(("5", "12")))
        return Case(verb, files, ("--nmax", nmax, "--out", "@roots.csv"))
    if verb == "equivalence":
        files = (("--f", draw(_file("fam", d))), ("--g", draw(_file("fam", d))))
        return Case(verb, files, ("--mode", draw(st.sampled_from(("asym", "qn"))), *grid))
    files = (("--family", draw(_file("fam", d))),)
    if verb != "spectrum":
        files += (("--x", draw(_file("vec", d))),)
    res = str(draw(st.integers(8, 16)))
    scan = ("--rect", draw(st.sampled_from(_RECTS)), "--res", res, *grid)
    if verb == "local-member":
        return Case(verb, files, (f"--a={draw(_region_text())}", *scan))
    if draw(st.booleans()):
        scan += ("--out", "@grid.csv", "--pgm", "@grid.pgm", "--svg", "@grid.svg")
    return Case(verb, files, scan)


_FLIP = _text(
    write_family,
    OperatorFamily.from_terms(
        2,
        [
            (CoeffFn.const(), np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)),
            (CoeffFn.pow_h(1.0), np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)),
        ],
    ),
)
_FLIP_SCAN = ("--rect", "-1:1:-1:1", "--res", "16")
_HUGE_X = "2\n9e153+0.0i 9e153+0.0i\n"


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_cases())
@example(Case("local-spectrum", (("--family", _FLIP), ("--x", _HUGE_X)), _FLIP_SCAN))
@example(Case("spectrum", (("--family", _FLIP),), (*_FLIP_SCAN, "--grid", "1:0.5:30:30")))
@example(Case("spectrum", (("--family", _FLIP),), (*_FLIP_SCAN, "--grid", "1:0.999999:30:6")))
def test_every_input_is_answered_or_refused(case):
    with tempfile.TemporaryDirectory() as tmp:
        argv = [case.verb]
        for k, (flag, text) in enumerate(case.files):
            path = Path(tmp, f"in{k}")
            path.write_text(text, encoding="utf-8")
            argv += [flag, str(path)]
        argv += [str(Path(tmp, o[1:])) if o.startswith("@") else o for o in case.opts]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = cli.main(argv)
        outputs = [p for p in Path(tmp).iterdir() if not p.name.startswith("in")]
        written = [p.read_text(encoding="utf-8") for p in outputs]
    if set(case.opts) & set(_REFUSED_GRIDS):
        assert rc == 2
    if rc == 0:
        assert all("nan" not in text for text in (out.getvalue(), *written))
    else:
        assert rc == 2
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err.getvalue()
