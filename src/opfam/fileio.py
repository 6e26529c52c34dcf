"""Text formats for matrices, vectors, and operator families.

Matrix format: first line `d`, then d lines of d entries, each entry written
as `re±imi` with shortest round-trip decimal reprs, so the reader recovers
the exact doubles.  Vector format: the same block with one row, so first
line `d`, then one line of d entries.  Family format: `dim d`, then
repeated blocks of

    term const | term pow P | term expinv A
    <matrix in the matrix format>

Lines starting with `#` and blank lines are ignored.
"""

from __future__ import annotations

import math
from typing import Iterable, TextIO

import numpy as np

from .errors import FileFormatError, InputError
from .families import CoeffFn, OperatorFamily
from .linalg import as_matrix, as_vector


def format_complex(z: complex) -> str:
    """Render one complex entry as `re±imi`, losslessly."""
    re = float(z.real)
    im = float(z.imag)
    sign = "+" if math.copysign(1.0, im) >= 0 else "-"
    return f"{re!r}{sign}{abs(im)!r}i"


def parse_complex(token: str) -> complex:
    """Parse one `re±imi` entry."""
    if not token.endswith("i"):
        raise ValueError(f"complex entry must end with 'i': {token!r}")
    try:
        return complex(token[:-1].replace("I", "") + "j")
    except ValueError as exc:
        raise ValueError(f"bad complex entry {token!r}") from exc


class _LineReader:
    """Line iterator that skips comments/blanks and tracks line numbers."""

    def __init__(self, lines: Iterable[str], path: str = ""):
        self._lines = list(lines)
        self.path = path
        self.pos = 0
        self.lineno = 0

    def next_line(self) -> str | None:
        while self.pos < len(self._lines):
            raw = self._lines[self.pos]
            self.pos += 1
            self.lineno = self.pos
            stripped = raw.strip()
            if stripped and not stripped.startswith("#"):
                return stripped
        return None

    def fail(self, message: str):
        raise FileFormatError(message, path=self.path, line=self.lineno)


def _parse_dim_token(reader: _LineReader, token: str) -> int:
    try:
        d = int(token)
    except ValueError:
        reader.fail(f"expected a dimension, got {token!r}")
    if d < 1:
        reader.fail(f"dimension must be >= 1, got {d}")
    return d


def _read_matrix_block(reader: _LineReader, noun: str, rows: int | None = None) -> np.ndarray:
    """A `d` line, then `rows` lines of d entries each (d lines when rows is None)."""
    line = reader.next_line()
    if line is None:
        reader.fail(f"expected {noun} dimension line, got end of file")
    d = _parse_dim_token(reader, line)
    block = []
    for _ in range(d if rows is None else rows):
        line = reader.next_line()
        if line is None:
            reader.fail(f"expected {noun} entries, got end of file")
        tokens = line.split()
        if len(tokens) != d:
            reader.fail(f"expected {d} entries per row, got {len(tokens)}")
        try:
            block.append([parse_complex(t) for t in tokens])
        except ValueError as exc:
            reader.fail(str(exc))
    return np.array(block, dtype=complex)


def _read_file_block(fh: TextIO, path: str, noun: str, rows: int | None = None) -> np.ndarray:
    """A whole file holding one block and nothing after it."""
    reader = _LineReader(fh, path=path)
    block = _read_matrix_block(reader, noun, rows)
    if reader.next_line() is not None:
        reader.fail(f"unexpected trailing content after {noun}")
    return block


def write_matrix(a, fh: TextIO) -> None:
    m = as_matrix(a)
    d = m.shape[0]
    fh.write(f"{d}\n")
    for row in m:
        fh.write(" ".join(format_complex(z) for z in row) + "\n")


def read_matrix(fh: TextIO, path: str = "") -> np.ndarray:
    return as_matrix(_read_file_block(fh, path, "matrix"))


def write_vector(x, fh: TextIO) -> None:
    v = as_vector(x)
    fh.write(f"{v.shape[0]}\n")
    fh.write(" ".join(format_complex(z) for z in v) + "\n")


def read_vector(fh: TextIO, path: str = "") -> np.ndarray:
    return as_vector(_read_file_block(fh, path, "vector", rows=1)[0])


def _coeff_descriptor(c: CoeffFn) -> str:
    if c.rate == 0.0 and c.exponent == 0.0:
        return "const"
    if c.rate == 0.0:
        return f"pow {c.exponent!r}"
    if c.exponent == 0.0:
        return f"expinv {c.rate!r}"
    raise FileFormatError("product coefficients have no file form")


_COEFF_PARAMS = {"pow": CoeffFn.pow_h, "expinv": CoeffFn.exp_inv}


def _parse_coeff(reader: _LineReader, tokens: list[str]) -> CoeffFn:
    if not tokens:
        reader.fail("term needs a coefficient kind")
    kind = tokens[0]
    if kind == "const":
        if len(tokens) != 1:
            reader.fail("const takes no parameter")
        return CoeffFn.const()
    if kind not in _COEFF_PARAMS:
        reader.fail(f"unknown coefficient kind {kind!r}")
    if len(tokens) != 2:
        reader.fail(f"{kind} takes exactly one parameter")
    try:
        value = float(tokens[1])
    except ValueError:
        reader.fail(f"bad {kind} parameter {tokens[1]!r}")
    try:
        return _COEFF_PARAMS[kind](value)
    except InputError as exc:
        reader.fail(str(exc))


def write_family(fam: OperatorFamily, fh: TextIO) -> None:
    fh.write(f"dim {fam.dim}\n")
    for coeff, mat in fam.terms:
        fh.write(f"term {_coeff_descriptor(coeff)}\n")
        write_matrix(mat, fh)


def read_family(fh: TextIO, path: str = "") -> OperatorFamily:
    reader = _LineReader(fh, path=path)
    line = reader.next_line()
    if line is None:
        reader.fail("expected 'dim d' line, got end of file")
    tokens = line.split()
    if len(tokens) != 2 or tokens[0] != "dim":
        reader.fail(f"expected 'dim d', got {line!r}")
    d = _parse_dim_token(reader, tokens[1])

    terms = []
    while True:
        line = reader.next_line()
        if line is None:
            break
        tokens = line.split()
        if tokens[0] != "term":
            reader.fail(f"expected 'term ...', got {line!r}")
        coeff = _parse_coeff(reader, tokens[1:])
        mat = _read_matrix_block(reader, "matrix")
        if mat.shape[0] != d:
            reader.fail(f"term matrix has dim {mat.shape[0]}, family has dim {d}")
        terms.append((coeff, mat))
    if not terms:
        reader.fail("family has no terms")
    return OperatorFamily.from_terms(d, terms)


def load_matrix(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return read_matrix(fh, path=path)


def load_vector(path: str) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return read_vector(fh, path=path)


def load_family(path: str) -> OperatorFamily:
    with open(path, encoding="utf-8") as fh:
        return read_family(fh, path=path)


def save_vector(x, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_vector(x, fh)


def save_family(fam: OperatorFamily, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        write_family(fam, fh)
