"""Deterministic CSV / PGM / SVG emitters for classification grids.

CSV schema: `re,im,class,min_tail_sigma` with class in {R, S, U}, one row
per cell ordered by ascending im then ascending re; floats use shortest
round-trip reprs.  PGM (plain P2): 0 = Spectrum, 128 = Undetermined,
255 = Resolvent, top row at max im.  SVG: one filled rect per cell plus a
three-color legend.  Identical grids produce byte-identical files.
"""

from __future__ import annotations

import numpy as np

from .errors import InputError
from .spectra import (
    CLASS_CHARS,
    CLS_RESOLVENT,
    CLS_SPECTRUM,
    CLS_UNDETERMINED,
    RegionGrid,
)

FORMATS = ("csv", "pgm", "svg")

_PGM_LEVELS = {CLS_SPECTRUM: "0", CLS_UNDETERMINED: "128", CLS_RESOLVENT: "255"}
_SVG_COLORS = {CLS_SPECTRUM: "#1f2430", CLS_UNDETERMINED: "#9aa0ab", CLS_RESOLVENT: "#f4f4ef"}
_SVG_LABELS = {CLS_SPECTRUM: "spectrum", CLS_UNDETERMINED: "undetermined", CLS_RESOLVENT: "resolvent"}
_CHAR_CLS = {v: k for k, v in CLASS_CHARS.items()}
_SVG_CELL_PX = 4


def grid_to_csv(grid: RegionGrid) -> str:
    # `_cell_grid` adds a real row to an imaginary column, so every row of
    # the centers has the same real parts and every column the same
    # imaginary parts: each is formatted once.  Each grid row is joined
    # into one string as it is made, so no string per cell outlives its row.
    centers = grid.centers()
    res = [repr(v) for v in centers[0].real.tolist()]
    ims = [repr(v) for v in centers[:, 0].imag.tolist()]
    lines = ["re,im,class,min_tail_sigma"]
    for im, classes, scores in zip(ims, grid.classes, grid.score):
        cells = zip(res, classes.tolist(), scores.tolist())
        lines.append("\n".join([f"{r},{im},{CLASS_CHARS[c]},{v!r}" for r, c, v in cells]))
    # The empty last line ends the text with a newline without a second copy.
    return "\n".join([*lines, ""])


def grid_to_pgm(grid: RegionGrid) -> str:
    lines = ["P2", f"{grid.nx} {grid.ny}", "255"]
    for classes in reversed(grid.classes.tolist()):
        lines.append(" ".join([_PGM_LEVELS[c] for c in classes]))
    return "\n".join(lines) + "\n"


def grid_to_svg(grid: RegionGrid) -> str:
    width = grid.nx * _SVG_CELL_PX
    height = grid.ny * _SVG_CELL_PX
    legend_h = 18
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height + legend_h}" shape-rendering="crispEdges">',
        f'<rect x="0" y="0" width="{width}" height="{height + legend_h}" fill="#ffffff"/>',
    ]
    heads = [f'<rect x="{ix * _SVG_CELL_PX}" y="' for ix in range(grid.nx)]
    fills = {
        c: f'" width="{_SVG_CELL_PX}" height="{_SVG_CELL_PX}" fill="{color}"/>'
        for c, color in _SVG_COLORS.items()
    }
    for iy, classes in enumerate(grid.classes):
        yy = str((grid.ny - 1 - iy) * _SVG_CELL_PX)
        parts.append("\n".join([head + yy + fills[c] for head, c in zip(heads, classes.tolist())]))
    x = 2
    for cls in (CLS_SPECTRUM, CLS_UNDETERMINED, CLS_RESOLVENT):
        parts.append(
            f'<rect x="{x}" y="{height + 4}" width="10" height="10" '
            f'fill="{_SVG_COLORS[cls]}" stroke="#000000"/>'
        )
        parts.append(
            f'<text x="{x + 13}" y="{height + 13}" font-size="10" '
            f'font-family="monospace">{_SVG_LABELS[cls]}</text>'
        )
        x += 13 + 9 * len(_SVG_LABELS[cls]) + 8
    parts += ["</svg>", ""]
    return "\n".join(parts)


def emit_plot(grid: RegionGrid, fmt: str, path: str) -> None:
    """Write one grid rendering; bit-exact for identical inputs."""
    if fmt == "csv":
        text = grid_to_csv(grid)
    elif fmt == "pgm":
        text = grid_to_pgm(grid)
    elif fmt == "svg":
        text = grid_to_svg(grid)
    else:
        raise InputError(f"unknown format {fmt!r}; expected one of {FORMATS}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def read_grid_csv(path: str) -> RegionGrid:
    """Rebuild a grid from its CSV rendering (classes and scores only)."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or lines[0] != "re,im,class,min_tail_sigma":
        raise InputError(f"{path}: not a grid CSV (bad header)")
    res, ims, chars, scores = [], [], [], []
    for k, line in enumerate(lines[1:], start=2):
        cols = line.split(",")
        if len(cols) != 4 or cols[2] not in _CHAR_CLS:
            raise InputError(f"{path}:{k}: bad grid CSV row {line!r}")
        try:
            res.append(float(cols[0]))
            ims.append(float(cols[1]))
            scores.append(float(cols[3]))
        except ValueError as exc:
            raise InputError(f"{path}:{k}: {exc}") from exc
        chars.append(cols[2])
    re_vals = sorted(set(res))
    im_vals = sorted(set(ims))
    nx, ny = len(re_vals), len(im_vals)
    if nx * ny != len(chars) or nx < 1 or ny < 1:
        raise InputError(f"{path}: rows do not form a full rectangular grid")
    w = re_vals[1] - re_vals[0] if nx > 1 else 1.0
    h = im_vals[1] - im_vals[0] if ny > 1 else 1.0
    rect = (re_vals[0] - w / 2, re_vals[-1] + w / 2, im_vals[0] - h / 2, im_vals[-1] + h / 2)
    re_idx = {v: i for i, v in enumerate(re_vals)}
    im_idx = {v: i for i, v in enumerate(im_vals)}
    classes = np.empty((ny, nx), dtype=np.int8)
    score = np.empty((ny, nx))
    for r, i, ch, s in zip(res, ims, chars, scores):
        classes[im_idx[i], re_idx[r]] = _CHAR_CLS[ch]
        score[im_idx[i], re_idx[r]] = s
    return RegionGrid(rect=rect, nx=nx, ny=ny, classes=classes, score=score)
