import numpy as np
import pytest

from opfam.emit import emit_plot, grid_to_csv, grid_to_pgm, grid_to_svg, read_grid_csv
from opfam.errors import InputError
from opfam.spectra import (
    CLASS_CHARS,
    CLS_RESOLVENT,
    CLS_SPECTRUM,
    CLS_UNDETERMINED,
    RegionGrid,
)


def _tiny_grid(classes):
    classes = np.asarray(classes, dtype=np.int8)
    ny, nx = classes.shape
    return RegionGrid(
        rect=(0.0, float(nx), 0.0, float(ny)),
        nx=nx,
        ny=ny,
        classes=classes,
        score=np.arange(classes.size, dtype=float).reshape(ny, nx),
    )


def test_pgm_all_resolvent():
    g = _tiny_grid([[CLS_RESOLVENT, CLS_RESOLVENT], [CLS_RESOLVENT, CLS_RESOLVENT]])
    pgm = grid_to_pgm(g)
    assert pgm.splitlines() == ["P2", "2 2", "255", "255 255", "255 255"]


def test_pgm_levels_and_orientation():
    g = _tiny_grid([[CLS_SPECTRUM, CLS_UNDETERMINED], [CLS_RESOLVENT, CLS_SPECTRUM]])
    lines = grid_to_pgm(g).splitlines()
    # Top row of the image is the max-im row of the grid.
    assert lines[3] == "255 0"
    assert lines[4] == "0 128"


def test_csv_schema_and_roundtrip(tmp_path):
    g = _tiny_grid([[CLS_SPECTRUM, CLS_UNDETERMINED], [CLS_RESOLVENT, CLS_SPECTRUM]])
    text = grid_to_csv(g)
    lines = text.splitlines()
    assert lines[0] == "re,im,class,min_tail_sigma"
    assert len(lines) == 1 + g.nx * g.ny
    assert lines[1].split(",")[2] == "S"

    path = tmp_path / "grid.csv"
    emit_plot(g, "csv", str(path))
    back = read_grid_csv(str(path))
    assert np.array_equal(back.classes, g.classes)
    assert np.array_equal(back.score, g.score)
    assert back.rect == pytest.approx(g.rect)
    # Re-emission from the loaded grid is byte-identical.
    assert grid_to_pgm(back) == grid_to_pgm(g)
    assert grid_to_csv(back) == text


def _reference_csv(g):
    """The CSV formatted one cell at a time from numpy scalars."""
    centers = g.centers()
    lines = ["re,im,class,min_tail_sigma"]
    for iy in range(g.ny):
        for ix in range(g.nx):
            c = centers[iy, ix]
            cls = CLASS_CHARS[int(g.classes[iy, ix])]
            lines.append(f"{float(c.real)!r},{float(c.imag)!r},{cls},{float(g.score[iy, ix])!r}")
    return "\n".join(lines) + "\n"


def _reference_pgm(g):
    levels = {CLS_SPECTRUM: 0, CLS_UNDETERMINED: 128, CLS_RESOLVENT: 255}
    lines = ["P2", f"{g.nx} {g.ny}", "255"]
    for iy in range(g.ny - 1, -1, -1):
        lines.append(" ".join(str(levels[int(c)]) for c in g.classes[iy]))
    return "\n".join(lines) + "\n"


def _reference_svg_cells(g):
    colors = {CLS_SPECTRUM: "#1f2430", CLS_UNDETERMINED: "#9aa0ab", CLS_RESOLVENT: "#f4f4ef"}
    parts = []
    for iy in range(g.ny):
        yy = (g.ny - 1 - iy) * 4
        for ix in range(g.nx):
            color = colors[int(g.classes[iy, ix])]
            parts.append(f'<rect x="{ix * 4}" y="{yy}" width="4" height="4" fill="{color}"/>')
    return parts


def test_csv_bytes_match_row_by_row_formatting():
    classes = [[CLS_SPECTRUM, CLS_UNDETERMINED, CLS_RESOLVENT]] * 3
    g = _tiny_grid(classes)
    g.score[0] = [np.inf, np.nan, -0.0]
    g.score[1] = [1e-300, 0.1, 2.0 / 3.0]
    assert grid_to_csv(g) == _reference_csv(g)


@pytest.mark.parametrize(
    "rect, nx, ny",
    [
        ((-3.0, 3.0, -3.0, 3.0), 40, 24),
        ((-1.3, 2.9, -0.7, 0.45), 13, 37),
        # Odd counts on a symmetric rect: the middle cell is centred at 0.
        ((-1.5, 1.5, -2.5, 2.5), 9, 15),
        ((-1e-3, 1e-3, -5.0, 5.0), 11, 11),
    ],
)
def test_emitters_match_the_cell_by_cell_reference(rect, nx, ny):
    rng = np.random.default_rng(nx * 100 + ny)
    score = rng.exponential(size=(ny, nx)) * 10.0 ** rng.integers(-12, 12, (ny, nx))
    score.flat[rng.choice(score.size, 5, replace=False)] = np.inf
    score.flat[rng.choice(score.size, 5, replace=False)] = 0.0
    g = RegionGrid(
        rect=rect,
        nx=nx,
        ny=ny,
        classes=rng.integers(0, 3, (ny, nx)).astype(np.int8),
        score=score,
    )
    if nx % 2 and ny % 2 and rect[0] == -rect[1] and rect[2] == -rect[3]:
        assert g.centers()[ny // 2, nx // 2] == 0
    assert grid_to_csv(g) == _reference_csv(g)
    assert grid_to_pgm(g) == _reference_pgm(g)
    svg = grid_to_svg(g).splitlines()
    assert svg[3 : 3 + nx * ny] == _reference_svg_cells(g)


def test_emitters_deterministic(tmp_path):
    g = _tiny_grid([[CLS_SPECTRUM, CLS_RESOLVENT], [CLS_RESOLVENT, CLS_UNDETERMINED]])
    p1 = tmp_path / "a.svg"
    p2 = tmp_path / "b.svg"
    emit_plot(g, "svg", str(p1))
    emit_plot(g, "svg", str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    svg = grid_to_svg(g)
    assert svg.count("<rect") == g.nx * g.ny + 4  # cells + background + legend
    for label in ("spectrum", "undetermined", "resolvent"):
        assert label in svg


def test_emit_unknown_format(tmp_path):
    g = _tiny_grid([[CLS_RESOLVENT] * 2] * 2)
    with pytest.raises(InputError):
        emit_plot(g, "png", str(tmp_path / "x.png"))


def test_read_grid_csv_rejects_bad_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope\n")
    with pytest.raises(InputError):
        read_grid_csv(str(bad))
    bad.write_text("re,im,class,min_tail_sigma\n0.5,0.5,X,1.0\n")
    with pytest.raises(InputError):
        read_grid_csv(str(bad))
