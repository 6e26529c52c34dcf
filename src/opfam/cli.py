"""Command-line interface.

Verbs: spectrum, local-spectrum, local-member, bracket, equivalence,
verify, plot.  Exit codes: 0 success / all checks pass, 1 verification
check failure, 2 input error, 3 internal error (a broken invariant).
"""

from __future__ import annotations

import argparse
import functools
import sys

from .bracket import N_MAX, bracket_seq
from .emit import FORMATS, emit_plot, grid_to_csv, read_grid_csv
from .errors import InputError, InvariantError, OpfamError
from .families import HGrid, asym_qn_equivalent, asymptotically_equivalent
from .fileio import load_family, load_matrix, load_vector
from .local import family_local_spectrum_grid, local_spectral_space_member
from .regions import parse_region
from .spectra import family_spectrum_grid
from .verify import ALL_SUITES, ScenarioConfig, run_suite


def _parse_rect(text: str) -> tuple[float, float, float, float]:
    parts = text.split(":")
    if len(parts) != 4:
        raise InputError(f"rect must be re_min:re_max:im_min:im_max, got {text!r}")
    try:
        return tuple(float(p) for p in parts)  # type: ignore[return-value]
    except ValueError as exc:
        raise InputError(f"bad rect {text!r}: {exc}") from exc


def _add_grid_arg(p: argparse.ArgumentParser) -> None:
    g = HGrid()
    p.add_argument(
        "--grid",
        default=f"{g.h0:g}:{g.ratio:g}:{g.count}:{g.tail}",
        metavar="h0:r:K:m",
        help="geometric h-grid: start, ratio, count, tail (default %(default)s)",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; parse_args keeps no state between calls."""
    parser = argparse.ArgumentParser(
        prog="opfam",
        description="Spectra and local spectra of h-parametrized operator families.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bracket", help="bracket root table and equivalence verdict")
    p.add_argument("--t", required=True, help="matrix file for the first operator")
    p.add_argument("--s", required=True, help="matrix file for the second operator")
    p.add_argument("--nmax", type=int, default=N_MAX)
    p.add_argument("--emit", choices=("csv",), help="also print a CSV root table")
    p.add_argument("--out", help="write the CSV table to this path")

    p = sub.add_parser("equivalence", help="asymptotic / qn equivalence of families")
    p.add_argument("--f", required=True, help="family file")
    p.add_argument("--g", required=True, help="family file")
    p.add_argument("--mode", choices=("asym", "qn"), default="asym")
    _add_grid_arg(p)

    for verb, help_text in (
        ("spectrum", "family spectrum scan over a rectangle"),
        ("local-spectrum", "family local spectrum scan at x"),
    ):
        p = sub.add_parser(verb, help=help_text)
        p.add_argument("--family", required=True)
        if verb == "local-spectrum":
            p.add_argument("--x", required=True, help="vector file")
        p.add_argument("--rect", required=True, metavar="a:b:c:d")
        p.add_argument("--res", type=int, default=64)
        p.add_argument("--out", help="CSV output path (default stdout)")
        p.add_argument("--pgm", help="also write a PGM rendering")
        p.add_argument("--svg", help="also write an SVG rendering")
        _add_grid_arg(p)

    p = sub.add_parser("local-member", help="local spectral space membership")
    p.add_argument("--family", required=True)
    p.add_argument("--x", required=True, help="vector file")
    p.add_argument("--a", required=True, help="region: disc re,im,r | rect a:b:c:d | union(...) | empty")
    p.add_argument("--rect", required=True, metavar="a:b:c:d")
    p.add_argument("--res", type=int, default=64)
    _add_grid_arg(p)

    cfg = ScenarioConfig()
    p = sub.add_parser("verify", help="run the verification suite")
    p.add_argument("--seed", type=int, default=cfg.seed)
    p.add_argument("--out", help="directory for report.txt / summary.txt")
    p.add_argument(
        "--suite",
        default="",
        help=f"comma-separated subset of {','.join(ALL_SUITES)} (default: all)",
    )
    p.add_argument("--dim-min", type=int, default=cfg.dim_min)
    p.add_argument("--dim-max", type=int, default=cfg.dim_max)
    _add_grid_arg(p)

    p = sub.add_parser("plot", help="re-render a grid CSV as csv/pgm/svg")
    p.add_argument("--grid-csv", required=True, dest="grid_csv")
    p.add_argument("--format", choices=FORMATS, required=True)
    p.add_argument("--out", required=True)

    return parser


def _cmd_bracket(args) -> int:
    t = load_matrix(args.t)
    s = load_matrix(args.s)
    seq = bracket_seq(t, s, args.nmax)
    rep = seq.verdict()
    print(f"{'n':>4} {'norm':>14} {'root':>12} {'rev norm':>14} {'rev root':>12}")
    for n in range(seq.n_max):
        print(
            f"{n + 1:>4} {seq.norms[n]:>14.6e} {seq.roots[n]:>12.6f} "
            f"{seq.rev_norms[n]:>14.6e} {seq.rev_roots[n]:>12.6f}"
        )
    print(f"verdict: {rep.verdict}")
    print(f"final root: {rep.final_root:.6e}  trend ratio: {rep.trend:.6f}")
    print(rep.diagnostics)
    if args.emit == "csv" or args.out:
        lines = ["n,norm,root,rev_norm,rev_root"]
        for n in range(seq.n_max):
            lines.append(
                f"{n + 1},{float(seq.norms[n])!r},{float(seq.roots[n])!r},"
                f"{float(seq.rev_norms[n])!r},{float(seq.rev_roots[n])!r}"
            )
        text = "\n".join(lines) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            print(text, end="")
    return 0


def _cmd_equivalence(args) -> int:
    f = load_family(args.f)
    g = load_family(args.g)
    grid = HGrid.parse(args.grid)
    if args.mode == "asym":
        stats = asymptotically_equivalent(f, g, grid)
        print(f"verdict: {stats.limit_verdict}")
        print(f"tail max: {stats.tail_max:.6e}  tail trend: {stats.tail_trend:.4f}")
        if stats.note:
            print(stats.note)
    else:
        rep = asym_qn_equivalent(f, g, grid)
        print(f"verdict: {rep.verdict}")
        print(f"final root: {rep.final_root:.6e}  trend ratio: {rep.trend:.6f}")
        print(rep.diagnostics)
    return 0


def _cmd_scan(args) -> int:
    fam = load_family(args.family)
    local = args.command == "local-spectrum"
    x = load_vector(args.x) if local else None
    grid = HGrid.parse(args.grid)
    rect = _parse_rect(args.rect)
    if local:
        result = family_local_spectrum_grid(fam, x, rect, args.res, args.res, grid)
    else:
        result = family_spectrum_grid(fam, rect, args.res, args.res, grid)
    if args.out:
        emit_plot(result, "csv", args.out)
    else:
        sys.stdout.write(grid_to_csv(result))
    if args.pgm:
        emit_plot(result, "pgm", args.pgm)
    if args.svg:
        emit_plot(result, "svg", args.svg)
    counts = result.counts()
    prefix = "local-" if local else ""
    print(
        f"cells: {result.nx * result.ny}  {prefix}spectrum: {counts['S']}  "
        f"undetermined: {counts['U']}  {prefix}resolvent: {counts['R']}",
        file=sys.stderr,
    )
    return 0


def _cmd_local_member(args) -> int:
    fam = load_family(args.family)
    x = load_vector(args.x)
    grid = HGrid.parse(args.grid)
    rect = _parse_rect(args.rect)
    region = parse_region(args.a)
    scan = family_local_spectrum_grid(fam, x, rect, args.res, args.res, grid)
    answer = local_spectral_space_member(scan, region)
    print(f"member: {answer.member}")
    print(f"inconclusive: {answer.inconclusive}")
    print(f"local spectrum cells: {answer.n_support_cells}")
    if answer.offenders:
        shown = ", ".join(f"{z:.4g}" for z in answer.offenders[:8])
        print(f"cells outside the region: {shown}")
    if answer.note:
        print(answer.note)
    return 0


def _cmd_verify(args) -> int:
    suites = tuple(s for s in args.suite.split(",") if s) if args.suite else ()
    cfg = ScenarioConfig(
        seed=args.seed,
        dim_min=args.dim_min,
        dim_max=args.dim_max,
        grid=HGrid.parse(args.grid),
        suites=suites,
        out_dir=args.out,
    )
    bundle = run_suite(cfg)
    sys.stdout.write(bundle.render_summary())
    if args.out:
        print(f"machine report written to {args.out}/report.txt")
    return bundle.exit_code


def _cmd_plot(args) -> int:
    grid_result = read_grid_csv(args.grid_csv)
    emit_plot(grid_result, args.format, args.out)
    return 0


_COMMANDS = {
    "bracket": _cmd_bracket,
    "equivalence": _cmd_equivalence,
    "spectrum": _cmd_scan,
    "local-spectrum": _cmd_scan,
    "local-member": _cmd_local_member,
    "verify": _cmd_verify,
    "plot": _cmd_plot,
}


def _normalize_argv(argv) -> list[str]:
    """Join `--rect -3:3:-3:3` into `--rect=-3:3:-3:3` for argparse."""
    if argv is None:
        argv = sys.argv[1:]
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--rect" and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_normalize_argv(argv))
    try:
        return _COMMANDS[args.command](args)
    except InvariantError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    except OpfamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
