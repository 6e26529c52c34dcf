"""opfam benchmark: one workload, one caller, closed loop.

    python3 bench/run.py --workload scan-spectrum --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the benchmark imports opfam from
``src/`` beside this directory and from nowhere else.  It pins the
BLAS / OpenMP thread count to 1 before numpy is imported, builds the
workload's inputs from ``--seed``, sets up three times (``setup_s`` is
the import time plus the median set-up), then calls the
workload's operations in turn until one whole pass and ``--seconds`` of
operation time have been measured.  Every operation's outputs are checked.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``: the end-to-end metrics
with ``--trace 0``, the per-layer metrics from a traced run with
``--trace 1``.  The line before it is a detail object with the
environment, ``verdict_sha256`` and the per-dimension scan figures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
SETUP_REPS = 3
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)

# The checks of the verify-core suites; their names are per-layer metric
# names in BENCHMARK.json.
VERIFY_CHECKS = (
    "ac01-bracket-recurrence",
    "ac02-qn-pairs",
    "ac03-non-equivalence-control",
    "ac06-quotient-sandwich",
    "sup01-norm-algebra",
    "sup02-neumann-solve",
    "sup03-spectral-projections",
    "sup04-qn-laws",
    "sup05-family-relation-laws",
    "sup06-bounded-asym-implies-qn",
    "sup07-class-representative-stability",
    "sup08-commute-quotient",
    "sup09-module-action",
)

END_TO_END = {
    "wall_s": "s",
    "op_fast_s": "s",
    "op_med_s": "s",
    "op_slow_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def scan_cases() -> list[str]:
    from workloads import KINDS, SCAN_DIMS

    return [f"{kind}{d}" for d in SCAN_DIMS for kind in KINDS]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run prints, with its unit."""
    units = {}
    for layer in ("spectra", "local"):
        for case in scan_cases():
            units[f"{layer}.grid_s.{case}"] = "s"
    for kind in ("svd", "solve", "pinv", "lu"):
        units[f"linalg.lapack_{kind}_mats"] = "count"
    units["linalg.spectral_decomp_s"] = "s"
    units["linalg.solve_calls"] = "count"
    units["families.eval_stack_calls"] = "count"
    units["families.eval_stack_s"] = "s"
    units["families.norm_samples_calls"] = "count"
    units["families.tail_stats_calls"] = "count"
    units["spectra.family_scale_calls"] = "count"
    units["bracket.bracket_seq_s"] = "s"
    units["bracket.qn_equivalent_s"] = "s"
    for check_id in VERIFY_CHECKS:
        units[f"verify.check_s.{check_id}"] = "s"
    units["verify.render_s"] = "s"
    for fmt in ("csv", "pgm", "svg"):
        units[f"emit.{fmt}_s"] = "s"
    units["emit.bytes"] = "B"
    units["fileio.load_s"] = "s"
    units["cli.main_self_s"] = "s"
    units["trace.wall_s"] = "s"
    return units


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("scan-spectrum", "scan-local", "verify-core"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def pin_threads() -> dict:
    """Pin BLAS / OpenMP to one thread; effective only before numpy loads."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    return {"numpy_loaded_before_pin": "numpy" in sys.modules, **{v: os.environ[v] for v in THREAD_VARS}}


def import_opfam() -> float:
    """Import numpy, scipy and opfam from ROOT/src; returns the import time.

    Raises ImportError when the checkout holds no opfam sources, so the
    benchmark never measures an opfam installed elsewhere.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "opfam", "__init__.py")):
        raise ImportError(f"no opfam sources under {src}")
    t0 = time.perf_counter()
    if src not in sys.path:
        sys.path.insert(0, src)
    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import opfam
    import opfam.cli  # noqa: F401

    elapsed = time.perf_counter() - t0
    if os.path.dirname(os.path.dirname(os.path.abspath(opfam.__file__))) != os.path.abspath(src):
        raise ImportError(f"opfam was imported from {opfam.__file__}, not {src}")
    return elapsed


def environment(threads: dict) -> dict:
    import numpy
    import scipy

    def blas(show_config):
        try:
            deps = show_config(mode="dicts")["Build Dependencies"]
        except (TypeError, KeyError):
            return {}
        return {
            lib: {k: deps[lib].get(k) for k in ("name", "version", "openblas configuration")}
            for lib in ("blas", "lapack")
            if lib in deps
        }

    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": affinity,
        "machine": platform.machine(),
        "threads": threads,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


class Run:
    """Records of one measured run; call i ran operation i % len(ops)."""

    def __init__(self, workload):
        self.workload = workload
        self.durations: list[float] = []  # raw seconds, by call
        self.factors: list[float] = []  # speed scale of each call
        self.probes: list[float] = []  # speed probe seconds, between the calls
        self.digests: list[bytes] = []  # first digest of each operation
        self.failed = 0
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.durations)

    def fail(self, label: str, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 10:
            self.failures.append(f"{label}: {message}")

    def per_op(self, value_of_call) -> list[float]:
        """Median over the calls of each operation of value_of_call(call)."""
        n_ops = len(self.workload.ops)
        return [
            statistics.median(value_of_call(c) for c in range(k, self.attempted, n_ops))
            for k in range(n_ops)
        ]

    def pass_total(self, value_of_call) -> float:
        """One pass's worth of a per-call value: the per-op medians summed."""
        return sum(self.per_op(value_of_call))

    def verdict_sha256(self) -> str:
        return hashlib.sha256(b"".join(self.digests)).hexdigest()

    def scaled(self, seconds_of_call):
        """A per-call time in seconds at the probe's reference speed."""
        return lambda c: seconds_of_call(c) * self.factors[c]

    def seconds(self, call: int) -> float:
        """The call's own duration at the reference speed."""
        return self.durations[call] * self.factors[call]


def measure(workload, seconds: float, tracer=None) -> Run:
    """Closed loop over the ops, in order, until at least one whole pass
    and `seconds` of operation time have been measured."""
    from speed import REFERENCE_S, SpeedProbe
    from workloads import Outcome

    run = Run(workload)
    probe = SpeedProbe()
    run.probes.append(probe())
    n_ops = len(workload.ops)
    timed = 0.0
    while run.attempted < n_ops or timed < seconds:
        op = workload.ops[run.attempted % n_ops]
        if tracer is not None:
            tracer.op = run.attempted
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception:  # a crashing operation counts as failed; the run goes on
            error = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        outcome = Outcome(False, b"", error) if error else op.check(result)
        digest = op.label.encode() + outcome.digest
        if len(run.digests) < n_ops:
            run.digests.append(digest)
        # Each call counts as failed at most once.
        if not outcome.ok:
            run.fail(op.label, outcome.message)
        elif digest != run.digests[run.attempted % n_ops]:
            run.fail(op.label, "verdicts differ from the first call")
        run.durations.append(elapsed)
        run.probes.append(probe())
        timed += elapsed
    # Call c ran between probes c and c + 1; scale it by the mean of the
    # three probes on each side.
    p = run.probes
    run.factors = [REFERENCE_S / statistics.fmean(p[max(0, c - 2) : c + 4]) for c in range(run.attempted)]
    return run


def _tercile_medians(per_op: list[float]) -> tuple[float, float, float]:
    ranked = sorted(per_op)
    third = max(1, len(ranked) // 3)
    return (
        statistics.median(ranked[:third]),
        statistics.median(ranked),
        statistics.median(ranked[-third:]),
    )


def end_to_end_metrics(run: Run, setup_s: float) -> dict:
    per_op = run.per_op(run.seconds)
    fast, med, slow = _tercile_medians(per_op)
    values = {
        "wall_s": sum(per_op),
        "op_fast_s": fast,
        "op_med_s": med,
        "op_slow_s": slow,
        "setup_s": setup_s,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def scan_figures(run: Run) -> dict:
    """The per-dimension CLI call medians and cell throughput of a scan."""
    ops = run.workload.ops
    if not ops[0].cells:
        return {}
    seconds = [run.seconds(c) for c in range(run.attempted)]
    out = {}
    for d in sorted({op.size for op in ops}):
        calls = [t for c, t in enumerate(seconds) if ops[c % len(ops)].size == d]
        out[f"d{d}_op_s"] = {"value": statistics.median(calls), "unit": "s"}
    cells = sum(ops[c % len(ops)].cells for c in range(run.attempted))
    out["cells_per_s"] = {"value": cells / sum(seconds), "unit": "cells/s"}
    return out


def per_layer_metrics(run: Run, tracer) -> dict:
    """Per-layer figures for one pass, from the spans of each call.

    Times and counts are per-op medians summed over the pass; grid times
    are the median call of one case.
    """
    ops = run.workload.ops
    by_call: dict[tuple[str, int], float] = {}
    self_by_call: dict[tuple[str, int], float] = {}
    calls_by_call: dict[tuple[str, int], int] = {}
    for name, call, start, end, self_s, _ in tracer.spans:
        by_call[name, call] = by_call.get((name, call), 0.0) + (end - start)
        self_by_call[name, call] = self_by_call.get((name, call), 0.0) + self_s
        calls_by_call[name, call] = calls_by_call.get((name, call), 0) + 1
    for (key, call), value in tracer.counts.items():
        by_call[key, call] = value

    def time_in(*names):
        return run.pass_total(run.scaled(lambda c: sum(by_call.get((n, c), 0.0) for n in names)))

    def count_of(key):
        return run.pass_total(lambda c: by_call.get((key, c), 0))

    def calls_of(name):
        return run.pass_total(lambda c: calls_by_call.get((name, c), 0))

    def grid_s(name, case):
        k = next((k for k, op in enumerate(ops) if op.label == case), None)
        return 0.0 if k is None else run.per_op(run.scaled(lambda c: by_call.get((name, c), 0.0)))[k]

    values = {}
    for case in scan_cases():
        values[f"spectra.grid_s.{case}"] = grid_s("spectra.family_spectrum_grid", case)
        values[f"local.grid_s.{case}"] = grid_s("local.family_local_spectrum_grid", case)
    for kind in ("svd", "solve", "pinv", "lu"):
        values[f"linalg.lapack_{kind}_mats"] = count_of(f"mats.{kind}")
    values["linalg.spectral_decomp_s"] = time_in("linalg.spectral_decomp")
    values["linalg.solve_calls"] = calls_of("linalg.solve")
    values["families.eval_stack_calls"] = calls_of("families.eval_stack")
    values["families.eval_stack_s"] = time_in("families.eval_stack")
    values["families.norm_samples_calls"] = calls_of("families.norm_samples")
    values["families.tail_stats_calls"] = calls_of("families.tail_stats")
    values["spectra.family_scale_calls"] = calls_of("spectra.family_scale")
    values["bracket.bracket_seq_s"] = time_in("bracket.bracket_seq")
    values["bracket.qn_equivalent_s"] = time_in("bracket.qn_equivalent")
    for check_id in VERIFY_CHECKS:
        values[f"verify.check_s.{check_id}"] = time_in(f"verify.check.{check_id}")
    values["verify.render_s"] = time_in("verify.render_machine", "verify.render_summary")
    values["emit.csv_s"] = time_in("emit.grid_to_csv")
    for fmt in ("pgm", "svg"):
        values[f"emit.{fmt}_s"] = time_in(f"emit.{fmt}_s")
    values["emit.bytes"] = count_of("emit.bytes")
    values["fileio.load_s"] = time_in("fileio.load_family", "fileio.load_vector", "fileio.load_matrix")
    values["cli.main_self_s"] = run.pass_total(run.scaled(lambda c: self_by_call.get(("cli.main", c), 0.0)))
    values["trace.wall_s"] = run.pass_total(run.seconds)
    return {k: {"value": values[k], "unit": u} for k, u in per_layer_units().items()}


def set_up(factory, seed: int, work_root: str, probe):
    """SETUP_REPS fresh set-ups (inputs, files, warm-up call); keeps the last.

    Returns the workload, the raw seconds of each set-up and each one's
    speed scale, taken from probes on both sides as for a call.
    """
    from speed import REFERENCE_S

    times, factors = [], []
    workload = None
    before = probe()
    for _ in range(SETUP_REPS):
        workdir = tempfile.mkdtemp(dir=work_root)
        t0 = time.perf_counter()
        workload = factory(seed, workdir)
        workload.warmup()
        times.append(time.perf_counter() - t0)
        after = probe()
        factors.append(2.0 * REFERENCE_S / (before + after))
        before = after
    return workload, times, factors


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, work_root: str, import_s=0.0, factory=None):
    """Set up and measure one workload.

    Returns the result object (with the end-to-end metrics, or the
    per-layer ones when tracing), the detail object and the Run.
    `factory(seed, workdir)` defaults to the named workload at full size.
    """
    import workloads
    from speed import SpeedProbe
    from tracer import Tracer

    factory = factory or workloads.WORKLOADS[name]
    workload, setup_times, setup_factors = set_up(factory, seed, work_root, SpeedProbe())
    setup_s = import_s * statistics.median(setup_factors) + statistics.median(
        t * f for t, f in zip(setup_times, setup_factors)
    )
    tracer = Tracer() if trace else None
    if tracer is None:
        run = measure(workload, seconds)
    else:
        with tracer:
            run = measure(workload, seconds, tracer)
    detail = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "ops_per_pass": [op.label for op in workload.ops],
        "ops_total": run.attempted,
        "ops_failed": run.failed,
        "failures": run.failures,
        "verdict_sha256": run.verdict_sha256(),
        "import_raw_s": import_s,
        "setup_reps_raw_s": setup_times,
        "wall_raw_s": run.pass_total(run.durations.__getitem__),
        "calls_raw_s": run.durations,
        "probes_raw_s": run.probes,
        **workload.info,
    }
    if tracer is None:
        metrics = end_to_end_metrics(run, setup_s)
        detail["scan"] = scan_figures(run)
    else:
        metrics = per_layer_metrics(run, tracer)
        detail["spans"] = len(tracer.spans)
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    return result, detail, run


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = pin_threads()
    try:
        import_s = import_opfam()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, BENCH_DIR)
    work_root = os.path.join(ROOT, ".bench_work")
    os.makedirs(work_root, exist_ok=True)
    work_root = tempfile.mkdtemp(dir=work_root)
    try:
        result, detail, _ = run_benchmark(
            args.workload, args.seed, args.seconds, bool(args.trace), work_root, import_s
        )
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(work_root))
    detail["environment"] = environment(threads)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
