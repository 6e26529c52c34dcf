"""Span tracer that wraps opfam's layers from outside the program.

A layer is an opfam module.  ``Tracer.install`` wraps every public
function a layer defines, in every opfam module that bound it by name
(``cli`` imports ``family_spectrum_grid`` and the emitters by name, and
``verify`` imports most of the library that way), plus a few methods, the
``verify.CHECKS`` registry and, as counters, the numpy / scipy
linear-algebra entry points opfam calls.  ``Tracer.uninstall`` puts every original back.

Spans are kept in memory as ``(name, op, start, end, self_s, parent)``;
a span's self time is its duration minus the durations of its direct
children.  Wrappers are transparent while the tracer is paused, so set-up
and oracle work outside an operation leave no spans.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import Counter

import numpy as np

LAYERS = (
    "bracket",
    "cli",
    "emit",
    "families",
    "fileio",
    "generators",
    "linalg",
    "local",
    "regions",
    "spectra",
    "verify",
)

METHODS = (
    ("families", "OperatorFamily", "eval_stack"),
    ("families", "VectorFamily", "eval_stack"),
    ("verify", "ReportBundle", "render_machine"),
    ("verify", "ReportBundle", "render_summary"),
)

# Input validators run on every matrix and vector; spans for them would
# more than double the span count of a verify run and feed no metric.
UNTRACED = {"linalg.as_matrix", "linalg.as_vector"}

# Entry points whose first argument is a (possibly batched) matrix stack;
# the tracer counts the matrices passed, batch dimensions included.
LAPACK = (
    ("numpy.linalg", "svd", "svd"),
    ("numpy.linalg", "solve", "solve"),
    ("numpy.linalg", "pinv", "pinv"),
    ("scipy.linalg", "lu_factor", "lu"),
)


def _matrix_count(a) -> int:
    count = 1
    for n in np.shape(a)[:-2]:
        count *= n
    return count


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.active = False
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name: str, fn, on_call=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][0] if stack else ""
            frame = [name, time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                tracer.spans.append((name, tracer.op, frame[1], end, duration - frame[2], parent))
            if on_call is not None:
                on_call(args, kwargs, result, duration)
            return result

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer; raises if this tracer is installed already."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = {name: sys.modules[f"opfam.{name}"] for name in LAYERS}
        wrapped = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ == module.__name__ and f"{layer}.{attr}" not in UNTRACED:
                    wrapped[obj] = self._wrap(f"{layer}.{attr}", obj, self._on_call(layer, attr))
        opfam_modules = [m for n, m in sys.modules.items() if n == "opfam" or n.startswith("opfam.")]
        for module in opfam_modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._patch(module, attr, wrapped[obj])
        for layer, cls_name, attr in METHODS:
            cls = getattr(modules[layer], cls_name)
            self._patch(cls, attr, self._wrap(f"{layer}.{attr}", vars(cls)[attr]))
        verify = modules["verify"]
        self._patch(
            verify,
            "CHECKS",
            tuple(
                (check_id, suite, self._wrap(f"verify.check.{check_id}", fn))
                for check_id, suite, fn in verify.CHECKS
            ),
        )
        for module_name, attr, kind in LAPACK:
            module = sys.modules[module_name]
            self._patch(module, attr, self._count_mats(kind, getattr(module, attr)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        self.active = False

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- counters fed at the layer boundaries -------------------------------

    def _count_mats(self, kind: str, fn):
        """Count the matrices passed to fn; no span, as these calls are hot."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if tracer.active:
                tracer.counts[f"mats.{kind}", tracer.op] += _matrix_count(a)
            return fn(a, *args, **kwargs)

        return wrapper

    def _on_call(self, layer: str, attr: str):
        if (layer, attr) == ("emit", "grid_to_csv"):

            def on_call(args, kwargs, result, duration):
                self.counts["emit.bytes", self.op] += len(result.encode())

            return on_call
        if (layer, attr) == ("emit", "emit_plot"):

            def on_call(args, kwargs, result, duration):
                fmt, path = args[1:3] if len(args) >= 3 else (kwargs["fmt"], kwargs["path"])
                self.counts[f"emit.{fmt}_s", self.op] += duration
                self.counts["emit.bytes", self.op] += os.path.getsize(path)

            return on_call
        return None
