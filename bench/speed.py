"""Machine-speed probe for a shared, noisy host.

On a host shared with other tenants the same CPU-bound work can take 30 %
longer for minutes at a time.  The probe is a fixed piece of work like
opfam's kernels, batched SVDs and solves of small complex matrices, and
never changes with opfam.
The benchmark runs it between operations and scales each operation's
time by REFERENCE_S over the mean of the six probes nearest to it, so
every reported time is in seconds at the speed where one probe takes
REFERENCE_S.  Raw seconds are kept in the detail line.
"""

from __future__ import annotations

import time

import numpy as np

# numpy.linalg's functions bound here, so a traced run's counters never
# see the probe.
from numpy.linalg import solve, svd

REFERENCE_S = 0.025


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._stacks = [
            rng.standard_normal((n, d, d)) + 1j * rng.standard_normal((n, d, d))
            for n, d in ((3000, 2), (600, 6), (40, 16))
        ]

    def __call__(self) -> float:
        """Seconds one probe takes now."""
        t0 = time.perf_counter()
        for stack in self._stacks:
            svd(stack, compute_uv=False)
            solve(stack, stack[..., :1])
        return time.perf_counter() - t0
