import os
import subprocess
import sys

import numpy as np
import pytest

import opfam

from opfam.families import HGrid


@pytest.fixture(scope="session")
def grid():
    return HGrid()


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def tight_rect():
    """Return a function giving a rectangle 2e-7 wide around an eigenvalue
    of a matrix: no sigma there reaches DELTA_RES, so a spectrum scan of a
    family near that matrix settles no block and computes every cell."""

    def rect(a):
        mu = np.linalg.eigvals(a)[0]
        return (mu.real - 1e-7, mu.real + 1e-7, mu.imag - 1e-7, mu.imag + 1e-7)

    return rect


@pytest.fixture()
def svd_mats(monkeypatch):
    """Numbers of matrices handed to np.linalg.svd, one entry per call."""
    counts = []
    svd = np.linalg.svd

    def counting(a, *args, **kwargs):
        counts.append(int(np.prod(np.shape(a)[:-2])))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return counts


@pytest.fixture(scope="session")
def blas_thread_env():
    """Return a function mapping a thread count n to environment overrides.

    Every BLAS threading variable is set, not OMP_NUM_THREADS alone:
    OpenBLAS reads OPENBLAS_NUM_THREADS before OMP_NUM_THREADS (and MKL
    reads MKL_NUM_THREADS first), so a value exported by the calling
    environment would otherwise win and the override would not take effect.
    """
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

    def env(n: int) -> dict[str, str]:
        return {var: str(n) for var in names}

    return env


@pytest.fixture(scope="session")
def thread_fingerprint(blas_thread_env):
    """Return a function running a script in a fresh interpreter at n BLAS threads.

    The script imports opfam from this checkout and prints one line (a
    digest of what it computed), which the function returns.
    """
    src = os.path.dirname(os.path.dirname(opfam.__file__))

    def run(script: str, n: int) -> str:
        env = dict(os.environ, **blas_thread_env(n))
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    return run
