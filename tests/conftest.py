"""Shared fixtures: the worked 4x3x3 rank-4 example and its derived data."""

import os
import subprocess
import sys
from pathlib import Path

# Idle OpenBLAS workers sleep after 2^4 spin cycles instead of busy-waiting
# for the next call.  It must be set before numpy loads OpenBLAS; at two
# BLAS threads it more than halves the suite's time, with the same results.
os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

import numpy as np  # noqa: E402
import pytest

from cpdhnf import BilinearSystem, DenseTensor, hilbert_dim

# mode-1 flattening of the worked 4x3x3 example; column (k, l) row-major
GOLDEN_FLATTENING = np.array([
    [1, 0, 0, 0, 0, 0, 2, 0, 0],
    [1, 1, 0, 0, 0, 0, 2, 1, 0],
    [1, 1, 1, 0, 0, 1, 2, 1, 2],
    [1, 1, 1, 1, 1, 2, 2, 1, 2],
], dtype=float)

# hand-computed kernel basis of the flattening: f_j coefficients on x_k y_l
GOLDEN_KERNEL = np.array([
    [0, 0, 0, -1, 1, 0, 0, 0, 0],
    [0, 0, -1, -1, 0, 1, 0, 0, 0],
    [-2, 0, 0, 0, 0, 0, 1, 0, 0],
    [0, -1, 0, 0, 0, 0, 0, 1, 0],
    [0, 0, -2, 0, 0, 0, 0, 0, 1],
], dtype=float)

# solution points (beta_i, gamma_i) and first-mode factors of the example
GOLDEN_BETAS = np.array([
    [1, 1, 1, 0],
    [0, 0, 1, 1],
    [2, 1, 2, 0],
], dtype=float)
GOLDEN_GAMMAS = np.array([
    [1, 0, 0, 1],
    [0, 1, 0, 1],
    [0, 0, 1, 1],
], dtype=float)
GOLDEN_ALPHAS = np.array([
    [1, 0, 0, 0],
    [1, 1, 0, 0],
    [1, 1, 1, 0],
    [1, 1, 1, 1],
], dtype=float)

# 18x15 shift matrix at degree (2, 1): (row, column, value) triples under the
# monomial order x0^2y0, x0^2y1, ..., x2^2y2 and columns x0 f1, x1 f1, x2 f1,
# x0 f2, ...
GOLDEN_RESULTANT_21 = [
    (3, 0, -1), (4, 0, 1),
    (9, 1, -1), (10, 1, 1),
    (12, 2, -1), (13, 2, 1),
    (2, 3, -1), (3, 3, -1), (5, 3, 1),
    (5, 4, -1), (9, 4, -1), (11, 4, 1),
    (8, 5, -1), (12, 5, -1), (14, 5, 1),
    (0, 6, -2), (6, 6, 1),
    (3, 7, -2), (12, 7, 1),
    (6, 8, -2), (15, 8, 1),
    (1, 9, -1), (7, 9, 1),
    (4, 10, -1), (13, 10, 1),
    (7, 11, -1), (16, 11, 1),
    (2, 12, -2), (8, 12, 1),
    (5, 13, -2), (14, 13, 1),
    (8, 14, -2), (17, 14, 1),
]

# eigenvalues of the multiplication matrices for h0 = x0 + x1 + x2, one row
# per coordinate, one column per solution point (fixture column order)
GOLDEN_EIG_ROWS = np.array([
    [0.0, 0.25, 1.0 / 3.0, 0.5],
    [1.0, 0.25, 0.0, 0.0],
    [0.0, 0.5, 2.0 / 3.0, 0.5],
])


@pytest.fixture
def golden_tensor():
    return DenseTensor(GOLDEN_FLATTENING.reshape(4, 3, 3))


@pytest.fixture
def golden_system():
    """The hand-computed kernel basis as a bilinear system (not orthonormal)."""
    return BilinearSystem(GOLDEN_KERNEL.reshape(5, 3, 3))


def golden_resultant_dense():
    R = np.zeros((18, 15))
    for i, j, v in GOLDEN_RESULTANT_21:
        R[i, j] = v
    return R


def fail_dense_buffers(monkeypatch, nrows):
    """Make the cokernel's dense buffers unallocatable: numpy.zeros of an
    nrows x nrows array raises MemoryError.  That covers the Gram matrix
    and, for a square shift matrix, the dense R that
    ``ResultantMatrix.toarray`` allocates for the SVD."""
    zeros = np.zeros

    def no_square_buffer(shape, *args, **kwargs):
        if shape == (nrows, nrows):
            raise MemoryError
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", no_square_buffer)


def stacked_rows(m, n, r, degree):
    """Rows of the Gram matrix that the eigs cokernel factors at a degree
    (d, e) where the shift matrix splits along x_0: its rows less its
    columns whose shift holds x_0, which the lower levels' nullspace
    removes."""
    d, e = degree
    return hilbert_dim(m, n, d, e) - ((m + 1) * (n + 1) - r) * hilbert_dim(m, n, d - 2, e - 1)


# the check that a child process has not loaded scipy; it runs in a fresh
# interpreter because the test process imports scipy itself
NO_SCIPY = """
import sys
loaded = [name for name in sys.modules if name.partition(".")[0] == "scipy"]
assert not loaded, loaded
"""


def run_fresh(source):
    """Run Python source in a new interpreter that imports ``cpdhnf`` from
    this checkout; fail with the child's stderr if it exits nonzero."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", source], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout
