"""Layer figures the benchmark measures outside the program, on the matrix the
program assembles: the CSR matvec of H, and the sparse LU that scipy's
shift-invert mode builds for an eigensolve (splu of (H - sigma I) in CSC).
The README labels these as reproduced, not read from the program.
"""

from __future__ import annotations

import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def _vector(n, rng):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def csr_matvec_ms(mat, seed, repeats=50):
    """Median wall time of one CSR matvec, in ms."""
    x = _vector(mat.shape[0], np.random.default_rng(seed))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        mat @ x
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def lu_figures(mat, sigma, seed, solves=20):
    """(factorization seconds, L+U nnz, median ms per solve)."""
    shifted = (mat - sigma * sp.eye(mat.shape[0])).tocsc()
    t0 = time.perf_counter()
    lu = spla.splu(shifted)
    lu_s = time.perf_counter() - t0
    rng = np.random.default_rng(seed)
    times = []
    for _ in range(solves):
        b = _vector(mat.shape[0], rng)
        t0 = time.perf_counter()
        lu.solve(b)
        times.append(time.perf_counter() - t0)
    return lu_s, int(lu.L.nnz + lu.U.nnz), 1e3 * statistics.median(times)
