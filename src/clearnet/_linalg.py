"""The one solver of ``(I - diag(r) C) x = b``, plus the dense LU it falls
back on, which keeps an explicit pivot check."""
from __future__ import annotations

import math
import warnings

import numpy as np
import scipy.linalg
import scipy.sparse
from numpy.typing import NDArray

from .errors import SingularSystem

PIVOT_TOL = 1e-14
EPS = float(np.finfo(float).eps)


def as_csr(C) -> scipy.sparse.csr_array:
    """``C`` as a float CSR array.

    A dense 2-D input is converted with one scan for its nonzeros in row-
    major order, which gives the CSR column indices and, by a search for
    each row's start, the row pointers. This skips the COO detour of
    ``scipy.sparse.csr_array(C)`` for the N x N liability matrix that
    :func:`clearnet.net_model.build_system` converts and for dense
    matrices passed to the public functions.
    """
    if scipy.sparse.issparse(C):
        return scipy.sparse.csr_array(C, dtype=float)
    C = np.asarray(C, dtype=float)
    if C.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {C.shape}")
    n_rows, n_cols = C.shape
    flat = np.flatnonzero(C != 0)
    starts = np.searchsorted(flat, np.arange(n_rows + 1) * n_cols)
    return scipy.sparse.csr_array((C.ravel()[flat], flat % n_cols, starts), shape=C.shape)


def lu_factor_checked(A: NDArray, context: str):
    """LU factorization with partial pivoting; raises ``SingularSystem``
    when a pivot falls below ``1e-14`` (scipy's own warning is silenced
    because the condition is handled here)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    if np.min(np.abs(np.diagonal(lu))) < PIVOT_TOL:
        raise SingularSystem(f"{context}: matrix is numerically singular")
    return lu, piv


def solve_checked(A: NDArray, b: NDArray, context: str) -> NDArray:
    if A.shape[0] == 0:
        return np.zeros_like(np.asarray(b, dtype=float))
    lu, piv = lu_factor_checked(A, context)
    return scipy.linalg.lu_solve((lu, piv), b, check_finite=False)


def solve_attenuated(C: scipy.sparse.csr_array, r, b: NDArray, context: str) -> NDArray:
    """Solve ``(I - diag(r) C) x = b`` for a sparse square ``C``.

    With ``q = ||diag(r) C||_1`` (the largest column sum of ``|r_i C_ij|``)
    below one, the Neumann sweep ``x <- b + r * (C @ x)`` from ``x = b`` is
    a contraction, and ``k = ceil(log(eps (1 - q) / (1 + q)) / log q)``
    sweeps bound its relative 1-norm error by machine epsilon. The sweep
    runs when, besides, ``k * nnz(C) < n**3 / 3``, the flop count of a
    dense LU; it stops early as soon as a sweep returns its input bit for
    bit. Otherwise (``q >= 1``, or a small or dense ``C``) the dense
    ``I - diag(r) C`` is formed and solved by :func:`solve_checked`, which
    raises ``SingularSystem`` on a pivot below ``1e-14``.
    """
    n = C.shape[0]
    b = np.asarray(b, dtype=float)
    r = np.broadcast_to(np.asarray(r, dtype=float), (n,))
    if n == 0:
        return np.zeros_like(b)
    q = float((abs(C).T @ np.abs(r)).max())
    if q < 1.0:
        bound = EPS * (1.0 - q) / (1.0 + q)
        sweeps = 1 if q == 0.0 else math.ceil(math.log(bound) / math.log(q))
        if sweeps * C.nnz < n**3 / 3:
            x = b.copy()
            for _ in range(sweeps):
                nxt = b + r * (C @ x)
                if np.array_equal(nxt, x):
                    break
                x = nxt
            return x
    A = C.toarray()
    A *= -r[:, None]
    A[np.diag_indices(n)] += 1.0
    return solve_checked(A, b, context)
