"""The one solver of ``(I - diag(r) C) x = b``, ``C >= 0``: one sweep loop
on the rows of ``C`` that belong to the unknowns, in place, with every
other entry held, and one dense LU it falls back on, which keeps an
explicit pivot check. A square solve is that solve over every row, with no
entry held. ``scipy.linalg`` is imported by the fallback only, so a run
that never takes it never loads it.

Every matrix inside the package is a :class:`Csr`: the row pointers,
column indices and values of the compressed-sparse-row format, and the
shape. Every product of the clear and of the power iteration goes through
the seam :func:`matvec` and :func:`rmatvec`, which call scipy's compiled
``csr_matvec`` and ``csc_matvec`` as ``A @ x`` calls them
(``_compressed._matmul_vector``): the same product bit for bit, without a
sparse object or the operator's dispatch per product. Those kernels and
``csr_tocsc``, the transpose of :func:`clearnet.net_model.build_system`,
are bound once, below, from scipy's ``sparse/_sparsetools`` extension,
loaded from its file: importing ``scipy.sparse`` for them would first run
the ``scipy`` and ``scipy.sparse`` package inits, which take most of the
package's import time and load hundreds of modules the package never
uses. No path of the package imports ``scipy.sparse`` or builds one of its
matrices, save :func:`as_csr`'s copy of a caller's: every caller's matrix,
dense or sparse, turns into a :class:`Csr` there and only there. A caller
who wants one of the package's matrices as a ``csr_array`` builds it from
the arrays, ``scipy.sparse.csr_array((C.data, C.indices, C.indptr),
shape=C.shape)``.

The solver's Neumann sweep takes one Aitken step along the dominant mode
whenever the ratio of successive sweep steps has settled: on claims
matrices the Perron root stands well clear of the rest of the spectrum, so
after a few sweeps the error is nearly one geometric sequence, and the
step removes it at the cost of one subtraction and two dot products per
sweep."""
from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import math
import os
import sys
import warnings
from collections import namedtuple

import numpy as np
from numpy.typing import NDArray

from .errors import DimensionMismatch, SingularSystem

PIVOT_TOL = 1e-14
EPS = float(np.finfo(float).eps)
# Relative agreement of two successive step ratios at which the sweep jumps.
# The ratio converges to the dominant eigenvalue as fast as the other modes
# fade; sweep counts on generated networks barely move from 0.01 to 0.1.
RATIO_SETTLE = 0.03


def _load_sparsetools():
    """scipy's compiled ``sparse/_sparsetools`` extension, loaded from its
    file in the directory of the installed ``scipy`` package. Finding that
    package's spec does not run ``scipy/__init__``, and the extension is
    not entered in ``sys.modules``, so no ``scipy`` module is imported for
    it; a later ``import scipy.sparse`` loads its own copy."""
    scipy, spec = importlib.util.find_spec("scipy"), None
    if scipy is not None:
        path = [os.path.join(d, "sparse") for d in scipy.submodule_search_locations]
        spec = importlib.machinery.PathFinder.find_spec("_sparsetools", path)
    if spec is None:
        raise ImportError("clearnet needs scipy's compiled sparse kernels, "
                          "scipy/sparse/_sparsetools, and found none")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_sparsetools = _load_sparsetools()
csr_matvec = _sparsetools.csr_matvec
csc_matvec = _sparsetools.csc_matvec
csr_tocsc = _sparsetools.csr_tocsc


class Csr(namedtuple("Csr", "indptr indices data shape")):
    """A matrix in compressed sparse rows: row ``i`` holds the values
    ``data[indptr[i]:indptr[i + 1]]`` in the columns ``indices[...]`` of the
    same range, as in scipy's CSR format, and ``shape`` is ``(rows,
    columns)``. Every routine of the package takes its matrices so and
    reads the arrays in place."""

    @functools.cached_property
    def column_sums(self) -> NDArray:
        """``1^T A``, read-only: one :func:`rmatvec` on first use, kept on
        the matrix, bit for bit :func:`column_weights` at unit rates. Two
        threads that use it first at once get the same bits."""
        sums = rmatvec(self, np.ones(self.shape[0]))
        sums.setflags(write=False)
        return sums

    def toarray(self) -> NDArray:
        """A dense copy, duplicate entries summed, as scipy's ``toarray``."""
        out = np.zeros(self.shape)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        np.add.at(out, (rows, self.indices), self.data)
        return out


def as_csr(C) -> Csr:
    """``C`` as a float :class:`Csr`, the one place where a caller's matrix
    becomes one. A :class:`Csr` is returned as it is, with no copy and no
    scan, so that its :attr:`Csr.column_sums` last across calls.

    A ``scipy.sparse`` matrix or array becomes a private canonical copy:
    duplicate entries summed, zeros of either sign dropped, sorted int64
    indices, so that it gives the arrays of its dense form. ``scipy.sparse``
    is looked up in ``sys.modules``, not imported: a caller holding one of
    its matrices has imported it.

    A dense 2-D input is converted with one scan for its nonzeros in row-
    major order, which gives the column indices and, by a search for each
    row's start, the row pointers: no COO detour, for the N x N liability
    matrix that :func:`clearnet.net_model.build_system` converts and for
    dense matrices passed to the public functions.
    """
    if isinstance(C, Csr):
        return C
    sparse = sys.modules.get("scipy.sparse")
    if sparse is not None and sparse.issparse(C):
        C = sparse.csr_array(C, dtype=float, copy=True)
        C.sum_duplicates()
        C.eliminate_zeros()
        return Csr(*(part.astype(np.int64, copy=False) for part in (C.indptr, C.indices)),
                   C.data, C.shape)
    C = np.asarray(C, dtype=float)
    if C.ndim != 2:
        raise DimensionMismatch(f"expected a matrix, got shape {C.shape}")
    n_rows, n_cols = C.shape
    flat = np.flatnonzero(C != 0)
    starts = np.searchsorted(flat, np.arange(n_rows + 1) * n_cols)
    return Csr(starts, flat % n_cols, C.ravel()[flat], C.shape)


def gather_rows(C: Csr, idx: NDArray) -> Csr:
    """The rows ``idx`` of ``C``, ``C[idx]`` entry for entry."""
    starts, counts = C.indptr[idx], np.diff(C.indptr)[idx]
    indptr = np.cumsum(np.append(0, counts), dtype=C.indptr.dtype)
    at = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], counts)
    return Csr(indptr, C.indices[at], C.data[at], (len(idx), C.shape[1]))


def matvec(A, x: NDArray) -> NDArray:
    """``A @ x`` for a float :class:`Csr` ``A``; the shape of ``x`` is
    checked here, since the kernel reads ``x`` unchecked."""
    if x.shape != A.shape[1:]:
        raise ValueError(f"dimension mismatch: {A.shape} matrix and {x.shape} vector")
    y = np.zeros(A.shape[0])
    csr_matvec(*A.shape, A.indptr, A.indices, A.data, x, y)
    return y


def rmatvec(A, x: NDArray) -> NDArray:
    """``A.T @ x`` as :func:`matvec` forms ``A @ x``, the CSR arrays of ``A``
    read in place as the compressed columns of ``A.T``."""
    if x.shape != A.shape[:1]:
        raise ValueError(f"dimension mismatch: {A.shape} matrix and {x.shape} vector")
    y = np.zeros(A.shape[1])
    csc_matvec(*A.shape[::-1], A.indptr, A.indices, A.data, x, y)
    return y


def lu_factor_checked(A: NDArray, context: str):
    """LU factorization with partial pivoting; raises ``SingularSystem``
    when a pivot falls below ``1e-14`` (scipy's own warning is silenced
    because the condition is handled here)."""
    import scipy.linalg

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    if np.min(np.abs(np.diagonal(lu))) < PIVOT_TOL:
        raise SingularSystem(f"{context}: matrix is numerically singular")
    return lu, piv


def column_weights(C, r: NDArray) -> NDArray:
    """``|r|^T C``, the column sums of ``|r_i| C_ij``, by one :func:`rmatvec`
    that allocates nothing of the size of ``C``, for an ``r`` with one entry
    per row and a ``C >= 0``: :func:`clearnet.net_model.build_system` makes
    every claims matrix so, and each public entry checks a matrix it is given."""
    return rmatvec(C, np.abs(r))


def solve_attenuated(C, r, b: NDArray, context: str) -> NDArray:
    """Solve ``(I - diag(r) C) x = b`` for a square ``C >= 0``, read by
    :func:`as_csr`: the solve of :func:`solve_rows` over every row of ``C``,
    from ``x = b``, with no entry held. Returns ``x``, a new array.

    When every entry of ``r`` is the same ``r_0 != 0`` the column weights
    are ``|r_0|`` times :attr:`Csr.column_sums`, which differ from a pass
    over ``C`` only in rounding, and a system's ``C`` is read for its sums
    once; otherwise the solver makes its own pass, whose weights at
    ``r = 0`` are 0 even where a sum of ``C`` overflows.
    """
    C = as_csr(C)
    b = np.asarray(b, dtype=float)
    r = np.broadcast_to(np.asarray(r, dtype=float), C.shape[:1])
    if r.size and r.min() == r.max() != 0.0:
        c = abs(float(r[0])) * C.column_sums
    else:
        c = column_weights(C, r)
    x = b.copy()
    _sweep_rows(C, slice(None), r, b, x, c, context)
    return x


def solve_rows(R: Csr, free: NDArray, r: NDArray, b: NDArray, p: NDArray, context: str):
    """Solve ``x = b + r * (R p)`` for the entries ``x = p[free]`` of ``p``,
    in place, with the other entries of ``p`` held: ``R`` is the rows
    ``free`` of an n x n ``C >= 0`` (:func:`gather_rows`), so this is
    ``(I - diag(r) C_FF) x = b + r * (C_FH p_H)``, ``H`` the held entries.
    The solve starts from ``p[free]`` as given."""
    _sweep_rows(R, free, r, b, p, column_weights(R, r), context)


def _sweep_rows(A, free, r, b, p, c, context) -> None:
    """Write into ``p[free]`` the solution ``x`` of ``x = b + r * (A p)``,
    ``A`` the rows ``free`` of an n x n ``C >= 0`` (all of ``C`` when
    ``free`` is every index), ``c`` the :func:`column_weights` of
    ``diag(r) A`` and ``m = len(b)`` the number of unknowns.

    With ``q``, the largest weight of a free column, below one, the Neumann
    sweep ``x <- b + r * (A p)``, ``p[free] = x``, is a contraction, and
    ``k = ceil(log(eps (1 - q) / (1 + q)) / log q)`` sweeps of it from
    ``x = b`` bound its relative 1-norm error by machine epsilon; it starts
    from ``p[free]`` as given, with one sweep more, since ``b`` is itself
    one sweep from zero. It runs when, besides, ``(k + 1) nnz(C_FF) <
    m**3 / 3``, the flop count of a dense LU: the held columns add the same
    work to every sweep, but on the small blocks where that would tip the
    rule, the fixed cost per product and per call outweighs it, and the
    dense LU would load ``scipy.linalg`` for nothing. The stored entries of
    ``A`` are counted first, and those of ``C_FF``, of which there are no
    more, only when that count fails the rule.

    It stops at, and writes into ``p[free]``, the first sweep's output ``y``
    whose step from its input ``x`` is at the rounding floor: ``||y - x||_1 <= eps S``, with
    ``S = ||b||_1 + c . |p|`` at ``p[free] = x``, so that the held columns'
    ``c_H . |p_H|`` bounds the held term. One sweep rounds by at most
    ``gamma_{K+2} S`` in the 1-norm, ``K`` the most stored entries in a row
    of ``A``, held columns included (Higham, *Accuracy and Stability of
    Numerical Algorithms*, 3.1), so ``y`` is within
    ``(q eps + gamma_{K+2}) S / (1 - q)`` of the solution: under twice the
    bound of an exact fixed point of the sweep. Only a squared step of at
    most ``(2 eps ||b||_1 / (1 - q))^2`` is tested, the held term counted in
    ``||b||_1``, which any step at the floor is, since ``S`` is then below
    ``2 ||b||_1 / (1 - q)``. On the seed-3 300-bank test network a square
    solve takes 15 sweeps at ``r = 0.5`` and 23 at ``r = 0.9``.

    Each sweep keeps its step ``d = y - x`` and the ratio
    ``lam = (d . d_prev) / (d_prev . d_prev)`` to the step before. When two
    successive ratios agree within ``RATIO_SETTLE`` relative and
    ``0 < lam <= q``, the error is close to one geometric mode of ratio
    ``lam``, and Aitken's step ``y + d lam / (1 - lam)`` jumps to its limit;
    the ratios then start afresh.

    Otherwise (``q >= 1``, a non-finite ``S``, a small or dense block, or
    ``k + 1`` sweeps that do not reach the floor, as in a floating-point
    cycle above it) the dense ``I - diag(r) C_FF`` is built from ``A``'s
    free columns, the one gather of columns, with its right-hand side from
    one product with the free entries at zero, and solved through
    :func:`lu_factor_checked`, which raises ``SingularSystem`` on a pivot
    below ``1e-14``.
    """
    m = len(b)
    if m == 0:
        return
    c_held = c.copy()
    c_held[free] = 0.0
    c = c[free]
    q = float(c.max())
    with np.errstate(over="ignore", invalid="ignore"):   # 0 * inf in p gives nan
        b_norm = float(np.abs(b).sum()) + float(c_held.dot(np.abs(p)))
    if q < 1.0 and math.isfinite(b_norm):   # an infinite S would pass any step
        bound = EPS * (1.0 - q) / (1.0 + q)
        sweeps = 1 if q == 0.0 else math.ceil(math.log(bound) / math.log(q))
        sweeps += 1   # from p[free], not from b
        in_block = np.zeros(len(p), dtype=bool)
        in_block[free] = True
        lu_flops = m**3 / 3
        if (sweeps * len(A.indices) < lu_flops
                or sweeps * np.count_nonzero(in_block[A.indices]) < lu_flops):
            screen = (2.0 * EPS * b_norm / (1.0 - q)) ** 2
            x = p[free]
            prev = lam = None  # the last step and the ratio it gave
            # a step whose square overflows gives a ratio of inf or nan, which
            # never jumps; a solution beyond the float range comes back
            # non-finite without a warning, as from the dense LU
            with np.errstate(over="ignore", invalid="ignore"):
                for _ in range(sweeps):
                    p[free] = x
                    y = matvec(A, p)
                    y *= r
                    y += b
                    d = y - x
                    d_sq = d.dot(d)
                    if not d_sq > screen and (np.abs(d).sum()
                                              <= EPS * (b_norm + c.dot(np.abs(x)))):
                        p[free] = y
                        return
                    x = y
                    lam_prev, lam = lam, None
                    if prev is not None and prev_sq > 0.0:   # the square may underflow
                        lam = d.dot(prev) / prev_sq
                        if (lam_prev is not None and 0.0 < lam <= q
                                and abs(lam - lam_prev) <= RATIO_SETTLE * lam):
                            x = y + d * (lam / (1.0 - lam))
                            prev = lam = None
                            continue
                    prev, prev_sq = d, d_sq
    # C_FF: A's entries in free columns, numbered among the unknowns, so
    # that no array of A's full width is formed
    place = np.full(A.shape[1], -1)
    place[free] = np.arange(m)
    cols = place[A.indices]
    kept = cols >= 0
    M = Csr(np.append(0, np.cumsum(kept))[A.indptr], cols[kept], A.data[kept], (m, m)).toarray()
    M *= -r[:, None]
    M[np.diag_indices(m)] += 1.0
    p_held = p.copy()
    p_held[free] = 0.0
    from scipy.linalg import lu_solve

    p[free] = lu_solve(lu_factor_checked(M, context), matvec(A, p_held) * r + b,
                       check_finite=False)
