"""Spectral-radius machinery for nonnegative claims matrices.

The invertibility of ``I - r C`` hinges on ``r * rho(C) < 1``. With a sink
node the claims matrix has a zero column and its radius drops strictly
below one, so the solve is safe even at full recovery; without a sink a
column-stochastic ``C`` sits exactly at radius one. This module estimates
``rho``, produces certified lower bounds through the Collatz-Wielandt
quotient, and holds the one invertibility rule, :func:`safely_invertible`.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._linalg import Csr, as_csr, rmatvec
from .errors import DimensionMismatch, ZeroVector
from .net_model import DefaultIndicator, broadcast_rate

RADIUS_TOL = 1e-10
RADIUS_MAX_ITER = 100_000
# Power-iteration steps per node of the matrix, below RADIUS_MAX_ITER: a
# small matrix that has not converged by then goes to the dense fallback.
RADIUS_STEPS_PER_NODE = 100
INVERTIBILITY_MARGIN = 1e-12

__all__ = [
    "SpectralReport",
    "collatz_wielandt_value",
    "spectral_radius",
    "check_invertibility",
    "corollary_radius_bound",
]


@dataclass(frozen=True)
class SpectralReport:
    """Radius estimate, best certified lower bound, and the admissible
    recovery-rate interval ("[0, 1]" when the radius is safely below one,
    "[0, 1)" otherwise)."""

    radius_estimate: float
    collatz_wielandt_lower: float
    invertible_for_r: str


def _check_nonnegative(C) -> Csr:
    """``C`` as a float :class:`clearnet._linalg.Csr`, after checking that
    it is square and elementwise finite and nonnegative. Dense and sparse
    input take this one conversion, so both give bit-identical results
    downstream. Each public entry runs it once; the private helpers take
    its result unchecked."""
    C = as_csr(C)
    if C.shape[0] != C.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {C.shape}")
    low, high = C.data.min(initial=0.0), C.data.max(initial=0.0)   # NaN in, NaN out
    if not (np.isfinite(low) and np.isfinite(high)):
        raise ValueError("matrix entries must be finite")
    if low < 0:
        raise ValueError("matrix must be elementwise nonnegative")
    return C


def collatz_wielandt_value(C: NDArray, x: NDArray) -> float:
    """Quotient ``min_i (xC)_i / x_i`` over the support of ``x``.

    For any finite, nonnegative, nonzero ``x`` this is a certified lower
    bound on the spectral radius of the nonnegative matrix ``C``; the bound
    is tight at the left Perron vector. Indices where ``x_i = 0`` are
    excluded from the minimum.
    """
    C = _check_nonnegative(C)
    x = np.asarray(x, dtype=float)
    if x.shape != C.shape[:1]:
        raise DimensionMismatch(f"test vector has shape {x.shape}, expected ({C.shape[0]},)")
    if not np.all(np.isfinite(x)):
        raise ValueError("test vector must be finite")
    if np.any(x < 0):
        raise ValueError("test vector must be nonnegative")
    if not np.any(x > 0):
        raise ZeroVector("test vector must have at least one positive entry")
    return _quotient(C, x)


def _quotient(C: Csr, x: NDArray) -> float:
    """:func:`collatz_wielandt_value` of a checked ``C`` and ``x``."""
    support = x > 0
    xC = rmatvec(C, x)
    return float(np.min(xC[support] / x[support]))


def _lasting_support(C: Csr) -> NDArray:
    """0/1 indicator of the nodes ``j`` with ``(1^T C^k)_j > 0`` for every
    ``k``, of a nonnegative ``C``: those that a path of nonzero entries
    reaches from a cycle.

    Node ``j`` is in the support of ``1^T C^{k+1}`` iff some ``C_ij > 0`` has
    ``i`` in that of ``1^T C^k``; propagating the 0/1 indicator keeps every
    product exact. Starting from full support the sequence only shrinks,
    so within ``n + 1`` steps it repeats, possibly as the empty set.
    """
    support = np.ones(C.shape[0])
    while True:
        nxt = (rmatvec(C, support) > 0).astype(float)
        if np.array_equal(nxt, support):
            return support
        support = nxt


def _perron(C: Csr) -> tuple[float, float]:
    """Radius estimate and certified Collatz-Wielandt lower bound of a
    checked ``C``, from one left power iteration.

    The iteration runs on the shifted ``C^T + I`` (same eigenvectors,
    radius shifted by exactly one), which converges geometrically on
    periodic structures such as payment cycles, where iterating ``C^T``
    itself oscillates. It starts on the lasting support of ``C^T``, where
    every ``(xC)_j`` is positive: a test vector with ``(xC)_j = 0`` on its
    support (the sink's zero column, or a bank that owes only such nodes)
    would certify 0. The support is empty exactly when ``C^k = 0`` for some
    ``k``, and then both numbers are 0. It stops when the Rayleigh-quotient
    step and the eigen-residual are both within ``RADIUS_TOL``; after
    ``min(RADIUS_MAX_ITER, RADIUS_STEPS_PER_NODE * n)`` steps a dense
    eigenvalue computation gives the radius instead. ``lower`` is the
    better quotient of the final iterate and of the banks (every node but
    the last); the estimate is never below it.
    """
    n = C.shape[0]
    x = _lasting_support(C)
    if not x.any():   # also the empty matrix
        return 0.0, 0.0
    x /= np.linalg.norm(x)
    lam_prev = np.inf
    for _ in range(min(RADIUS_MAX_ITER, RADIUS_STEPS_PER_NODE * n)):
        y = rmatvec(C, x) + x
        lam = float(x @ y)
        scale = max(1.0, lam)
        if (
            np.abs(y - lam * x).max() <= RADIUS_TOL * scale
            and abs(lam - lam_prev) <= RADIUS_TOL * scale
        ):
            break
        lam_prev = lam
        x = y / np.linalg.norm(y)
    else:
        lam = 1.0 + float(np.max(np.abs(np.linalg.eigvals(C.toarray()))))
    banks = np.ones(n)
    banks[-1] = 0.0
    lower = max(_quotient(C, v) for v in (x, banks) if v.any())
    return max(lam - 1.0, lower), lower


def spectral_radius(C: NDArray) -> float:
    """Spectral radius of a nonnegative matrix, dense or sparse: the
    estimate of the power iteration described in :func:`_perron`, which
    runs on the CSR form of ``C``, so each step costs ``O(nnz)``. A matrix
    with ``C^k = 0`` for some ``k`` gives exactly 0."""
    return _perron(_check_nonnegative(C))[0]


def _below_one(r_max: float, norm: float, estimate: float) -> bool:
    """The one rule: ``max|r| * min(||C||_1, estimate) < 1 - 1e-12``."""
    return r_max * min(norm, estimate) < 1.0 - INVERTIBILITY_MARGIN


def safely_invertible(C: Csr, r) -> tuple[bool, float | None]:
    """The one rule: is ``I - diag(r) C`` safely invertible?

    Yes iff ``max|r| * min(||C||_1, estimate) < 1 - 1e-12``: the largest
    column sum bounds the radius (it is at most 1 for a
    :func:`build_system` claims matrix), and ``estimate`` is the radius
    estimate of :func:`_perron`, never below its certified lower bound.
    Taking ``|r|`` keeps the rule sound for a negative attenuation, since
    ``rho(diag(r) C) <= max|r| * rho(C)`` for a nonnegative ``C``. When the
    norm alone decides, no radius is computed. Returns the verdict and the
    estimate (None when the norm decided). The caller has run
    :func:`_check_nonnegative` on ``C``; ``||C||_1`` is the largest of its
    :attr:`~clearnet._linalg.Csr.column_sums`, which the solve reads too.
    """
    r_max = float(np.abs(r).max(initial=0.0))
    norm = float(C.column_sums.max(initial=0.0))
    if _below_one(r_max, norm, np.inf):
        return True, None
    estimate = _perron(C)[0]
    return _below_one(r_max, norm, estimate), estimate


def check_invertibility(C: NDArray, r: float) -> tuple[bool, SpectralReport]:
    """Is ``I - r C`` safely invertible at recovery rate ``r``?

    ``C`` may be dense or sparse. ``r`` is expanded by
    :func:`clearnet.net_model.broadcast_rate`, so a rate outside [0, 1]
    raises ``ValidationError``. Both the verdict and the report's interval
    (the verdict at ``r = 1``) apply the rule of :func:`safely_invertible`
    to the radius estimate the report carries.
    """
    C = _check_nonnegative(C)
    r_max = float(broadcast_rate(r, C.shape[0], "r").max(initial=0.0))
    norm = float(C.column_sums.max(initial=0.0))
    estimate, lower = _perron(C)
    report = SpectralReport(
        radius_estimate=estimate,
        collatz_wielandt_lower=lower,
        invertible_for_r="[0, 1]" if _below_one(1.0, norm, estimate) else "[0, 1)",
    )
    return _below_one(r_max, norm, estimate), report


def corollary_radius_bound(C: NDArray, defaults: DefaultIndicator) -> bool:
    """Check ``rho(D C D) <= rho(C)`` for a 0/1 default mask ``D``.

    Masking rows and columns of a nonnegative matrix can only shrink the
    radius; this computes both sides and returns the comparison (with a
    1e-10 slack for estimator noise), masking the stored entries of ``C``
    into a copy of its values.
    """
    C = _check_nonnegative(C)
    mask = defaults.flags_at(C.shape[0]).astype(float)
    masked = C._replace(data=C.data * (np.repeat(mask, np.diff(C.indptr)) * mask[C.indices]))
    return _perron(masked)[0] <= _perron(C)[0] + 1e-10
