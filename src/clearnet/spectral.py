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
import scipy.sparse
from numpy.typing import NDArray

from ._linalg import as_csr, attenuation_norm
from .errors import ZeroVector
from .net_model import DefaultIndicator

RADIUS_TOL = 1e-10
RADIUS_MAX_ITER = 100_000
INVERTIBILITY_MARGIN = 1e-12
_START_PERTURBATION = 1e-9

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


def _check_nonnegative(C) -> scipy.sparse.csr_array:
    """``C`` as a float CSR array, after checking that it is square and
    elementwise nonnegative. Dense and sparse input take this one
    conversion, so both give bit-identical results downstream. Each public
    entry runs it once; the private helpers take its result unchecked."""
    C = as_csr(C)
    if C.shape[0] != C.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {C.shape}")
    if C.data.min(initial=0.0) < 0:
        raise ValueError("matrix must be elementwise nonnegative")
    return C


def collatz_wielandt_value(C: NDArray, x: NDArray) -> float:
    """Quotient ``min_i (xC)_i / x_i`` over the support of ``x``.

    For any nonnegative, nonzero ``x`` this is a certified lower bound on
    the spectral radius of the nonnegative matrix ``C``; the bound is tight
    at the left Perron vector. Indices where ``x_i = 0`` are excluded from
    the minimum.
    """
    C = _check_nonnegative(C)
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("test vector must be nonnegative")
    if not np.any(x > 0):
        raise ZeroVector("test vector must have at least one positive entry")
    return _quotient(C, x)


def _quotient(C: scipy.sparse.csr_array, x: NDArray) -> float:
    """:func:`collatz_wielandt_value` of a checked ``C`` and ``x``."""
    support = x > 0
    xC = C.T @ x
    return float(np.min(xC[support] / x[support]))


def _lasting_support(C) -> NDArray:
    """0/1 indicator of the nodes ``i`` with ``(C^k 1)_i > 0`` for every
    ``k``, of a nonnegative ``C``: those from which a path of nonzero
    entries reaches a cycle.

    Node ``i`` is in the support of ``C^{k+1} 1`` iff some ``C_ij > 0`` has
    ``j`` in that of ``C^k 1``; propagating the 0/1 indicator keeps every
    product exact. Starting from full support the sequence only shrinks,
    so within ``n + 1`` steps it repeats, possibly as the empty set.
    """
    support = np.ones(C.shape[0])
    while True:
        nxt = (C @ support > 0).astype(float)
        if np.array_equal(nxt, support):
            return support
        support = nxt


def _is_nilpotent(C) -> bool:
    """Exact check: for nonnegative ``C``, ``C^k 1 = 0`` iff ``C^k = 0``,
    so the radius is exactly zero iff the lasting support is empty."""
    return not _lasting_support(C).any()


def spectral_radius(C: NDArray) -> float:
    """Spectral radius of a nonnegative matrix.

    Power iteration on the shifted matrix ``C + I`` (same eigenvectors,
    radius shifted by exactly one), which restores geometric convergence
    for periodic structures such as payment cycles where iterating ``C``
    itself oscillates. The start vector is all-ones with a tiny seeded
    perturbation; convergence requires both a small Rayleigh-quotient step
    and a small eigen-residual. Exactly nilpotent matrices are detected up
    front and return 0. ``C`` may be dense or sparse; the iteration runs
    on its CSR form, so each step costs ``O(nnz)``. The tolerance is
    ``RADIUS_TOL``; when ``RADIUS_MAX_ITER`` steps do not converge, a dense
    eigenvalue computation gives the radius instead.
    """
    return _radius(_check_nonnegative(C))


def _radius(C: scipy.sparse.csr_array) -> float:
    """:func:`spectral_radius` of a checked ``C``."""
    n = C.shape[0]
    if _is_nilpotent(C):   # also the empty matrix
        return 0.0

    rng = np.random.default_rng(0)
    x = np.ones(n) + _START_PERTURBATION * rng.uniform(size=n)
    x /= np.linalg.norm(x)
    lam_prev = np.inf
    for _ in range(RADIUS_MAX_ITER):
        y = C @ x + x
        lam = float(x @ y)
        scale = max(1.0, lam)
        if (
            np.abs(y - lam * x).max() <= RADIUS_TOL * scale
            and abs(lam - lam_prev) <= RADIUS_TOL * scale
        ):
            return max(lam - 1.0, 0.0)
        lam_prev = lam
        x = y / np.linalg.norm(y)

    return float(np.max(np.abs(np.linalg.eigvals(C.toarray()))))


def _best_lower_bound(C: scipy.sparse.csr_array) -> float:
    """Best Collatz-Wielandt bound of two test vectors: the banks (every
    node but the last) and 50 steps toward the left Perron vector.

    A test vector ``x`` certifies 0 if some ``j`` in its support has
    ``(xC)_j = 0``: a zero column (the sink's, in a claims matrix), or a
    bank that owes only such nodes. So the iterate starts on the lasting
    support of ``C^T``, where every ``(xC)_j`` is positive, and
    ``x -> xC + x`` keeps it there; the support is empty only when ``C`` is
    nilpotent. Any nonnegative iterate is a valid certificate."""
    n = C.shape[0]
    y = _lasting_support(C.T)
    if not y.any():
        return 0.0
    for _ in range(50):
        y = C.T @ y + y
        y /= y.max()
    candidates = [y]
    if n > 1:
        banks_only = np.ones(n)
        banks_only[-1] = 0.0
        candidates.append(banks_only)
    return max(_quotient(C, x) for x in candidates)


def _below_one(r_max: float, bound: float) -> bool:
    """The one comparison: ``r_max * bound < 1 - 1e-12``."""
    return r_max * bound < 1.0 - INVERTIBILITY_MARGIN


def _column_norm(C: scipy.sparse.csr_array) -> float:
    """``||C||_1``, the largest column sum of the nonnegative ``C``: bit for
    bit ``C.sum(axis=0).max()``, which copies ``C``."""
    return attenuation_norm(C, np.ones(C.shape[0]))


def safely_invertible(C: scipy.sparse.csr_array, r) -> tuple[bool, float | None]:
    """The one rule: is ``I - diag(r) C`` safely invertible?

    Yes if ``max(r) * ||C||_1 < 1 - 1e-12`` (the largest column sum bounds
    the radius; it is at most 1 for a :func:`build_system` claims matrix);
    else iff ``max(r) * radius < 1 - 1e-12``, ``radius`` being the larger of
    the power-iteration estimate and the certified Collatz-Wielandt bound.
    Returns the verdict and that radius (None when the norm decided). The
    caller has run :func:`_check_nonnegative` on ``C``.
    """
    r_max = float(np.max(r))
    if _below_one(r_max, _column_norm(C)):
        return True, None
    radius = max(_radius(C), _best_lower_bound(C))
    return _below_one(r_max, radius), radius


def check_invertibility(C: NDArray, r: float) -> tuple[bool, SpectralReport]:
    """Is ``I - r C`` safely invertible at recovery rate ``r``?

    ``C`` may be dense or sparse. Both the verdict and the report's
    interval (the verdict at ``r = 1``) apply the rule of
    :func:`safely_invertible` to the radius estimate and certified lower
    bound the report carries: the norm accepts, or else the radius does.
    """
    C = _check_nonnegative(C)
    estimate = _radius(C)
    lower = _best_lower_bound(C)
    bound = min(_column_norm(C), max(estimate, lower))
    report = SpectralReport(
        radius_estimate=estimate,
        collatz_wielandt_lower=lower,
        invertible_for_r="[0, 1]" if _below_one(1.0, bound) else "[0, 1)",
    )
    return _below_one(float(r), bound), report


def corollary_radius_bound(C: NDArray, defaults: DefaultIndicator) -> bool:
    """Check ``rho(D C D) <= rho(C)`` for a 0/1 default mask ``D``.

    Masking rows and columns of a nonnegative matrix can only shrink the
    radius; this computes both sides and returns the comparison (with a
    1e-10 slack for estimator noise), masking a CSR copy's stored entries.
    """
    C = _check_nonnegative(C)
    mask = defaults.flags.astype(float)
    masked = C.copy()
    masked.data *= np.repeat(mask, np.diff(C.indptr)) * mask[C.indices]
    return _radius(masked) <= _radius(C) + 1e-10
