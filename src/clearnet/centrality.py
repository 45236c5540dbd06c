"""Katz-type centrality and the closed-form clearing expressions.

Under a system-wide shock the loss vector ``l - p`` of the clearing model
solves ``(I - r C) sigma = beta`` with a beta built from liabilities and
interbank claims -- the same functional form as a Katz centrality, with the
claims matrix playing the role of the (attenuated) adjacency matrix. This
module computes that generalized measure, the classic Katz special case,
and the closed-form payment vectors the equivalence checks compare against.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._linalg import column_weights, matvec, solve_attenuated
from .errors import DimensionMismatch, SingularSystem
from .net_model import (
    ClearingParams,
    FinancialSystem,
    broadcast_rate,
    validate_interpolation,
)
from .spectral import _check_nonnegative, safely_invertible

__all__ = [
    "CentralityResult",
    "beta_vector",
    "generalized_katz",
    "standard_katz",
    "closed_form_full_shock",
    "printed_relaxed_closed_form",
]


@dataclass(frozen=True, eq=False)
class CentralityResult:
    """Centrality vector ``sigma`` solving ``(I - r C) sigma = beta``.

    ``sigma``'s sink entry is reported as zero by convention (the claims
    matrix stores the sink last and its column is zero, so bank entries are
    unaffected); ``residual`` is the max-norm defect of the linear system
    over bank rows.
    """

    sigma: NDArray
    beta: NDArray
    r: float | NDArray
    m: float | NDArray | None
    residual: float


def beta_vector(system: FinancialSystem, r, m) -> NDArray:
    """Source term ``beta_i = (1 - m) l_i - (r - m) (C l)_i`` per bank.

    It is evaluated as ``(1 - m)(l - C l) + (1 - r) C l``: where a bank's
    headroom ``l - C l`` is positive both terms are nonnegative, so nothing
    cancels even when ``C l`` is within rounding of ``l``. The sink entry
    is zero. For ``r = m`` this collapses to ``(1 - r) l_i``. ``r`` and
    ``m`` may be scalars or per-node vectors.
    """
    n = system.node_count
    r_vec = broadcast_rate(r, n, "r")
    m_vec = validate_interpolation(m, n)
    l = system.total_liabilities
    cl = system.total_claims
    beta = (1.0 - m_vec) * (l - cl) + (1.0 - r_vec) * cl
    beta[system.sink] = 0.0
    return beta


def generalized_katz(C, r, beta: NDArray, m=None) -> CentralityResult:
    """Solve ``(I - r C) sigma = beta``.

    ``C`` is a full claims matrix with the sink stored last, dense or
    sparse; it is converted to CSR and checked once per call, and its
    column sums are formed once, in one pass, for the
    :func:`clearnet.spectral.safely_invertible` gate (``||C||_1``) and the
    solve (:func:`clearnet._linalg.solve_attenuated`, at a uniform rate).
    The sink entry of the result is zeroed by convention.
    """
    C = _check_nonnegative(C)
    n = C.shape[0]
    r_vec = broadcast_rate(r, n, "r")
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (n,):
        raise DimensionMismatch(f"beta has shape {beta.shape}, expected ({n},)")

    sums = column_weights(C, np.ones(n))
    ok, rho = safely_invertible(C, r_vec, sums)
    if not ok:
        raise SingularSystem(
            f"r * rho(C) = {float(np.max(r_vec)) * rho:.6f} is not safely below 1"
        )
    sigma = solve_attenuated(C, r_vec, beta, "centrality solve", sums=sums)
    sigma[-1:] = 0.0   # the sink, if any: an empty C has none
    defect = np.abs(sigma - r_vec * matvec(C, sigma) - beta)[:-1]
    return CentralityResult(
        sigma=sigma,
        beta=beta,
        r=r,
        m=m,
        residual=float(defect.max(initial=0.0)),
    )


def standard_katz(adjacency: NDArray, alpha: float) -> NDArray:
    """Textbook Katz centrality ``(I - alpha A)^{-1} 1``.

    ``A[i, j] = 1`` means node ``j`` feeds node ``i`` (the same orientation
    as the claims matrix: debtor in the column, creditor in the row).
    """
    A = _check_nonnegative(adjacency)
    sums = column_weights(A, np.ones(A.shape[0]))
    if not safely_invertible(A, float(alpha), sums)[0]:
        raise SingularSystem(f"alpha = {alpha} is not safely below 1 / rho(adjacency)")
    return solve_attenuated(A, float(alpha), np.ones(A.shape[0]), "Katz solve", sums=sums)


def closed_form_full_shock(system: FinancialSystem, params: ClearingParams, m) -> NDArray:
    """One-round clearing vector under the full-default shock.

    Solves the all-defaulted system ``(I - r C) p = r_a m (l - C l)`` for
    ``p`` itself, not for ``p - l``, so ``p`` tiny next to ``l`` stays
    accurate. Bank entries match the clearing solver under the
    corresponding shock; the sink entry follows this formula and carries no
    meaning.
    """
    n = system.node_count
    r_vec = params.recovery_vector(n)
    m_vec = validate_interpolation(m, n)
    rhs = params.r_a * (m_vec * (system.total_liabilities - system.total_claims))
    return solve_attenuated(system.claims_csr, r_vec, rhs, "full-shock form",
                            sums=system.claims_column_sums)


def printed_relaxed_closed_form(system: FinancialSystem, r, m) -> NDArray:
    """Alternative closed form ``(I - (r - m) C)^{-1} m (l + r C l)``.

    Kept verbatim for comparison against the certified relaxed-shock
    candidate; the two disagree in general (for ``r = m`` this one reduces
    to ``r l + r^2 C l``), and the equivalence reports carry both residuals
    so the discrepancy is visible as data.
    """
    n = system.node_count
    r_vec = broadcast_rate(r, n, "r")
    m_vec = validate_interpolation(m, n)
    rhs = m_vec * (system.total_liabilities + r_vec * system.total_claims)
    return solve_attenuated(system.claims_csr, r_vec - m_vec, rhs, "relaxed closed form",
                            sums=system.claims_column_sums)
