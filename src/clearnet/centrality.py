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

from ._linalg import as_csr, solve_attenuated
from .errors import SingularSystem
from .net_model import (
    ClearingParams,
    FinancialSystem,
    broadcast_rate,
    validate_interpolation,
)
from .spectral import safely_invertible

__all__ = [
    "CentralityResult",
    "beta_vector",
    "generalized_katz",
    "standard_katz",
    "closed_form_full_shock",
    "printed_relaxed_closed_form",
]


@dataclass(frozen=True)
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

    The sink entry is zero. For ``r = m`` this collapses to
    ``(1 - r) l_i``. ``r`` and ``m`` may be scalars or per-node vectors.
    """
    n = system.node_count
    r_vec = broadcast_rate(r, n, "r")
    m_vec = validate_interpolation(m, n)
    l = system.total_liabilities
    cl = system.claims @ l
    beta = (1.0 - m_vec) * l - (r_vec - m_vec) * cl
    beta[system.sink] = 0.0
    return beta


def generalized_katz(C, r, beta: NDArray, m=None) -> CentralityResult:
    """Solve ``(I - r C) sigma = beta``.

    ``C`` is a full claims matrix with the sink stored last, dense or
    sparse; a dense one is converted to CSR once per call, and the
    :func:`clearnet.spectral.safely_invertible` gate and the solve
    (:func:`clearnet._linalg.solve_attenuated`) run on that. The sink entry
    of the result is zeroed by convention.
    """
    C = as_csr(C)
    n = C.shape[0]
    r_vec = broadcast_rate(r, n, "r")
    beta = np.asarray(beta, dtype=float)

    ok, rho = safely_invertible(C, r_vec)
    if not ok:
        raise SingularSystem(
            f"r * rho(C) = {float(np.max(r_vec)) * rho:.6f} is not safely below 1"
        )
    sigma = solve_attenuated(C, r_vec, beta, "centrality solve")
    sigma[-1] = 0.0
    defect = np.abs(sigma - r_vec * (C @ sigma) - beta)[:-1]
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
    A = as_csr(adjacency)
    if not safely_invertible(A, float(alpha))[0]:
        raise SingularSystem(f"alpha = {alpha} is not safely below 1 / rho(adjacency)")
    return solve_attenuated(A, float(alpha), np.ones(A.shape[0]), "Katz solve")


def closed_form_full_shock(system: FinancialSystem, params: ClearingParams, m) -> NDArray:
    """One-round clearing vector under the full-default shock.

    Solves the all-defaulted system ``(I - r C) p = m (l - C l)`` for ``p``
    itself, not for ``p - l``, so ``p`` tiny next to ``l`` stays accurate.
    Bank entries match the clearing solver under the corresponding shock;
    the sink entry follows this formula and carries no meaning.
    """
    n = system.node_count
    r_vec = params.recovery_vector(n)
    m_vec = validate_interpolation(m, n)
    l = system.total_liabilities
    C = system.claims
    return solve_attenuated(C, r_vec, m_vec * (l - C @ l), "full-shock form")


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
    l = system.total_liabilities
    C = system.claims
    rhs = m_vec * (l + r_vec * (C @ l))
    return solve_attenuated(C, r_vec - m_vec, rhs, "relaxed closed form")
