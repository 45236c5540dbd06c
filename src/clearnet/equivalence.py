"""Executable checks that clearing losses equal Katz-type centrality.

Under the full-default shock the loss vector of the clearing model and the
generalized Katz vector are the same object computed two ways: one through
the default-set iteration on the shocked system, one through a single
linear solve on the unshocked one. The verifiers here run both routes and
report the gap, plus the structural facts (one-round convergence, every
node defaulted) the identity rests on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._linalg import Csr
from .centrality import beta_vector, generalized_katz, standard_katz
from .clearing import fictitious_default_sequence, systemic_loss
from .errors import NotSingleCreditor, ValidationError
from .net_model import ClearingParams, FinancialSystem
from .shocks import full_default_shock, shocked_system

# Largest gap on banks between the normalized centrality and textbook Katz.
KATZ_REDUCTION_TOL = 1e-10

__all__ = [
    "EquivalenceReport",
    "default_tolerance",
    "verify_full_shock_equivalence",
    "verify_katz_reduction",
]


@dataclass(frozen=True, eq=False)
class EquivalenceReport:
    """Per-bank gaps between the clearing route and the centrality route
    under the full-default shock.

    ``passed`` requires the max gap within tolerance, every node defaulted
    and one-round convergence of the clearing iteration.
    """

    max_abs_gap: float
    one_step: bool
    all_defaulted: bool
    details: NDArray
    tolerance: float
    passed: bool


def default_tolerance(system: FinancialSystem) -> float:
    """Gap tolerance scaled to the system's largest liability."""
    l = system.total_liabilities
    return 1e-8 * max(1.0, float(l.max(initial=0.0)))


def verify_full_shock_equivalence(
    system: FinancialSystem,
    params: ClearingParams,
    m,
    tol: float | None = None,
) -> EquivalenceReport:
    """Compare clearing losses with the centrality solve under a
    full-default shock.

    Builds the shock, runs the default-set iteration on the shocked system,
    and checks ``l - p`` against ``(I - r C)^{-1} beta`` on bank entries.
    ``beta`` assumes full recovery of external assets, so ``params.r_a``
    must be 1. ``tol`` defaults to :func:`default_tolerance`; a NaN,
    infinite or negative ``tol`` raises :class:`ValidationError`, since the
    verdict would not depend on the gap. Shock and solver errors propagate.
    """
    if params.r_a != 1.0:
        raise ValidationError(
            f"the Katz route assumes r_a = 1, got r_a = {params.r_a}"
        )
    if tol is None:
        tol = default_tolerance(system)
    elif not (math.isfinite(tol) and tol >= 0):
        raise ValidationError(f"tol must be finite and nonnegative, got {tol}")
    scenario = full_default_shock(system, m)
    solution = fictitious_default_sequence(shocked_system(system, scenario), params)

    sigma_clearing = systemic_loss(solution, system.total_liabilities)
    beta = beta_vector(system, params.r, m)
    sigma_katz = generalized_katz(system.claims_csr, params.r, beta, m=m).sigma

    details = np.abs(sigma_clearing - sigma_katz)[system.banks]
    max_gap = float(details.max(initial=0.0))
    one_step = solution.iterations == 1
    all_defaulted = bool(solution.defaults.flags.all())
    return EquivalenceReport(
        max_abs_gap=max_gap,
        one_step=one_step,
        all_defaulted=all_defaulted,
        details=details,
        tolerance=tol,
        passed=max_gap <= tol and one_step and all_defaulted,
    )


def verify_katz_reduction(system: FinancialSystem, r: float) -> bool:
    """Check the collapse to textbook Katz centrality on single-creditor
    systems.

    Every bank must owe exactly one counterparty (a bank, or the sink when
    it has no in-system creditor), making the bank block of the claims
    matrix a 0/1 adjacency matrix. With equal recovery and interpolation
    rates, beta is proportional to liabilities; dividing it out must
    reproduce ``(I - r A)^{-1} 1`` on banks within ``KATZ_REDUCTION_TOL``.

    Raises
    ------
    NotSingleCreditor
        If some bank has several creditors or none at all.
    """
    banks = system.banks
    # L stores no zeros, so each stored entry of a row names one creditor
    creditor_counts = np.diff(system.liabilities_csr.indptr)[banks]
    bad = np.flatnonzero(creditor_counts != 1)
    if bad.size:
        raise NotSingleCreditor(
            f"bank(s) {bad.tolist()} do not have exactly one creditor"
        )

    l = system.total_liabilities
    # the sink's column of C is empty, so the bank rows hold the bank block
    C = system.claims_csr
    end = C.indptr[system.sink]
    adjacency = Csr(C.indptr[:system.sink + 1], C.indices[:end], C.data[:end],
                    (system.n_banks, system.n_banks))

    beta = beta_vector(system, r, r)
    normalized = np.zeros_like(beta)
    normalized[banks] = beta[banks] / ((1.0 - r) * l[banks])
    sigma = generalized_katz(C, r, normalized, m=r).sigma

    katz = standard_katz(adjacency, r)
    return bool(np.abs(sigma[banks] - katz).max(initial=0.0) <= KATZ_REDUCTION_TOL)
