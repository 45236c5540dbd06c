"""Clearing payment vectors for obligation networks with recovery rates.

Solvent banks pay their liabilities in full; a defaulted bank pays the
recovered value of its assets: ``r`` times what it collects from other
banks plus ``r_a`` times its external assets. A clearing vector is a fixed
point of that map. Two independent routes to the fixed point live here:

* the default-set iteration (start from full payment, freeze the current
  default set, solve the reduced linear system, repeat until the set is
  stable), which terminates in at most ``N`` outer rounds, and
* a plain fixed-point iteration of the map itself, kept as a slow,
  assumption-free oracle for cross-checking every closed-form result.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import (
    DivisionByZero,
    NoConvergence,
    OracleNoConvergence,
)
from ._linalg import solve_attenuated
from .net_model import (
    ClearingParams,
    DefaultIndicator,
    FinancialSystem,
    default_indicator,
)

ORACLE_STEP_TOL = 1e-12
ORACLE_MAX_ITER = 10**6

__all__ = [
    "ClearingSolution",
    "apply_clearing_map",
    "solve_given_defaults",
    "fictitious_default_sequence",
    "picard_clearing_oracle",
    "systemic_loss",
    "capitalization_adjusted_loss",
]


@dataclass(frozen=True)
class ClearingSolution:
    """Converged clearing vector plus the trail the solver took.

    ``payments`` includes a sink entry computed by the same formula as the
    banks'; it carries no economic meaning and is excluded from every norm
    and loss measure. ``residual`` is the max-norm of ``f(p) - p`` over
    bank entries. ``uniqueness_ok`` records whether every node had strictly
    positive external assets (the sufficient condition for uniqueness).
    """

    payments: NDArray
    defaults: DefaultIndicator
    default_history: tuple[DefaultIndicator, ...]
    iterations: int
    residual: float
    uniqueness_ok: bool = True


def apply_clearing_map(
    system: FinancialSystem, params: ClearingParams, p: NDArray
) -> NDArray:
    """One application of the clearing map to a payment vector.

    Banks solvent under ``p`` pay their full liabilities; defaulted banks
    (and the sink, defaulted by convention) pay the recovered value of
    their claims on others -- valued at ``p`` for defaulted counterparties
    and at ``l`` for solvent ones -- plus recovered external assets.
    """
    p = np.asarray(p, dtype=float)
    l = system.total_liabilities
    r = params.recovery_vector(system.node_count)
    flags = default_indicator(system, p).flags
    mixed = np.where(flags, p, l)
    paid = r * (system.claims @ mixed) + params.r_a * system.external_assets
    return np.where(flags, paid, l)


def solve_given_defaults(
    system: FinancialSystem, params: ClearingParams, defaults: DefaultIndicator
) -> NDArray:
    """Fixed point of the clearing map with the default set frozen.

    Solvent nodes ``S`` pay ``l`` directly. The payments of the defaulted
    nodes ``D`` solve ``(I - diag(r) C_DD) p_D = r C_DS l_S + r_a a_D``,
    restricted to the defaulted block, which is what keeps the cost low
    when only a few banks fail. The right-hand side is nonnegative, so
    nothing cancels even when payments are tiny next to liabilities. The
    block goes to :func:`clearnet._linalg.solve_attenuated`: a Neumann
    sweep on the sparse block where it contracts and beats a dense LU,
    else a dense LU with partial pivoting.

    Raises
    ------
    SingularSystem
        If the dense reduced matrix has a pivot below ``1e-14``; with a
        sink node present (or ``r < 1``) this signals a convention
        violation.
    """
    l = system.total_liabilities
    C = system.claims
    r = params.recovery_vector(system.node_count)
    idx = np.flatnonzero(defaults.flags)

    from_solvent = r * (C @ np.where(defaults.flags, 0.0, l))
    b = (from_solvent + params.r_a * system.external_assets)[idx]
    p = l.copy()
    p[idx] = solve_attenuated(
        C[idx][:, idx], r[idx], b, f"reduced system on {idx.size} defaulted node(s)"
    )
    return p


def _bank_residual(system: FinancialSystem, params: ClearingParams, p: NDArray) -> float:
    gap = np.abs(apply_clearing_map(system, params, p) - p)[system.banks]
    return float(gap.max(initial=0.0))


def fictitious_default_sequence(
    system: FinancialSystem, params: ClearingParams
) -> ClearingSolution:
    """Clearing vector via the default-set iteration started at ``p = l``.

    Each round freezes the current default set, solves the reduced system,
    and re-evaluates defaults under the new payments; it stops as soon as
    the set is stable. The default set can only grow, so at most ``N``
    rounds are needed; anything past that is a bug and raises loudly.
    """
    N = system.node_count
    l = system.total_liabilities
    uniqueness_ok = bool(np.all(system.external_assets > 0))

    current = default_indicator(system, l)
    history = [current]
    p = l
    for iteration in range(1, N + 2):
        p = solve_given_defaults(system, params, current)
        nxt = default_indicator(system, p)
        history.append(nxt)
        if nxt == current:
            # rounding guard only: the converged vector is within [0, l]
            # on banks up to machine noise
            p = p.copy()
            p[system.banks] = np.clip(p[system.banks], 0.0, l[system.banks])
            p.setflags(write=False)
            return ClearingSolution(
                payments=p,
                defaults=nxt,
                default_history=tuple(history),
                iterations=iteration,
                residual=_bank_residual(system, params, p),
                uniqueness_ok=uniqueness_ok,
            )
        current = nxt
    raise NoConvergence(
        f"default set still changing after {N + 1} rounds on {N} nodes"
    )


def picard_clearing_oracle(system: FinancialSystem, params: ClearingParams) -> NDArray:
    """Brute-force clearing vector: iterate the map until it stops moving.

    Starts from full payment and applies the clearing map until every
    bank's step is small next to its own payment,
    ``|f_i - p_i| <= ORACLE_STEP_TOL * |f_i|``, so that a bank paying far
    less than the largest liability is still resolved to that relative
    accuracy; ``ORACLE_MAX_ITER`` bounds the number of steps. Deliberately
    knows nothing about default sets or linear solves, so it serves as the
    independent ground truth for the closed-form routes.
    """
    p = system.total_liabilities
    banks = system.banks
    for _ in range(ORACLE_MAX_ITER):
        f = apply_clearing_map(system, params, p)
        if np.all(np.abs(f - p)[banks] <= ORACLE_STEP_TOL * np.abs(f[banks])):
            return f
        p = f
    raise OracleNoConvergence(
        f"fixed-point iteration still moving after {ORACLE_MAX_ITER} steps"
    )


def systemic_loss(solution: ClearingSolution, l: NDArray) -> NDArray:
    """Payment shortfall ``l - p`` per node; the sink entry is 0 by convention."""
    sigma = np.asarray(l, dtype=float) - solution.payments
    sigma[-1] = 0.0
    return np.maximum(sigma, 0.0)


def capitalization_adjusted_loss(
    solution: ClearingSolution, system: FinancialSystem
) -> NDArray:
    """Losses rescaled by shock size relative to initial financial health.

    Multiplies each bank's shortfall by ``s_i / (o_i + (C l)_i)``, where
    ``s = a - o`` is the shock that was applied. Requires the system to
    carry post-shock assets; the sink entry is reported as 0.
    """
    l = system.total_liabilities
    shock = system.external_assets - system.pre_shock_assets
    denom = system.pre_shock_assets + system.claims @ l
    zero = denom[system.banks] == 0
    if np.any(zero):
        i = int(np.argmax(zero))
        raise DivisionByZero(
            f"bank {i} has zero pre-shock assets and no interbank claims"
        )
    sigma = systemic_loss(solution, l)
    out = np.zeros_like(sigma)
    b = system.banks
    out[b] = sigma[b] * shock[b] / denom[b]
    return out
