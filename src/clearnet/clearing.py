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
from ._linalg import EPS, gather_rows, matvec, solve_attenuated, solve_rows
from .net_model import (
    ClearingParams,
    DefaultIndicator,
    FinancialSystem,
    _defaults_from_claims,
    fundamental_defaults,
    payment_vector,
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


@dataclass(frozen=True, eq=False)
class ClearingSolution:
    """Converged clearing vector plus the trail the solver took.

    ``payments`` includes a sink entry computed by the same formula as the
    banks'; it carries no economic meaning and is excluded from every norm
    and loss measure. ``residual`` is the max-norm of ``f(p) - p`` over
    bank entries. ``uniqueness_ok`` records whether Eisenberg and Noe's
    sufficient condition for a unique clearing vector holds: full recovery,
    ``r = 1`` on every node and ``r_a = 1``, and strictly positive external
    assets on every node. False does not mean two clearing vectors, only no
    proof of one: below full recovery a network whose assets are all
    positive can have two, and ``payments`` is then the greatest.
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
    p = payment_vector(system, p)
    return _clearing_map(system, params, p, matvec(system.claims_csr, p))


def _clearing_map(
    system: FinancialSystem, params: ClearingParams, p: NDArray, cp: NDArray,
    flags: NDArray | None = None,
) -> NDArray:
    """:func:`apply_clearing_map` of ``p``, given the product ``cp = C p``
    and, if the caller has them, the default flags that ``cp`` gives.

    The claims are valued at ``mixed``, which equals ``p`` when every
    solvent bank pays ``l``, as on the Picard oracle's path and at a
    clearing vector; ``C mixed`` is then ``cp`` bit for bit (the sign of a
    zero entry does not change a product), and no product is formed.
    """
    l = system.total_liabilities
    r = params.recovery_vector(system.node_count)
    if flags is None:
        flags = _defaults_from_claims(system, cp).flags
    mixed = np.where(flags, p, l)
    c_mixed = cp if np.array_equal(mixed, p) else matvec(system.claims_csr, mixed)
    paid = r * c_mixed + params.r_a * system.external_assets
    return np.where(flags, paid, l)


def solve_given_defaults(
    system: FinancialSystem, params: ClearingParams, defaults: DefaultIndicator,
    start: NDArray | None = None,
) -> NDArray:
    """Fixed point of the clearing map with the default set frozen.

    Solvent nodes ``S`` pay ``l``. The payments of the defaulted banks
    ``D`` solve ``p_D = r_a a_D + r_D * (R p)``, with ``R = C_D`` the rows
    of ``C`` that belong to ``D``: one gather of rows, and no gather of
    columns. The sweep of :func:`clearnet._linalg.solve_rows` runs on the
    payment vector in place, with ``p_S`` held at ``l_S``, so the solvent
    nodes' term ``r C_DS l_S`` comes out of the same product as the rest;
    it starts from ``start`` on ``D`` (default ``l``). Every term is
    nonnegative, so nothing cancels even when payments are tiny next to
    liabilities. The sweep's certificate and its dense fallback, on the
    square block ``I - diag(r_D) C_DD``, are those of the one solver in
    :mod:`clearnet._linalg`. The sink, defaulted by convention, stays out of
    ``R``: it owes nothing, so its column of ``C`` is empty and no other
    payment reads it, while its row holds an entry for every bank that owes
    it. Its payment is formed once, by the same formula, from the solved
    ``p``.

    When every node is flagged the solve is the square one of
    :func:`clearnet._linalg.solve_attenuated` on ``C`` itself, from
    ``r_a a`` and with the system's stored ``claims_column_sums`` as its
    column weights: no copy of ``C`` is made and ``start``, checked to hold
    one entry per node like the payments, is not read.

    Raises
    ------
    SingularSystem
        If the dense reduced matrix has a pivot below ``1e-14``; with a
        sink node present (or ``r < 1``) this signals a convention
        violation.
    """
    C = system.claims_csr
    r = params.recovery_vector(system.node_count)
    flags = defaults.flags_at(system.node_count)
    if start is not None:
        start = payment_vector(system, start)
    b = params.r_a * system.external_assets + 0.0   # a -0.0 asset recovers +0.0
    context = f"reduced system on {np.count_nonzero(flags)} defaulted node(s)"
    if np.all(flags):   # no solvent node pays in
        return solve_attenuated(C, r, b, context, sums=system.claims_column_sums)
    l = system.total_liabilities
    p = l.copy() if start is None else np.where(flags, start, l)
    idx = np.flatnonzero(flags[system.banks])
    solve_rows(gather_rows(C, idx), idx, r[idx], b[idx], p, context)
    if flags[system.sink]:   # its column of C is empty, so no other payment reads it
        row = slice(C.indptr[system.sink], C.indptr[system.sink + 1])
        p[system.sink] = r[system.sink] * C.data[row].dot(p[C.indices[row]]) + b[system.sink]
    return p


def fictitious_default_sequence(
    system: FinancialSystem, params: ClearingParams
) -> ClearingSolution:
    """Clearing vector via the default-set iteration started at ``p = l``.

    Each round freezes the current default set and solves for the
    defaulted payments (:func:`solve_given_defaults`), starting from the
    payments the round before left, then re-evaluates defaults under the
    new payments; it stops as soon as the set is stable. The default set
    can only grow, so at most ``N`` rounds are needed; anything past that
    is a bug and raises loudly. Each round forms ``C p`` once, for its
    default test; the residual of the last round reuses that product and
    those flags unless the final clip moved ``p``.
    """
    N = system.node_count
    l = system.total_liabilities
    uniqueness_ok = bool(params.r_a == 1.0 and np.all(params.recovery_vector(N) == 1.0)
                         and np.all(system.external_assets > 0))

    current = fundamental_defaults(system)
    history = [current]
    p = None   # round 1 starts from l
    for iteration in range(1, N + 2):
        p = solve_given_defaults(system, params, current, start=p)
        cp = matvec(system.claims_csr, p)
        nxt = _defaults_from_claims(system, cp)
        history.append(nxt)
        if nxt == current:
            # rounding guard only: the converged vector is within [0, l]
            # on banks up to machine noise (p is the solver's own copy)
            clipped = np.clip(p[system.banks], 0.0, l[system.banks])
            moved = not np.array_equal(clipped, p[system.banks])
            p[system.banks] = clipped
            p.setflags(write=False)
            flags = nxt.flags
            if moved:   # a zero's sign alone leaves C p as it is
                cp = matvec(system.claims_csr, p)
                flags = None
            gap = np.abs(_clearing_map(system, params, p, cp, flags) - p)[system.banks]
            return ClearingSolution(
                payments=p,
                defaults=nxt,
                default_history=tuple(history),
                iterations=iteration,
                residual=float(gap.max(initial=0.0)),
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
    accuracy, or its payment is within ``eps l_i`` of zero: the map is
    monotone, so the iterates fall from ``l`` to the greatest clearing
    vector, which is nonnegative, and such a payment is within ``eps l_i``
    of it. A payment whose limit is zero thus ends in about
    ``log(1 / eps) / log(1 / rho)`` steps at a contraction ``rho``, instead
    of waiting for the iterates to underflow. ``ORACLE_MAX_ITER`` bounds the
    number of steps. Deliberately knows nothing about default sets or
    linear solves, so it serves as the independent ground truth for the
    closed-form routes.
    """
    p = system.total_liabilities
    banks = system.banks
    floor = EPS * p[banks]
    for _ in range(ORACLE_MAX_ITER):
        f = apply_clearing_map(system, params, p)
        size = np.abs(f[banks])
        if np.all((np.abs(f - p)[banks] <= ORACLE_STEP_TOL * size) | (size <= floor)):
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
    denom = system.pre_shock_assets + system.total_claims
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
