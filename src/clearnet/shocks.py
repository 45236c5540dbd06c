"""System-wide shock scenarios that drive every bank into default.

Two constructions are provided. The *full-default* shock interpolates each
bank's post-shock assets into the open interval where it is insolvent even
if everyone else pays in full, so the clearing iteration converges in a
single round. The *relaxed* constructions aim for the milder regime where
some banks fail only through contagion: a stepwise search over shrinking
asset levels, and a self-referential interpolation whose fixed point has a
closed form that the clearing solver then certifies.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from numpy.typing import NDArray

from ._linalg import matvec, solve_attenuated
from .centrality import printed_relaxed_closed_form
from .clearing import ClearingSolution, fictitious_default_sequence
from .errors import (
    NotAllDefaulted,
    PreconditionViolated,
    SearchExhausted,
    SelfConsistencyFailed,
    ValidationError,
)
from .net_model import (
    ClearingParams, FinancialSystem, fundamental_defaults, validate_interpolation,
)

# Largest gap on banks between the relaxed-shock candidate and the clearing
# vector that certifies it.
RELAXED_GAP_TOL = 1e-8

__all__ = [
    "ShockKind",
    "ShockScenario",
    "RelaxedShockCertificate",
    "full_default_shock",
    "shocked_system",
    "relaxed_shock_search",
    "relaxed_interpolated_shock",
]


class ShockKind(Enum):
    FULL_DEFAULT = "full_default"
    RELAXED = "relaxed"


@dataclass(frozen=True, eq=False)
class ShockScenario:
    """A shock vector ``s`` and the asset vector ``a = o + s`` it produces.

    ``interpolation`` is the coefficient that places the post-shock assets
    inside the admissible interval (for searched scenarios it is the
    effective value ``1 - k / max_steps`` at the accepted step ``k``).
    ``search_steps``/``max_steps`` are populated by the stepwise search
    only. The sink keeps its pre-shock assets in every scenario.
    """

    shock: NDArray
    interpolation: float | NDArray
    kind: ShockKind
    post_shock_assets: NDArray
    search_steps: int | None = None
    max_steps: int | None = None

    @property
    def assets_positive(self) -> bool:
        """Whether every node kept strictly positive assets: under full
        recovery (``r = 1``, ``r_a = 1``) that suffices for a unique clearing
        vector, below it not (see :class:`clearnet.clearing.ClearingSolution`)."""
        return bool(np.all(self.post_shock_assets > 0))


@dataclass(frozen=True, eq=False)
class RelaxedShockCertificate:
    """Outcome of the self-referential relaxed construction.

    ``candidate`` is the closed-form payment vector the construction is
    built around; ``clearing`` is the full solver's answer under the
    resulting shock; ``candidate_gap`` is their max-norm disagreement over
    banks. ``printed_payments``/``printed_gap`` evaluate the alternative
    closed form kept for comparison (see
    :func:`clearnet.centrality.printed_relaxed_closed_form`).
    """

    scenario: ShockScenario
    candidate: NDArray
    clearing: ClearingSolution
    candidate_gap: float
    printed_payments: NDArray
    printed_gap: float


def full_default_shock(system: FinancialSystem, m) -> ShockScenario:
    """Shock placing every bank strictly inside fundamental default.

    With interpolation ``m`` the shock is ``s_i = m l_i - m (C l)_i - o_i``
    per bank (the sink is untouched), so post-shock assets land at
    ``a_i = m (l_i - (C l)_i)``: positive, but too small to stay solvent
    even when every counterparty pays in full.

    Raises
    ------
    PreconditionViolated
        If some bank's claims cover its liabilities (``(C l)_i >= l_i``), or
        if the shocked system leaves some bank unflagged by
        :func:`fundamental_defaults`: its equity ``-(1 - m)(l_i - (C l)_i)``
        lies within the solvency band ``-DEFAULT_BAND * l_i``, so the clear
        could not see the default.
    """
    n = system.node_count
    m_vec = validate_interpolation(m, n)
    l = system.total_liabilities
    cl = system.total_claims
    b = system.banks
    bad = np.flatnonzero(cl[b] >= l[b])
    if bad.size:
        raise PreconditionViolated(
            "bank(s) %s have interbank claims covering their total liabilities "
            "((C l)_i >= l_i); no asset shock can put them in fundamental default"
            % bad.tolist()
        )

    a = system.pre_shock_assets.copy()
    a[b] = m_vec[b] * (l[b] - cl[b])
    shock = a - system.pre_shock_assets

    if np.any(a[b] <= 0):   # holds by construction; a violation means corrupted inputs
        raise PreconditionViolated("shock left some bank outside the default interval")

    scenario = ShockScenario(
        shock=shock,
        interpolation=m if np.isscalar(m) else m_vec,
        kind=ShockKind.FULL_DEFAULT,
        post_shock_assets=a,
    )
    solvent = np.flatnonzero(~fundamental_defaults(shocked_system(system, scenario)).flags)
    if solvent.size:
        raise PreconditionViolated(
            "bank(s) %s stay within the solvency band after the shock; their "
            "headroom l_i - (C l)_i is too small next to l_i for a fundamental "
            "default" % solvent.tolist()
        )
    return scenario


def shocked_system(system: FinancialSystem, scenario: ShockScenario) -> FinancialSystem:
    """The same network with the scenario's post-shock assets installed."""
    return system.with_external_assets(scenario.post_shock_assets)


def relaxed_shock_search(
    system: FinancialSystem,
    params: ClearingParams,
    max_steps: int = 1000,
) -> ShockScenario:
    """Smallest shock on a stepwise grid that defaults every node.

    Step ``k`` scales every bank's assets to ``(1 - k/max_steps)`` of its
    fundamental-default headroom ``l_i - (C l)_i``, runs the full clearing
    model, and accepts the first ``k`` whose solution flags every node.

    Already at ``k = 1`` every bank with ``l_i > (C l)_i`` is in
    fundamental default, so on a network where every bank has positive
    headroom (every ``generate_random_system`` network) the search accepts
    ``k = 1`` after one clear, and the scenario is the full-default shock
    with ``m = 1 - 1/max_steps``. Otherwise ``k = max_steps`` is probed and the
    steps between are bisected: later steps only shrink assets, so default
    sets grow monotonically in ``k``, and the search costs at most
    ``2 + ceil(log2(max_steps))`` clears.

    Raises
    ------
    SearchExhausted
        If even the most severe step leaves some bank solvent; the
        exception carries those bank indices.
    """
    if max_steps < 1:
        raise ValidationError(f"max_steps must be at least 1, got {max_steps}")

    l = system.total_liabilities
    cl = system.total_claims
    o = system.pre_shock_assets
    banks = system.banks

    def defaults_at(k: int):
        # floor at zero: banks whose claims exceed their liabilities would get
        # negative assets from the formula; they can still default through
        # contagion, or else surface in the exhaustion diagnostics
        a = o.copy()
        a[banks] = np.maximum((1.0 - k / max_steps) * (l[banks] - cl[banks]), 0.0)
        solution = fictitious_default_sequence(
            system.with_external_assets(a), params
        )
        return solution.defaults.flags, a

    k = 1
    flags, a = defaults_at(k)
    if not flags.all() and max_steps > 1:
        k = max_steps
        flags, a = defaults_at(k)
    if not flags.all():
        raise SearchExhausted(
            f"banks {np.flatnonzero(~flags).tolist()} stayed solvent at "
            f"k = max_steps = {max_steps}",
            solvent_banks=np.flatnonzero(~flags),
        )
    # k defaults every node; bisect the untried steps 2 .. k-1 below it
    lo, hi = 2, k - 1
    while lo <= hi:
        mid = (lo + hi) // 2
        mid_flags, mid_a = defaults_at(mid)
        if mid_flags.all():
            k, a, hi = mid, mid_a, mid - 1
        else:
            lo = mid + 1
    return ShockScenario(
        shock=a - o,
        interpolation=1.0 - k / max_steps,
        kind=ShockKind.RELAXED,
        post_shock_assets=a,
        search_steps=k,
        max_steps=max_steps,
    )


def relaxed_interpolated_shock(
    system: FinancialSystem,
    params: ClearingParams,
    m,
) -> RelaxedShockCertificate:
    """Self-referential shock ``s_i = m l_i - m (C p)_i - o_i`` resolved in
    closed form and certified by the clearing solver.

    Substituting the implied assets ``a = m (l - C p)`` into the all-default
    solution ``p = (I - r C)^{-1} a`` and collecting terms gives the
    candidate ``q = m (I - (r - m) C)^{-1} l``. The scenario installs
    ``a = m (l - C q)``, runs the full model, and certifies that (i) the
    clearing vector reproduces ``q`` on banks within ``RELAXED_GAP_TOL``
    and (ii) every node is in default. The alternative closed form
    ``(I - (r-m)C)^{-1} m (l + r C l)`` is evaluated alongside and its gap
    reported as data, not a failure.
    """
    n = system.node_count
    m_vec = validate_interpolation(m, n)
    r_vec = params.recovery_vector(n)
    l = system.total_liabilities
    C = system.claims_csr

    q = m_vec * solve_attenuated(C, r_vec - m_vec, l, "relaxed-shock candidate")

    a = system.pre_shock_assets.copy()
    b = system.banks
    a[b] = m_vec[b] * (l[b] - matvec(C, q)[b])
    if np.any(a[b] <= 0):
        raise PreconditionViolated(
            "candidate assets are not positive for banks "
            f"{np.flatnonzero(a[b] <= 0).tolist()}"
        )
    scenario = ShockScenario(
        shock=a - system.pre_shock_assets,
        interpolation=m if np.isscalar(m) else m_vec,
        kind=ShockKind.RELAXED,
        post_shock_assets=a,
    )

    solution = fictitious_default_sequence(shocked_system(system, scenario), params)
    if not solution.defaults.flags.all():
        raise NotAllDefaulted(
            "banks %s stayed solvent under the interpolated shock"
            % np.flatnonzero(~solution.defaults.flags).tolist()
        )
    gap = float(np.abs(solution.payments - q)[b].max(initial=0.0))
    if gap > RELAXED_GAP_TOL:
        raise SelfConsistencyFailed(
            f"clearing vector differs from the candidate by {gap:.3e} "
            f"(tol {RELAXED_GAP_TOL:.1e})"
        )

    printed = printed_relaxed_closed_form(system, params.r, m)
    printed_gap = float(np.abs(solution.payments - printed)[b].max(initial=0.0))
    return RelaxedShockCertificate(
        scenario=scenario,
        candidate=q,
        clearing=solution,
        candidate_gap=gap,
        printed_payments=printed,
        printed_gap=printed_gap,
    )
