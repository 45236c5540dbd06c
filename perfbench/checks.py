"""Independent checks of clearnet outputs, computed with numpy alone.

Nothing here calls into clearnet: the claims matrix, the Katz solve, the
clearing-map residual and the spectral radius are rebuilt from the raw
liability matrix, so a defect in the program cannot hide in its own
reference. Each check raises :class:`CheckFailed` with the first violation.
"""
from __future__ import annotations

import numpy as np

# Solvency band of the model (see the package README): a bank defaults when
# its equity is below -BAND * max(1, l_i).
BAND = 1e-12
IDENTITY_TOL = 1e-8
RESIDUAL_TOL = 1e-9
RADIUS_TOL = 1e-8


class CheckFailed(Exception):
    """An output of the program disagrees with the independent computation."""


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def claims(liabilities) -> tuple[np.ndarray, np.ndarray]:
    """Total liabilities ``l`` and the column-normalized claims matrix ``C``."""
    L = np.asarray(liabilities, dtype=float)
    l = L.sum(axis=1)
    C = np.zeros_like(L)
    owes = l > 0
    C[:, owes] = L[owes].T / l[owes]
    return l, C


def katz_reference(l: np.ndarray, C: np.ndarray, r: float, m: float) -> np.ndarray:
    """``sigma = (I - rC)^{-1} beta`` with ``beta = (1-m) l - (r-m) C l``
    (sink entry of beta zero)."""
    beta = (1.0 - m) * l - (r - m) * (C @ l)
    beta[-1] = 0.0
    return np.linalg.solve(np.eye(l.size) - r * C, beta)


def full_shock_assets(l: np.ndarray, C: np.ndarray, o: np.ndarray, m: float) -> np.ndarray:
    """Post-shock assets ``m (l - C l)`` on banks; the sink keeps ``o``."""
    a = np.array(o, dtype=float)
    a[:-1] = m * (l - C @ l)[:-1]
    return a


def _scale(l: np.ndarray) -> float:
    return max(1.0, float(l.max(initial=0.0)))


def check_close(name: str, got, want, l: np.ndarray, tol: float = IDENTITY_TOL) -> None:
    """Bank entries of ``got`` within ``tol * max(1, max l)`` of ``want``."""
    gap = float(np.abs(np.asarray(got, dtype=float) - want)[:-1].max(initial=0.0))
    require(gap <= tol * _scale(l), f"{name} is {gap:.3e} away from the reference")


def check_full_shock(
    l: np.ndarray,
    reference: np.ndarray,
    payments,
    sigma,
    iterations: int,
    flags,
) -> None:
    """The paper's identity: clearing losses ``l - p`` and the centrality
    vector both equal the reference solve, in one round with every node
    defaulted."""
    check_close("clearing loss l - p", l - np.asarray(payments, dtype=float), reference, l)
    check_close("centrality sigma", sigma, reference, l)
    require(iterations == 1, f"cleared in {iterations} rounds, expected 1")
    require(bool(np.all(flags)), "some node stayed solvent under the full shock")


def check_clearing(
    l: np.ndarray,
    C: np.ndarray,
    assets,
    r: float,
    payments,
    flags,
    history=None,
) -> None:
    """``p`` is a fixed point of the clearing map on banks, lies in
    ``[0, l]``, its default flags match the sign of ``a + Cp - l`` outside
    the solvency band, and the default sets of ``history`` are nested."""
    a = np.asarray(assets, dtype=float)
    p = np.asarray(payments, dtype=float)
    flags = np.asarray(flags, dtype=bool)
    banks = slice(0, l.size - 1)

    require(bool(np.all(p[banks] >= 0.0)), "negative payment")
    require(bool(np.all(p[banks] <= l[banks])), "payment above liabilities")

    equity = a + C @ p - l
    band = BAND * np.maximum(1.0, l)
    defaulted = equity < -band
    paid = np.where(defaulted, r * (C @ p) + a, l)  # the benchmark clears with r_a = 1
    residual = float(np.abs(paid - p)[banks].max(initial=0.0))
    require(
        residual <= RESIDUAL_TOL * _scale(l),
        f"clearing-map residual {residual:.3e} on banks",
    )

    definite = (np.abs(equity) > band)[banks]
    wrong = np.flatnonzero(flags[banks][definite] != defaulted[banks][definite])
    require(wrong.size == 0, f"{wrong.size} default flag(s) disagree with equity")

    if history is not None:
        for before, after in zip(history, history[1:]):
            before = np.asarray(before, dtype=bool)
            require(
                bool(np.all(np.asarray(after, dtype=bool)[before])),
                "default sets in the history are not nested",
            )


def check_spectral(C: np.ndarray, radius_estimate: float, lower: float) -> None:
    """The reported radius matches ``max |eig(C)|`` and is not below the
    reported Collatz-Wielandt bound."""
    radius = float(np.max(np.abs(np.linalg.eigvals(C))))
    require(
        abs(radius_estimate - radius) <= RADIUS_TOL,
        f"radius estimate {radius_estimate!r} vs max|eig| {radius!r}",
    )
    require(
        radius_estimate >= lower,
        f"radius estimate {radius_estimate!r} below its lower bound {lower!r}",
    )
