"""Financial-system data model: an obligation network with a sink node.

A system holds ``N`` nodes: ``N - 1`` banks plus one sink node, stored
last, that collects every liability owed outside the banking system
(deposits, bonds held by households, ...). The sink owes nothing and is
treated as defaulted by convention, which is what makes the clearing
algebra well posed for any recovery rate.

Everything in this module is immutable after construction and every
operation is a pure function of its inputs. The total liabilities ``l``
and the claims matrix ``C`` are derived once, when the system is built,
and every copy with new external assets shares them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
from numpy.typing import NDArray

from ._linalg import as_csr
from .errors import (
    DimensionMismatch,
    InvalidInterpolation,
    NegativeEntry,
    NonzeroDiagonal,
    NonzeroSinkRow,
    ValidationError,
)

# Relative half-width of the solvency boundary band: a bank whose equity is
# within -DEFAULT_BAND * max(1, l_i) of zero still counts as solvent, so
# floating-point noise cannot flip the default flag at the boundary.
DEFAULT_BAND = 1e-12

__all__ = [
    "DEFAULT_BAND",
    "FinancialSystem",
    "RelativeClaims",
    "DefaultIndicator",
    "ClearingParams",
    "broadcast_rate",
    "validate_interpolation",
    "build_system",
    "total_liabilities",
    "relative_claims",
    "equity",
    "default_indicator",
    "fundamental_defaults",
]


def _readonly(a: NDArray) -> NDArray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _validated_assets(values, name: str, n: int) -> NDArray:
    """A read-only copy of an asset vector, after checking that it has
    length ``n`` and that every entry is finite and nonnegative."""
    a = np.asarray(values, dtype=float)
    if a.shape != (n,):
        raise DimensionMismatch(f"{name} has shape {a.shape}, expected ({n},)")
    if not np.all(np.isfinite(a)):
        raise DimensionMismatch(f"{name} must be finite")
    if np.any(a < 0):
        i = int(np.argmax(a < 0))
        raise NegativeEntry(f"{name}[{i}] = {a[i]} is negative")
    return _readonly(a)


@dataclass(frozen=True)
class FinancialSystem:
    """Liability network plus asset endowments.

    Attributes
    ----------
    node_count : int
        Number of nodes ``N`` (banks plus the sink, which is index ``N-1``).
    liabilities : (N, N) ndarray
        ``liabilities[i, j]`` is what node ``i`` owes node ``j``. The sink
        row is all zeros and the diagonal is zero.
    external_assets : (N,) ndarray
        Current external assets ``a`` (post-shock when a shock was applied).
    pre_shock_assets : (N,) ndarray
        Asset values ``o`` before any shock.
    total_liabilities : (N,) ndarray
        Row sums ``l`` of ``liabilities``.
    claims : (N, N) scipy.sparse.csr_array
        Claims matrix ``C`` (see :func:`relative_claims`) in compressed
        sparse rows, read-only; every matrix-vector product and linear
        solve inside the package runs on it. ``claims.toarray()`` gives a
        dense copy.
    """

    node_count: int
    liabilities: NDArray
    external_assets: NDArray
    pre_shock_assets: NDArray
    total_liabilities: NDArray = field(repr=False, compare=False)
    claims: scipy.sparse.csr_array = field(repr=False, compare=False)

    @property
    def sink(self) -> int:
        return self.node_count - 1

    @property
    def n_banks(self) -> int:
        return self.node_count - 1

    @property
    def banks(self) -> slice:
        """Slice selecting the bank entries of any length-N vector."""
        return slice(0, self.node_count - 1)

    def with_external_assets(self, assets: NDArray) -> "FinancialSystem":
        """Copy of the system with a new external-asset vector ``a``; it
        shares ``l`` and ``C`` with this one."""
        return FinancialSystem(
            node_count=self.node_count,
            liabilities=self.liabilities,
            external_assets=_validated_assets(assets, "external_assets", self.node_count),
            pre_shock_assets=self.pre_shock_assets,
            total_liabilities=self.total_liabilities,
            claims=self.claims,
        )


@dataclass(frozen=True)
class RelativeClaims:
    """Column-normalized claims matrix ``C``.

    ``matrix[i, j]`` is the share of node ``j``'s total liabilities owed to
    node ``i``; columns of nodes with no liabilities are zero, so ``C @ x``
    values a payment vector ``x`` for the creditors. ``matrix`` is the
    system's read-only CSR array; ``matrix.toarray()`` gives a dense copy.
    """

    matrix: scipy.sparse.csr_array


@dataclass(frozen=True, eq=False)
class DefaultIndicator:
    """Boolean default flags, one per node; the sink is always flagged."""

    flags: NDArray

    def __eq__(self, other) -> bool:
        if not isinstance(other, DefaultIndicator):
            return NotImplemented
        return bool(np.array_equal(self.flags, other.flags))

    def issubset(self, other: "DefaultIndicator") -> bool:
        return bool(np.all(other.flags[self.flags]))

    @property
    def count(self) -> int:
        return int(self.flags.sum())


def broadcast_rate(value, n: int, name: str) -> NDArray:
    """Expand a scalar-or-vector rate (recovery, interpolation) to length n."""
    vec = np.asarray(value, dtype=float)
    if vec.ndim == 0:
        vec = np.full(n, float(vec))
    if vec.shape != (n,):
        raise DimensionMismatch(f"{name} must be a scalar or length-{n} vector")
    return vec


def validate_interpolation(m, n: int) -> NDArray:
    """Expand an interpolation coefficient ``m`` to length n; every entry
    must lie strictly inside (0, 1)."""
    vec = broadcast_rate(m, n, "m")
    if np.any(vec <= 0) or np.any(vec >= 1):
        raise InvalidInterpolation(
            f"interpolation coefficient must lie strictly inside (0, 1), got {m}"
        )
    return vec


@dataclass(frozen=True)
class ClearingParams:
    """Recovery rates used by the clearing map.

    ``r`` applies to interbank claims on a defaulted bank and may be a
    scalar or a per-node vector (applied as a diagonal matrix); ``r_a``
    applies to external assets and defaults to 1.
    """

    r: float | NDArray = 1.0
    r_a: float = 1.0

    def __post_init__(self):
        r = np.asarray(self.r, dtype=float)
        if not np.all((r >= 0) & (r <= 1)):   # NaN fails too
            raise ValidationError(f"recovery rate r must lie in [0, 1], got {self.r}")
        if not 0.0 <= self.r_a <= 1.0:
            raise ValidationError(f"recovery rate r_a must lie in [0, 1], got {self.r_a}")

    def recovery_vector(self, node_count: int) -> NDArray:
        return broadcast_rate(self.r, node_count, "r")


def build_system(liabilities, pre_shock_assets, external_assets=None) -> FinancialSystem:
    """Validate raw inputs and assemble a :class:`FinancialSystem`.

    ``liabilities`` contains the sink as its last row and column.
    ``external_assets`` defaults to ``pre_shock_assets`` (no shock yet).

    Raises
    ------
    DimensionMismatch, NegativeEntry, NonzeroDiagonal, NonzeroSinkRow
        Each names the offending index. A non-finite entry, or a row whose
        entries are finite but whose sum overflows, raises
        ``DimensionMismatch``.
    """
    L = np.asarray(liabilities, dtype=float)
    if L.ndim != 2 or L.shape[0] != L.shape[1]:
        raise DimensionMismatch(f"liability matrix must be square, got shape {L.shape}")
    N = L.shape[0]
    o = _validated_assets(pre_shock_assets, "pre_shock_assets", N)
    a = o
    if external_assets is not None:
        a = _validated_assets(external_assets, "external_assets", N)

    if not np.all(np.isfinite(L)):
        raise DimensionMismatch("liabilities must be finite")
    if np.any(L < 0):
        i, j = np.unravel_index(int(np.argmin(L)), L.shape)
        raise NegativeEntry(f"liabilities[{i}][{j}] = {L[i, j]} is negative")
    diag = np.diagonal(L)
    if np.any(diag != 0):
        i = int(np.argmax(diag != 0))
        raise NonzeroDiagonal(f"node {i} has a self-liability of {diag[i]}")
    if np.any(L[N - 1] != 0):
        j = int(np.argmax(L[N - 1] != 0))
        raise NonzeroSinkRow(f"sink owes {L[N - 1, j]} to node {j}")
    if o[N - 1] <= 0:
        raise NegativeEntry(f"sink pre_shock_assets must be positive, got {o[N - 1]}")

    with np.errstate(over="ignore"):
        l = L.sum(axis=1)
    if not np.all(np.isfinite(l)):
        i = int(np.argmax(~np.isfinite(l)))
        raise DimensionMismatch(f"total liabilities of node {i} are not finite")
    l.setflags(write=False)
    # C = L^T / l, one division per stored entry of L: no N x N temporary
    C = as_csr(L)
    C.data /= np.repeat(l, np.diff(C.indptr))
    C = C.T.tocsr()
    for part in (C.data, C.indices, C.indptr):
        part.setflags(write=False)

    return FinancialSystem(
        node_count=N,
        liabilities=_readonly(L),
        external_assets=a,
        pre_shock_assets=o,
        total_liabilities=l,
        claims=C,
    )


def total_liabilities(system: FinancialSystem) -> NDArray:
    """Row sums ``l_i`` of the liability matrix; zero for the sink."""
    return system.total_liabilities


def relative_claims(system: FinancialSystem) -> RelativeClaims:
    """Column-normalized claims matrix ``C[i, j] = L[j, i] / l_j``.

    Columns of nodes without liabilities (including the sink) are zero.
    """
    return RelativeClaims(matrix=system.claims)


def equity(system: FinancialSystem, payments: NDArray) -> NDArray:
    """Balance-sheet equity ``a + C p - l`` under a payment vector ``p``."""
    p = np.asarray(payments, dtype=float)
    return system.external_assets + system.claims @ p - system.total_liabilities


def default_indicator(system: FinancialSystem, payments: NDArray) -> DefaultIndicator:
    """Default flags under a payment vector.

    A bank defaults when its equity is below the (tiny) tolerance band
    around zero, so exact boundary solvency counts as solvent; the sink is
    flagged by convention.
    """
    eq = equity(system, payments)
    flags = eq < -DEFAULT_BAND * np.maximum(1.0, system.total_liabilities)
    flags[system.sink] = True
    flags.setflags(write=False)
    return DefaultIndicator(flags=flags)


def fundamental_defaults(system: FinancialSystem) -> DefaultIndicator:
    """Banks insolvent even when every counterparty pays in full (p = l)."""
    return default_indicator(system, system.total_liabilities)
