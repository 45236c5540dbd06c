"""Financial-system data model: an obligation network with a sink node.

A system holds ``N`` nodes: ``N - 1`` banks plus one sink node, stored
last, that collects every liability owed outside the banking system
(deposits, bonds held by households, ...). The sink owes nothing and is
treated as defaulted by convention, which is what makes the clearing
algebra well posed for any recovery rate.

Everything in this module is immutable after construction and every
operation is a pure function of its inputs. The liability matrix ``L`` is
stored once, as the package's read-only compressed-sparse-row arrays
(:class:`clearnet._linalg.Csr`); the total liabilities ``l``, the claims
matrix ``C`` and the total claims ``C l`` are derived from it once, when
the system is built, and every copy with new external assets shares them,
with the column sums ``1^T C`` that ``C`` keeps from its first use
(:attr:`clearnet._linalg.Csr.column_sums`). A caller's matrix is read by
:func:`clearnet._linalg.as_csr`. ``C`` is transposed by scipy's compiled
``csr_tocsc``, the kernel that ``scipy.sparse`` runs for ``C.T.tocsr()``,
and nothing here imports ``scipy.sparse``: each matrix is public once, as
the stored :class:`~clearnet._linalg.Csr` itself,
:attr:`FinancialSystem.liabilities_csr` and
:attr:`FinancialSystem.claims_csr`. No N x N array is formed on the way,
except on request by the dense :attr:`FinancialSystem.liabilities`.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from numpy.typing import NDArray

from ._linalg import Csr, as_csr, csr_tocsc, matvec
from .errors import (
    DimensionMismatch,
    InvalidInterpolation,
    NegativeEntry,
    NonzeroDiagonal,
    NonzeroSinkRow,
    ValidationError,
)

# Relative half-width of the solvency boundary band: a bank whose equity is
# within -DEFAULT_BAND * l_i of zero still counts as solvent, so
# floating-point noise cannot flip the default flag at the boundary. The
# band scales with l alone, so scaling a network by a power of two changes
# no flag.
DEFAULT_BAND = 1e-12
# Rows densified at a time where a row sum must equal numpy's dense one.
ROW_BLOCK = 64

__all__ = [
    "DEFAULT_BAND",
    "FinancialSystem",
    "RelativeClaims",
    "DefaultIndicator",
    "ClearingParams",
    "broadcast_rate",
    "validate_interpolation",
    "build_system",
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


@dataclass(frozen=True, eq=False)
class FinancialSystem:
    """Liability network plus asset endowments.

    Attributes
    ----------
    node_count : int
        Number of nodes ``N`` (banks plus the sink, which is index ``N-1``).
    liabilities_csr : (N, N) clearnet._linalg.Csr
        ``L[i, j]``, what node ``i`` owes node ``j``, as read-only compressed
        sparse rows with sorted int64 indices; zeros are not stored. The
        sink row and the diagonal are empty. :attr:`liabilities` is a dense
        copy.
    external_assets : (N,) ndarray
        Current external assets ``a`` (post-shock when a shock was applied).
    pre_shock_assets : (N,) ndarray
        Asset values ``o`` before any shock.
    total_liabilities : (N,) ndarray
        Row sums ``l`` of ``L``, bit for bit those of the dense matrix.
    claims_csr : (N, N) clearnet._linalg.Csr
        Column-normalized claims matrix ``C[i, j] = L[j, i] / l_j``, the
        share of node ``j``'s total liabilities owed to node ``i``; columns
        of nodes without liabilities (the sink's included) are zero. Stored
        as read-only compressed sparse rows with sorted int64 indices;
        every matrix-vector product and linear solve inside the package
        runs on it; ``claims_csr.toarray()`` gives a dense copy, and
        ``claims_csr.column_sums`` the read-only ``1^T C``, formed on first
        use and kept. Every solve on the whole of ``C`` at one uniform rate
        ``r`` takes its column weights as ``|r|`` times these instead of a
        pass over ``C``.
    total_claims : (N,) ndarray
        ``C l``, what each node is owed when every debtor pays in full;
        read-only.

    A system compares and hashes by identity.
    """

    node_count: int
    liabilities_csr: Csr = field(repr=False)
    external_assets: NDArray
    pre_shock_assets: NDArray
    total_liabilities: NDArray = field(repr=False)
    claims_csr: Csr = field(repr=False)
    total_claims: NDArray = field(repr=False)

    @property
    def liabilities(self) -> NDArray:
        """A fresh, read-only dense copy of ``L``: N x N floats, built on
        each access. Inside the package only ``SystemDocument.from_system``
        (the ``gen`` command) reads it."""
        L = self.liabilities_csr.toarray()
        L.setflags(write=False)
        return L

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
        shares every other field, each derived from ``L`` once by
        :func:`build_system`, with this one."""
        a = _validated_assets(assets, "external_assets", self.node_count)
        return replace(self, external_assets=a)


@dataclass(frozen=True, eq=False)
class RelativeClaims:
    """The claims matrix ``C`` of a system; ``matrix`` is ``system.claims_csr``."""

    matrix: Csr


@dataclass(frozen=True, eq=False)
class DefaultIndicator:
    """Boolean default flags, one per node; the sink is always flagged.
    Indicators compare and hash by the values of their flags."""

    flags: NDArray

    def __eq__(self, other) -> bool:
        if not isinstance(other, DefaultIndicator):
            return NotImplemented
        return bool(np.array_equal(self.flags, other.flags))

    def __hash__(self) -> int:
        # over the flags as booleans: flags that compare equal hash alike
        flags = np.asarray(self.flags, dtype=bool)
        return hash((flags.shape, flags.tobytes()))

    def flags_at(self, node_count: int) -> NDArray:
        """The flags as booleans, checked to hold one flag per node."""
        flags = np.asarray(self.flags, dtype=bool)
        if flags.shape != (node_count,):
            raise DimensionMismatch(
                f"default flags have shape {flags.shape}, expected ({node_count},)"
            )
        return flags

    def issubset(self, other: "DefaultIndicator") -> bool:
        """Whether every node flagged here is flagged in ``other``, which
        must hold as many flags (else ``DimensionMismatch``)."""
        flags = self.flags_at(np.size(self.flags))
        return bool(np.all(other.flags_at(flags.size)[flags]))

    @property
    def count(self) -> int:
        return int(self.flags.sum())


def broadcast_rate(value, n: int, name: str) -> NDArray:
    """Expand a scalar-or-vector recovery rate to length n; every entry
    must lie in [0, 1]."""
    vec = np.asarray(value, dtype=float)
    if vec.ndim and vec.shape != (n,):
        raise DimensionMismatch(f"{name} must be a scalar or length-{n} vector")
    # the rate as given, so that a scalar is checked even for n = 0
    if not (vec.min(initial=0.0) >= 0.0 and vec.max(initial=1.0) <= 1.0):   # NaN fails too
        raise ValidationError(f"recovery rate {name} must lie in [0, 1], got {value}")
    return vec if vec.ndim else np.full(n, float(vec))


def validate_interpolation(m, n: int) -> NDArray:
    """Expand an interpolation coefficient ``m`` to length n; every entry
    must lie strictly inside (0, 1)."""
    vec = np.asarray(m, dtype=float)
    if not np.all((vec > 0) & (vec < 1)):   # NaN fails too
        raise InvalidInterpolation(
            f"interpolation coefficient must lie strictly inside (0, 1), got {m}"
        )
    return broadcast_rate(m, n, "m")


@dataclass(frozen=True, eq=False)
class ClearingParams:
    """Recovery rates used by the clearing map.

    ``r`` applies to interbank claims on a defaulted bank and may be a
    scalar or a per-node vector (applied as a diagonal matrix); a vector is
    kept as a read-only float copy, so changing the caller's array later
    does not change the parameters. ``r_a`` applies to external assets and
    defaults to 1. Parameters compare and hash by value.
    """

    r: float | NDArray = 1.0
    r_a: float = 1.0

    def __post_init__(self):
        # the range check of broadcast_rate, at each rate's own length
        broadcast_rate(self.r, np.size(self.r), "r")
        broadcast_rate(self.r_a, 1, "r_a")
        if np.ndim(self.r):
            object.__setattr__(self, "r", _readonly(self.r))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ClearingParams):
            return NotImplemented
        return self.r_a == other.r_a and bool(np.array_equal(self.r, other.r))

    def __hash__(self) -> int:
        return hash((self.r_a, *np.ravel(self.r).tolist()))

    def recovery_vector(self, node_count: int) -> NDArray:
        """``r`` at length ``node_count``; its range was checked once, at
        construction, so only the length of a vector is checked here."""
        if not np.ndim(self.r):
            return np.full(node_count, float(self.r))
        if self.r.shape != (node_count,):
            raise DimensionMismatch(f"r must be a scalar or length-{node_count} vector")
        return self.r


def row_sums(L: Csr) -> NDArray:
    """Row sums of a canonical CSR matrix, bit for bit numpy's
    ``sum(axis=1)`` of the dense matrix. numpy sums a row pairwise, so the
    zeros between the stored entries decide how the terms pair up; the rows
    are densified ``ROW_BLOCK`` at a time. A sum that overflows is inf,
    without a warning."""
    n_rows, n_cols = L.shape
    out = np.empty(n_rows)
    buffer = np.empty((min(ROW_BLOCK, n_rows), n_cols))
    with np.errstate(over="ignore"):
        for start in range(0, n_rows, ROW_BLOCK):
            stop = min(start + ROW_BLOCK, n_rows)
            ptr = L.indptr[start:stop + 1]
            entries = slice(ptr[0], ptr[-1])
            block = buffer[:stop - start]
            block.fill(0.0)
            block[np.repeat(np.arange(stop - start), np.diff(ptr)), L.indices[entries]] = (
                L.data[entries]
            )
            out[start:stop] = block.sum(axis=1)
    return out


def build_system(liabilities, pre_shock_assets, external_assets=None) -> FinancialSystem:
    """Validate raw inputs and assemble a :class:`FinancialSystem`.

    ``liabilities`` is a dense matrix or any ``scipy.sparse`` matrix or
    array; it contains the sink as its last row and column. It is read by
    :func:`clearnet._linalg.as_csr`, which makes dense and sparse input give
    the same arrays, and validated in one pass over its nonzero entries. No
    ``scipy`` module is imported for a dense matrix.
    ``external_assets`` defaults to ``pre_shock_assets`` (no shock yet).

    Raises
    ------
    DimensionMismatch, NegativeEntry, NonzeroDiagonal, NonzeroSinkRow
        Each names the offending index, the first in row-major order, the
        same for dense and sparse input. A non-finite entry, a row whose
        entries are finite but whose sum overflows, or a 0 x 0 matrix (no
        sink) raises ``DimensionMismatch``.
    """
    L = as_csr(liabilities)
    kept = L.data != 0   # a Csr, which only the package passes, may hold zeros
    if not kept.all():
        L = Csr(np.append(0, np.cumsum(kept))[L.indptr], L.indices[kept], L.data[kept], L.shape)
    L = Csr(*(part.astype(np.int64, copy=False) for part in L[:2]), L.data, L.shape)
    if L.shape[0] != L.shape[1]:
        raise DimensionMismatch(f"liability matrix must be square, got shape {L.shape}")
    N = L.shape[0]
    if N == 0:
        raise DimensionMismatch("liability matrix must hold at least the sink row and column")
    o = _validated_assets(pre_shock_assets, "pre_shock_assets", N)
    a = o
    if external_assets is not None:
        a = _validated_assets(external_assets, "external_assets", N)

    data, cols = L.data, L.indices
    rows = np.repeat(np.arange(N), np.diff(L.indptr))
    if not np.all(np.isfinite(data)):
        raise DimensionMismatch("liabilities must be finite")
    if np.any(data < 0):
        k = int(np.argmin(data))
        raise NegativeEntry(f"liabilities[{rows[k]}][{cols[k]}] = {data[k]} is negative")
    diagonal = rows == cols
    if np.any(diagonal):
        k = int(np.argmax(diagonal))
        raise NonzeroDiagonal(f"node {rows[k]} has a self-liability of {data[k]}")
    if L.indptr[N] > L.indptr[N - 1]:
        k = L.indptr[N - 1]
        raise NonzeroSinkRow(f"sink owes {data[k]} to node {cols[k]}")
    if o[N - 1] <= 0:
        raise NegativeEntry(f"sink pre_shock_assets must be positive, got {o[N - 1]}")

    l = row_sums(L)
    if not np.all(np.isfinite(l)):
        i = int(np.argmax(~np.isfinite(l)))
        raise DimensionMismatch(f"total liabilities of node {i} are not finite")
    l.setflags(write=False)
    # C = L^T / l, one division per stored entry of L; the CSC arrays of L / l
    # are the CSR arrays of its transpose, as scipy's C.T.tocsr() forms them
    C = Csr(np.empty(N + 1, dtype=np.int64), np.empty_like(cols), np.empty_like(data), L.shape)
    csr_tocsc(N, N, L.indptr, cols, data / l[rows], C.indptr, C.indices, C.data)
    for part in (L.data, L.indices, L.indptr, C.data, C.indices, C.indptr):
        part.setflags(write=False)
    cl = matvec(C, l)
    cl.setflags(write=False)

    return FinancialSystem(
        node_count=N,
        liabilities_csr=L,
        external_assets=a,
        pre_shock_assets=o,
        total_liabilities=l,
        claims_csr=C,
        total_claims=cl,
    )


def relative_claims(system: FinancialSystem) -> RelativeClaims:
    """``system.claims_csr`` (see :class:`FinancialSystem`) wrapped."""
    return RelativeClaims(matrix=system.claims_csr)


def payment_vector(system: FinancialSystem, payments) -> NDArray:
    """``payments`` as floats, checked to hold one entry per node."""
    p = np.asarray(payments, dtype=float)
    if p.shape != (system.node_count,):
        raise DimensionMismatch(f"dimension mismatch: payments have shape {p.shape}, "
                                f"expected ({system.node_count},)")
    return p


def equity(system: FinancialSystem, payments: NDArray) -> NDArray:
    """Balance-sheet equity ``a + C p - l`` under a payment vector ``p``."""
    p = payment_vector(system, payments)
    return system.external_assets + matvec(system.claims_csr, p) - system.total_liabilities


def _defaults_from_claims(system: FinancialSystem, cp: NDArray) -> DefaultIndicator:
    """Default flags when the nodes collect ``cp = C p``: a bank defaults when
    its equity ``a + cp - l`` is below ``-DEFAULT_BAND * l``, so exact
    boundary solvency counts as solvent; the sink is flagged."""
    eq = system.external_assets + cp - system.total_liabilities
    flags = eq < -DEFAULT_BAND * system.total_liabilities
    flags[system.sink] = True
    flags.setflags(write=False)
    return DefaultIndicator(flags=flags)


def default_indicator(system: FinancialSystem, payments: NDArray) -> DefaultIndicator:
    """Default flags under a payment vector (see :func:`_defaults_from_claims`)."""
    p = payment_vector(system, payments)
    return _defaults_from_claims(system, matvec(system.claims_csr, p))


def fundamental_defaults(system: FinancialSystem) -> DefaultIndicator:
    """Banks insolvent even when every counterparty pays in full (p = l).

    The claims collected are the stored ``total_claims``, the product
    ``C l`` that :func:`default_indicator` would form again, so the flags
    are the same bit for bit."""
    return _defaults_from_claims(system, system.total_claims)
