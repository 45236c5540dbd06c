"""The solver of ``(I - diag(r) C) x = b`` against dense LU and exact
arithmetic, and each side of its choice between a Neumann sweep and LU."""
import collections
import math
import os
import subprocess
import sys
import tracemalloc
import unittest.mock
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import clearnet as cn
import clearnet._linalg
import clearnet.centrality
import clearnet.clearing
from clearnet._linalg import (
    EPS,
    RATIO_SETTLE,
    as_csr,
    column_weights,
    gather_rows,
    matvec,
    rmatvec,
    solve_attenuated,
    solve_rows,
)
from conftest import csr_array, exact_frozen_payments, fraction_solve, partial_default_variant


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _no_lu(A, context):
    raise AssertionError(f"dense LU called for {context}")


@pytest.fixture
def lu_sizes(monkeypatch) -> list:
    """Sizes of the matrices handed to the dense LU, in call order."""
    sizes = []
    lu = clearnet._linalg.lu_factor_checked

    def spy(A, context):
        sizes.append(A.shape[0])
        return lu(A, context)

    monkeypatch.setattr(clearnet._linalg, "lu_factor_checked", spy)
    return sizes


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_banks=st.integers(50, 400),
    density=st.floats(0.005, 0.05),
    r=st.floats(0.0, 0.99),
    per_node_r=st.booleans(),
    block_share=st.floats(0.05, 1.0),
    scale=st.sampled_from([1e-3, 1.0, 1e3, 1e6, 1e9, 1e12]),
    mixed_sign=st.booleans(),
)
def test_solver_matches_dense_lu(
    seed, n_banks, density, r, per_node_r, block_share, scale, mixed_sign
):
    system = cn.generate_random_system(seed, n_banks, density, weight_scale=scale)
    rng = np.random.default_rng(seed)
    n = system.node_count
    r_vec = rng.uniform(0.0, r, size=n) if per_node_r else np.full(n, r)
    flags = rng.random(n) < block_share
    flags[system.sink] = True
    idx = np.flatnonzero(flags)
    l = system.total_liabilities[idx]
    b = rng.uniform(-1.0 if mixed_sign else 0.0, 1.0, size=idx.size) * l
    if not b.any():
        b[0] = scale

    x = solve_attenuated(csr_array(system.claims_csr)[idx][:, idx], r_vec[idx], b, "block")
    block = system.claims_csr.toarray()[np.ix_(idx, idx)]
    A = np.eye(idx.size) - r_vec[idx, None] * block
    want = scipy.linalg.solve(A, b)
    assert np.abs(x - want).sum() <= 1e-13 * np.abs(want).sum()


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    n_banks=st.integers(1, 4),
    scale=st.sampled_from([1e-3, 1.0, 1e4, 1e8, 1e12]),
    asset_scale=st.sampled_from([1e-3, 1.0, 1e4]),
    # rates of 0 or at least 0.01 keep every product clear of subnormals
    r=st.one_of(st.just(0.0), st.floats(0.01, 0.95)),
    r_a=st.one_of(st.just(0.0), st.floats(0.01, 1.0)),
)
def test_solve_given_defaults_matches_exact_arithmetic(
    data, n_banks, scale, asset_scale, r, r_a
):
    n = n_banks + 1
    entry = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
    L = np.array(data.draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                    min_size=n, max_size=n))) * scale
    np.fill_diagonal(L, 0.0)
    L[-1] = 0.0
    assets = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)))
    assets[-1] = 1.0
    system = cn.build_system(L, assets * asset_scale)
    flags = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    flags[-1] = True

    p = cn.solve_given_defaults(
        system, cn.ClearingParams(r=r, r_a=r_a), cn.DefaultIndicator(flags=flags)
    )
    exact = exact_frozen_payments(system, r, r_a, flags)
    for got, want in zip(p, exact):
        assert abs(Fraction(got) - want) <= Fraction(1e-12) * abs(want)


class TestSelection:
    def test_full_default_clear_and_katz_sweep_without_lu(self, monkeypatch):
        system = cn.generate_random_system(seed=3, n_banks=300, density=0.03)
        l = system.total_liabilities
        C = csr_array(system.claims_csr)
        beta = cn.beta_vector(system, 0.8, 0.5)
        want = np.linalg.solve(np.eye(system.node_count) - 0.8 * C, beta)
        monkeypatch.setattr(clearnet._linalg, "lu_factor_checked", _no_lu)

        scenario = cn.full_default_shock(system, 0.5)
        solution = cn.fictitious_default_sequence(
            cn.shocked_system(system, scenario), cn.ClearingParams(r=0.8)
        )
        katz = cn.generalized_katz(C, 0.8, beta, m=0.5)

        assert solution.iterations == 1
        assert solution.defaults.count == system.node_count
        b = system.banks
        scale = np.abs(want[b]).sum()
        assert np.abs((l - solution.payments)[b] - want[b]).sum() <= 1e-13 * scale
        assert np.abs(katz.sigma[b] - want[b]).sum() <= 1e-13 * scale

    def test_full_recovery_takes_dense_lu(self, lu_sizes):
        # q = ||C||_1 = 1 at r = 1: the sweep's bound does not hold, so the
        # dense path runs even at 300 banks; the sink keeps it invertible
        system = cn.generate_random_system(seed=3, n_banks=300, density=0.03)
        n = system.node_count
        x = solve_attenuated(system.claims_csr, np.ones(n), np.ones(n), "r = 1")
        assert lu_sizes == [n]
        np.testing.assert_allclose(x - csr_array(system.claims_csr) @ x, 1.0, rtol=1e-10)

    def test_closed_cycle_at_full_recovery_raises_through_lu(self, lu_sizes):
        system = cn.build_system([[0, 5, 0], [5, 0, 0], [0, 0, 0]], [1.0, 1.0, 1.0])
        all_defaulted = cn.DefaultIndicator(flags=np.ones(3, dtype=bool))
        with pytest.raises(cn.SingularSystem):
            cn.solve_given_defaults(system, cn.ClearingParams(r=1.0), all_defaulted)
        assert lu_sizes == [3]

    @pytest.mark.parametrize("entry", [1e308, np.nan])
    def test_non_finite_norm_of_b_takes_dense_lu(self, entry, lu_sizes):
        # ||b||_1 overflows, or is nan: the floor eps S would pass any step
        system = cn.generate_random_system(seed=3, n_banks=300, density=0.03)
        n = system.node_count
        b = np.full(n, 1e308)
        b[-1] = entry
        x = solve_attenuated(system.claims_csr, 0.5, b, "huge")   # warns of nothing
        with np.errstate(over="ignore", invalid="ignore"):
            A = np.eye(n) - 0.5 * system.claims_csr.toarray()
            want = scipy.linalg.solve(A, b, check_finite=False)
        assert lu_sizes == [n]
        np.testing.assert_array_equal(x, want)

    def test_small_system_takes_dense_lu(self, sys_a, lu_sizes):
        # q = 0.8 < 1, but 55 sweeps over 4 nonzeros cost more than a 3x3 LU
        x = solve_attenuated(sys_a.claims_csr, 0.8, np.ones(3), "sys_a")
        assert lu_sizes == [3]
        np.testing.assert_allclose(x - 0.8 * (csr_array(sys_a.claims_csr) @ x), 1.0, rtol=1e-14)

    @pytest.mark.parametrize("n, lu_expected", [(12, True), (13, False)])
    def test_flop_rule_boundary(self, n, lu_expected, lu_sizes):
        # a cycle has one nonzero per column, so q = r = 0.5 and k = 54, one
        # sweep more from b: 55 * 12 = 660 > 12**3 / 3 = 576, but
        # 55 * 13 = 715 < 732.3
        cycle = scipy.sparse.csr_array(np.roll(np.eye(n), 1, axis=0))
        x = solve_attenuated(cycle, 0.5, np.ones(n), "cycle")
        assert lu_sizes == ([n] if lu_expected else [])
        np.testing.assert_allclose(x, 2.0, rtol=1e-15)

    def test_flop_rule_counts_the_block_only_when_the_rows_fail_it(
        self, ensemble, monkeypatch, seam, lu_sizes
    ):
        # over the partial rounds of the acceptance ensemble, the rule as the
        # solver applies it, on the stored entries of the rows R and on those
        # of C_FF only when R's fail it, picks the dense LU exactly when the
        # rule on C_FF's count alone does; LU by the rule is one product (its
        # right-hand side) and no sweep
        calls = []
        real = clearnet.clearing.solve_rows

        def recorded(R, free, r, b, p, context):
            entry, products, lus = p.copy(), len(seam.products), len(lu_sizes)
            real(R, free, r, b, p, context)
            took_lu = len(seam.products) - products == 1 and len(lu_sizes) > lus
            calls.append((R, free, r, b, entry, took_lu))

        monkeypatch.setattr(clearnet.clearing, "solve_rows", recorded)
        for i, system in enumerate(ensemble):
            shocked = partial_default_variant(system, seed=i)
            for r in (0.5, 0.9):
                cn.fictitious_default_sequence(shocked, cn.ClearingParams(r=r))
        sides = collections.Counter()
        for R, free, r, b, p, took_lu in calls:
            A = csr_array(R)
            c = abs(A).T @ np.abs(r)
            q, m = float(c[free].max()), len(free)
            p[free] = 0.0
            finite = math.isfinite(np.abs(b).sum() + c @ np.abs(p))
            sweeps = 1 + (1 if q == 0.0 else
                          math.ceil(math.log(EPS * (1.0 - q) / (1.0 + q)) / math.log(q)))
            by_rows = sweeps * A.nnz < m**3 / 3
            by_block = q < 1.0 and finite and sweeps * A[:, free].nnz < m**3 / 3
            assert took_lu is not by_block
            sides[by_rows, by_block] += 1
        # R's count decides, C_FF's count decides for the sweep, or for LU
        assert sides[True, True] and sides[False, True] and sides[False, False]

    def test_zero_attenuation_returns_the_right_hand_side(self, sys_a, monkeypatch):
        monkeypatch.setattr(clearnet._linalg, "lu_factor_checked", _no_lu)
        b = np.array([1.0, -2.0, 3.0])
        x = solve_attenuated(sys_a.claims_csr, 0.0, b, "r = 0")
        np.testing.assert_array_equal(x, b)
        assert x is not b


def reference_solve(C, r, b, jump=False) -> np.ndarray:
    """The solver written out plainly: ``q`` and the column weights ``c``
    from scipy's product ``abs(C).T @ |r|``; the sweep
    ``x <- b + r * (C @ x)`` with its count (the ``k`` sweeps from ``b``
    and one more, as in a round that starts from given payments), its
    exit at the rounding floor
    ``||y - x||_1 <= eps (||b||_1 + c . |x|)`` and, with ``jump``, its
    Aitken step once two ratios of successive steps agree; and otherwise
    the dense LU of ``I - diag(r) C``. Without ``jump`` it is the plain
    loop."""
    n = C.shape[0]
    r = np.broadcast_to(np.asarray(r, dtype=float), (n,))
    c = abs(C).T @ np.abs(r)
    q = float(c.max())
    if q < 1.0:
        bound = EPS * (1.0 - q) / (1.0 + q)
        sweeps = 1 + (1 if q == 0.0 else math.ceil(math.log(bound) / math.log(q)))
        if sweeps * C.nnz < n**3 / 3:
            x, prev, lam = b.copy(), None, None
            for _ in range(sweeps):
                y = b + r * (C @ x)
                d = y - x
                if np.abs(d).sum() <= EPS * (np.abs(b).sum() + c @ np.abs(x)):
                    return y
                x, lam_prev, lam = y, lam, None
                if prev is not None and prev @ prev > 0.0:
                    lam = (d @ prev) / (prev @ prev)
                    if (jump and lam_prev is not None and 0.0 < lam <= q
                            and abs(lam - lam_prev) <= RATIO_SETTLE * lam):
                        x, prev, lam = y + d * (lam / (1.0 - lam)), None, None
                        continue
                prev = d
    return scipy.linalg.solve(np.eye(n) - r[:, None] * C.toarray(), b)


def pinned_cases():
    """(C, r, b) triples: scalar and per-node rates, rates ``r - m`` with
    negative entries, both signs of ``b``, and small systems that take the
    dense LU. ``C`` is nonnegative, as the solver requires."""
    rng = np.random.default_rng(17)
    cases = []
    for seed, n_banks, density in ((1, 300, 0.03), (2, 300, 8 / 300), (3, 6, 0.5)):
        system = cn.generate_random_system(seed, n_banks, density)
        C, n = csr_array(system.claims_csr), system.node_count
        l = system.total_liabilities
        rates = (0.5, 0.9, rng.uniform(0.0, 0.95, n), 0.3 - 0.7,
                 rng.uniform(0.0, 0.9, n) - rng.uniform(0.0, 0.9, n))
        for r in rates:
            for b in (l, rng.uniform(-1.0, 1.0, n) * l):
                cases.append((C, r, b))
    return cases


class TestBitPins:
    """The solver's outputs, and the ``q`` that picks its path, are pinned
    bit for bit to the plainly written form above."""

    def test_q_from_the_stored_entries_matches_scipys_product(self):
        for C, r, _ in pinned_cases():
            r = np.broadcast_to(np.asarray(r, dtype=float), (C.shape[0],))
            assert column_weights(C, r).max() == (abs(C).T @ np.abs(r)).max()

    def test_solutions_match_the_reference_bit_for_bit(self):
        for C, r, b in pinned_cases():
            got = solve_attenuated(C, r, b, "pinned")
            np.testing.assert_array_equal(got, reference_solve(C, r, b, jump=True))

    def test_row_solve_over_every_row_is_the_square_solve(self, lu_sizes):
        # the square solve is the row solve with no entry held, started from
        # b, bit for bit, on the sweep and on the LU
        for C, r, b in pinned_cases():
            n = C.shape[0]
            r = np.broadcast_to(np.asarray(r, dtype=float), (n,))
            every = np.arange(n)
            p = b.copy()
            solve_rows(gather_rows(C, every), every, r, b, p, "rows")
            assert p.tobytes() == solve_attenuated(C, r, b, "square").tobytes()
        assert lu_sizes == [7] * 20   # the 7-node cases, each solved twice


class CountingCsr(scipy.sparse.csr_array):
    """A CSR array that counts its ``@`` products: one per sweep of
    :func:`reference_solve`. The solver's own products go through the seam
    of ``clearnet._linalg`` and are counted by the ``seam`` fixture."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


def two_cycles(pairs: int) -> scipy.sparse.csr_array:
    """Disjoint 2-cycles: the spectrum is ``+-sqrt(w w')`` per pair, so the
    sweep's error alternates in sign and its step ratio is negative."""
    w = np.random.default_rng(5).uniform(0.2, 1.0, size=(pairs, 2))
    return scipy.sparse.csr_array(
        scipy.sparse.block_diag([[[0.0, a], [c, 0.0]] for a, c in w]), dtype=float
    )


def cycle(n: int) -> scipy.sparse.csr_array:
    """One weighted n-cycle: its spectrum is spread evenly round a circle."""
    w = np.random.default_rng(6).uniform(0.5, 1.0, size=n)
    return scipy.sparse.csr_array(np.roll(np.diag(w), 1, axis=0))


def payment_chain(n_banks: int) -> scipy.sparse.csr_array:
    """Bank i owes only bank i + 1, the last bank the sink: a nilpotent C."""
    L = np.zeros((n_banks + 1, n_banks + 1))
    L[np.arange(n_banks), np.arange(1, n_banks + 1)] = np.arange(1.0, n_banks + 1)
    return csr_array(cn.build_system(L, np.ones(n_banks + 1)).claims_csr)


def rates(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(7)
    return {
        "scalar": np.full(n, 0.9),
        "per-node": rng.uniform(0.0, 0.95, n),
        "r - m": np.full(n, 0.3 - 0.7),
        "per-node r - m": rng.uniform(0.0, 0.9, n) - rng.uniform(0.0, 0.9, n),
    }[kind]


def right_hand_side(signs: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(8)
    return rng.uniform(-1.0 if signs == "mixed" else 0.1, 1.0, n)


def fraction_reference(C, r, b) -> list:
    """``(I - diag(r) C)^-1 b`` in exact arithmetic on the float inputs; a
    strictly lower triangular ``C`` is solved by forward substitution."""
    r = [Fraction(x) for x in r.tolist()]
    b = [Fraction(x) for x in b.tolist()]
    if scipy.sparse.triu(C).nnz == 0:
        x = []
        for i, row in enumerate(C.toarray().tolist()):
            x.append(b[i] + r[i] * sum(Fraction(c) * x[j] for j, c in enumerate(row[:i]) if c))
        return x
    A = [[int(i == j) - r[i] * Fraction(c) for j, c in enumerate(row)]
         for i, row in enumerate(C.toarray().tolist())]
    return fraction_solve(A, b)


class TestAcceleratedSweep:
    """The sweep with its Aitken jumps against exact and dense solves, its
    sweep count against the plain loop, and its exit at the rounding floor
    or, at the sweep cap, to the dense LU."""

    @pytest.mark.parametrize("signs", ["nonnegative", "mixed"])
    @pytest.mark.parametrize("kind", ["scalar", "per-node", "r - m", "per-node r - m"])
    @pytest.mark.parametrize("matrix", ["2-cycles", "cycle", "payment chain"])
    def test_matches_exact_arithmetic(self, matrix, kind, signs, monkeypatch):
        C = {"2-cycles": lambda: two_cycles(30), "cycle": lambda: cycle(40),
             "payment chain": lambda: payment_chain(300)}[matrix]()
        n = C.shape[0]
        r, b = rates(kind, n), right_hand_side(signs, n)
        monkeypatch.setattr(clearnet._linalg, "lu_factor_checked", _no_lu)
        x = solve_attenuated(C, r, b, matrix)
        exact = fraction_reference(C, r, b)
        gap = sum(abs(Fraction(got) - want) for got, want in zip(x.tolist(), exact))
        assert gap <= Fraction(1e-14) * sum(abs(want) for want in exact)

    def test_jumping_sweep_matches_exact_arithmetic(self, seam):
        # a 41-node network is small enough for an exact solve and large
        # enough to sweep; its Perron mode dominates, so the sweep jumps
        C = CountingCsr(csr_array(cn.generate_random_system(4, 40, 0.1).claims_csr))
        n = C.shape[0]
        r, b = np.full(n, 0.5), right_hand_side("mixed", n)
        seam.clear()
        x = solve_attenuated(C, r, b, "network")
        reference_solve(C, r, b)
        assert (len(seam.products), C.products) == (17, 19)
        exact = fraction_reference(C, r, b)
        gap = sum(abs(Fraction(got) - want) for got, want in zip(x.tolist(), exact))
        assert gap <= Fraction(1e-14) * sum(abs(want) for want in exact)

    @pytest.mark.parametrize("signs", ["nonnegative", "mixed"])
    @pytest.mark.parametrize("kind", ["scalar", "per-node", "r - m", "per-node r - m"])
    def test_network_matches_dense_lu(self, kind, signs, monkeypatch):
        C = cn.generate_random_system(3, 300, 0.03).claims_csr
        n = C.shape[0]
        r, b = rates(kind, n), right_hand_side(signs, n)
        want = scipy.linalg.solve(np.eye(n) - r[:, None] * C.toarray(), b)
        monkeypatch.setattr(clearnet._linalg, "lu_factor_checked", _no_lu)
        x = solve_attenuated(C, r, b, "network")
        assert np.abs(x - want).sum() <= 1e-14 * np.abs(want).sum()

    @pytest.mark.parametrize("exponent", [60, -60])
    def test_power_of_two_scaling_is_exact(self, exponent):
        # every sweep, step, ratio and jump scales exactly, so the solution
        # does too, bit for bit
        system = cn.generate_random_system(3, 300, 0.03)
        C, n = system.claims_csr, system.node_count
        for kind in ("scalar", "per-node r - m"):
            r, b = rates(kind, n), right_hand_side("mixed", n)
            x = solve_attenuated(C, r, b, "unscaled")
            scaled = solve_attenuated(C, r, np.ldexp(b, exponent), "scaled")
            np.testing.assert_array_equal(scaled, np.ldexp(x, exponent))

    @pytest.mark.parametrize("exponent", [520, -520])
    def test_steps_beyond_the_range_of_their_squares(self, exponent):
        # squared steps overflow or underflow here: the ratios fail, the
        # sweep goes on without jumps, and no floating-point warning escapes
        system = cn.generate_random_system(3, 300, 0.03)
        C, n = system.claims_csr, system.node_count
        r, b = rates("per-node", n), right_hand_side("mixed", n)
        want = scipy.linalg.solve(np.eye(n) - r[:, None] * C.toarray(), b)
        x = solve_attenuated(C, r, np.ldexp(b, exponent), "scaled")
        assert np.abs(np.ldexp(x, -exponent) - want).sum() <= 1e-14 * np.abs(want).sum()

    def test_fewer_sweeps_than_the_plain_loop(self, seam):
        system = cn.generate_random_system(3, 300, 0.03)
        C = CountingCsr(csr_array(system.claims_csr))
        b = cn.beta_vector(system, 0.9, 0.3)
        want = scipy.linalg.solve(np.eye(C.shape[0]) - 0.9 * C.toarray(), b)
        seam.clear()
        x = solve_attenuated(C, 0.9, b, "accelerated")
        plain = reference_solve(C, 0.9, b)
        # 23 sweeps against the plain loop's 32, both to the rounding floor;
        # a jump by half the Aitken step, or one taken before the ratio
        # settles, saves less
        assert (len(seam.products), C.products) == (23, 32)
        for got in (x, plain):
            assert np.abs(got - want).sum() <= 1e-14 * np.abs(want).sum()

    @pytest.mark.parametrize("r, sweeps", [(0.5, 15), (0.9, 23)])
    def test_sweeps_to_the_floor_on_a_network(self, r, sweeps, monkeypatch, seam):
        # waiting for a bit-for-bit repeat instead takes 19 and 28 sweeps
        system = cn.generate_random_system(3, 300, 0.03)
        C = system.claims_csr
        b = cn.beta_vector(system, r, 0.3)
        want = scipy.linalg.solve(np.eye(C.shape[0]) - r * C.toarray(), b)
        monkeypatch.setattr(clearnet._linalg, "lu_factor_checked", _no_lu)
        seam.clear()
        x = solve_attenuated(C, r, b, "network")
        assert len(seam.products) == sweeps
        assert np.abs(x - want).sum() <= 1e-15 * np.abs(want).sum()

    @pytest.mark.parametrize("r, floor", [pytest.param(0.7, 69, id="0.7"),
                                          pytest.param(0.9, 149, id="0.9")])
    def test_floor_comes_before_a_period_two_cycle(self, r, floor, monkeypatch, seam):
        # with a mixed-sign b the sweep on disjoint 2-cycles never jumps, and
        # without an exit its iterates fall into a period-2 floating-point
        # cycle, which a test for a bit-for-bit repeat never sees; its steps
        # reach the rounding floor sweeps before that
        C = two_cycles(30)
        n = C.shape[0]
        b = right_hand_side("mixed", n)
        monkeypatch.setattr(clearnet._linalg, "lu_factor_checked", _no_lu)
        x = solve_attenuated(C, r, b, "2-cycles")
        sweeps = len(seam.products)
        assert sweeps == floor
        np.testing.assert_array_equal(x, reference_solve(C, r, b))
        iterates = [b]
        while len(iterates) < 3 or not np.array_equal(iterates[-1], iterates[-3]):
            assert len(iterates) < 1000   # the cap is 369 at r = 0.9
            iterates.append(b + r * (C @ iterates[-1]))
        assert sweeps < len(iterates) - 1   # the sweep that first repeats
        want = scipy.linalg.solve(np.eye(n) - r * C.toarray(), b)
        assert np.abs(x - want).sum() <= 1e-14 * np.abs(want).sum()

    def test_period_two_cycle_after_a_jump(self, monkeypatch, seam):
        # with a nonnegative b an early jump lands the sweep on such a cycle
        C = two_cycles(30)
        n = C.shape[0]
        b = right_hand_side("nonnegative", n)
        want = scipy.linalg.solve(np.eye(n) - 0.9 * C.toarray(), b)
        monkeypatch.setattr(clearnet._linalg, "lu_factor_checked", _no_lu)
        x = solve_attenuated(C, 0.9, b, "2-cycles")
        assert len(seam.products) == 150   # under half the cap of 369 at r = 0.9
        assert np.abs(x - want).sum() <= 1e-14 * np.abs(want).sum()

    @pytest.mark.parametrize(
        "jitter, lu_expected, pattern",
        [
            pytest.param(1 / 8, False, (-1.0, 1.0, -2.0, 2.0), id="0.125-False"),
            pytest.param(8.0, True, (-1.0, 1.0, -2.0, 2.0), id="8.0-True"),
            pytest.param(1 / 8, False, (-1.0, 1.0), id="0.125-False-cycle"),
            pytest.param(8.0, True, (-1.0, 1.0), id="8.0-True-cycle"),
        ],
    )
    def test_sweep_cap_returns_a_certified_iterate_or_takes_lu(
        self, jitter, lu_expected, pattern, lu_sizes, seam
    ):
        # at r = 0.5 a jitter J of the products moves each step by at most
        # r |dJ| / (1 - q) = |dJ|, dJ the change of J between sweeps, at most
        # 4 J here: with J at 1/8 of the floor eps S the steps settle below
        # it and the sweep returns early. With J at 8 times the floor (on
        # this network J at the floor already does it) no step reaches it,
        # and the period-2 pattern keeps each step above
        # 2 r J / (1 + q) = 2 J / 3: the sweeps run to the cap and the dense
        # LU takes over. The jitter puts each product off in entry 0 by J
        # times the next factor of the pattern, taken in turn, so that every
        # step is at least about as large as J; an alternating sign alone
        # leads the iterates into a period-2 cycle, a pattern of period 4 not
        system = cn.generate_random_system(3, 300, 0.03)
        C, n = csr_array(system.claims_csr), system.node_count
        b = system.total_liabilities
        want = scipy.linalg.solve(np.eye(n) - 0.5 * C.toarray(), b)
        c = abs(C).T @ np.full(n, 0.5)
        q = c.max()
        cap = math.ceil(math.log(EPS * (1.0 - q) / (1.0 + q)) / math.log(q))
        lu_sizes.clear()
        J = jitter * EPS * (np.abs(b).sum() + c @ np.abs(want))

        def jittered(y, k):
            if seam.products[-1][1].any():   # a sweep, not the LU's right-hand side
                y[0] += J * pattern[(k - 1) % len(pattern)]

        seam.clear()
        seam.jitter = jittered
        x = solve_attenuated(C, 0.5, b, "jittered")
        if lu_expected:
            # the cap and one sweep more, since the sweep starts from x = b
            # and not from zero, then the LU's right-hand side: one product
            # with every unknown at zero
            assert cap + 2 == len(seam.products) == 56
            assert not seam.products[-1][1].any()
            assert lu_sizes == [n]
            np.testing.assert_array_equal(x, want)
        else:
            assert len(seam.products) == 15   # under half the cap
            assert lu_sizes == []
            assert np.abs(x - want).sum() <= 2 * EPS * np.abs(want).sum()


class TestColumnSums:
    """The column sums ``1^T C`` are formed once per system, at build time.
    A full-default clear and a Katz solve on the same ``C`` then read it
    four times outside their sweeps: the clear's one product, and the Katz
    call's sign scan, one column pass and its defect product."""

    @staticmethod
    def full_shock_op(system, r=0.9, m=0.5):
        shocked = cn.shocked_system(system, cn.full_default_shock(system, m))
        beta = cn.beta_vector(system, r, m)
        return (lambda: cn.fictitious_default_sequence(shocked, cn.ClearingParams(r=r)),
                lambda: cn.generalized_katz(system.claims_csr, r, beta, m=m))

    def test_column_passes_and_products_per_full_shock_op(self, monkeypatch, seam):
        system = cn.generate_random_system(seed=3, n_banks=300, density=0.03)
        C = system.claims_csr
        in_solves = []

        def counted(A, *args, **kwargs):
            before = len(seam.products)
            out = solve_attenuated(A, *args, **kwargs)
            in_solves.append(len(seam.products) - before)
            return out

        for module in (clearnet.clearing, clearnet.centrality):
            monkeypatch.setattr(module, "solve_attenuated", counted)
        clear, katz = self.full_shock_op(system)
        for step, want_sweeps, want_passes, want_products in ((clear, 23, 0, 1),
                                                              (katz, 23, 1, 1)):
            in_solves.clear()
            seam.clear()
            step()
            assert in_solves == [want_sweeps]   # one solve, by sweeps
            assert len(seam.column_products) == want_passes
            assert len(seam.products) - in_solves[0] == want_products
            # every product reads the stored values of C in place
            assert all(np.shares_memory(A.data, C.data)
                       for A, _ in seam.column_products + seam.products)

    def test_full_shock_op_copies_nothing_of_the_size_of_c(self, monkeypatch):
        # 9.4k stored entries: a copy of C.data alone is 75 kB, while the
        # solves' vectors of 301 entries take about 30 kB at their peak; a
        # per-node rate, which makes its own column pass, is held to the same
        # bound
        system = cn.generate_random_system(seed=3, n_banks=300, density=0.1)
        n = system.node_count
        r = np.random.default_rng(3).uniform(0.5, 0.9, n)
        beta = cn.beta_vector(system, r, 0.5)
        per_node = lambda: cn.generalized_katz(system.claims_csr, r, beta, m=0.5)
        for step in (*self.full_shock_op(system), per_node):
            step()   # warm every import and cache up first
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                step()
                peak = tracemalloc.get_traced_memory()[1] - base
            finally:
                tracemalloc.stop()
            assert peak < 8 * len(system.claims_csr.data)

        # a partial-default clear: each round's solve on its rows R of C
        # allocates less than one copy of R's stored entries
        rounds = []   # (peak of one solve, bytes of R.data)

        def measured(R, *args):
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            solve_rows(R, *args)
            rounds.append((tracemalloc.get_traced_memory()[1] - base, R.data.nbytes))

        monkeypatch.setattr(clearnet.clearing, "solve_rows", measured)
        a = system.external_assets.copy()
        a[:n // 2] = 0.0   # half the banks lose every asset
        shocked = system.with_external_assets(a)
        clear = lambda: cn.fictitious_default_sequence(shocked, cn.ClearingParams(r=0.9))
        clear()
        rounds.clear()
        tracemalloc.start()
        try:
            clear()
        finally:
            tracemalloc.stop()
        assert len(rounds) > 1
        for peak, size in rounds:
            assert 0 < size < system.claims_csr.data.nbytes   # a strict part of C
            assert peak < size

    def test_uniform_weights_from_the_sums_agree_with_a_pass(self, ensemble):
        # both round the exact column weights by at most (K + 1) eps relative,
        # K the column's stored entries (Higham 3.1)
        for system in ensemble:
            C, n = system.claims_csr, system.node_count
            K = np.bincount(C.indices, minlength=n)
            for r in (0.1, 0.5, 0.9, 1.0, 0.3 - 0.7):
                from_sums = abs(r) * system.claims_column_sums
                by_pass = column_weights(C, np.full(n, r))
                assert np.all(np.abs(from_sums - by_pass) <= 2 * (K + 1) * EPS * by_pass)

    def test_zero_rate_with_an_overflowing_column_sum(self):
        # 0 * inf would make q nan: a zero rate takes its own pass, as before
        C = scipy.sparse.csr_array(np.array([[0, 1e308, 0], [0, 0, 0], [0, 1e308, 0.0]]))
        b = np.ones(3)
        sums = C.T @ b
        assert np.isinf(sums[1])
        np.testing.assert_array_equal(solve_attenuated(C, 0.0, b, "r = 0", sums=sums), b)
        np.testing.assert_array_equal(cn.generalized_katz(C, 0.0, b).sigma, [1.0, 1.0, 0.0])

    def test_solve_with_the_sums_matches_its_own_pass(self, ensemble, monkeypatch):
        # the plain reference's answer to 1e-13 in relative 1-norm, on every
        # whole-C solve tried, and without a column pass
        monkeypatch.setattr(clearnet._linalg, "column_weights", None)
        for system in ensemble[::10] + [cn.generate_random_system(3, 300, 0.03)]:
            C, n = csr_array(system.claims_csr), system.node_count
            b = np.random.default_rng(n).uniform(0.0, 1.0, n)
            for r in (0.5, 0.9, 0.3 - 0.7):
                got = solve_attenuated(C, r, b, "sums", sums=system.claims_column_sums)
                want = reference_solve(C, r, b)
                assert np.abs(got - want).sum() <= 1e-13 * np.abs(want).sum()


class TookLU(Exception):
    """The solve left the sweep for the dense LU."""


def _took_lu(A, context):
    raise TookLU(context)


@settings(max_examples=60, deadline=None)
@given(
    matrix=st.sampled_from(["2-cycles", "cycle", "payment chain", "network"]),
    size=st.integers(2, 40),
    seed=st.integers(0, 2**16),
    density=st.floats(0.05, 0.15),
    kind=st.sampled_from(["scalar", "per-node", "r - m", "per-node r - m"]),
    r_max=st.floats(0.05, 0.95),
    mixed_sign=st.booleans(),
)
def test_sweep_is_within_its_rounding_bound_of_exact_arithmetic(
    matrix, size, seed, density, kind, r_max, mixed_sign
):
    # the returned y is within (q eps + gamma_{K+2}) S / (1 - q) of the
    # solution, S = ||b||_1 + c . |x| at the sweep's input x; S at y itself
    # differs by a factor of at most 1 + q eps, inside the margin of 2
    C = {"2-cycles": lambda: two_cycles(size),
         "cycle": lambda: cycle(size),
         "payment chain": lambda: payment_chain(size),
         "network": lambda: csr_array(
             cn.generate_random_system(seed, size, density).claims_csr)}[matrix]()
    n = C.shape[0]
    rng = np.random.default_rng(seed)
    r = {"scalar": np.full(n, r_max),
         "per-node": rng.uniform(0.0, r_max, n),
         "r - m": np.full(n, r_max - rng.uniform(0.0, 1.0)),
         "per-node r - m": rng.uniform(0.0, r_max, n) - rng.uniform(0.0, r_max, n)}[kind]
    b = rng.uniform(-1.0 if mixed_sign else 0.1, 1.0, n)
    with unittest.mock.patch.object(clearnet._linalg, "lu_factor_checked", _took_lu):
        try:
            x = solve_attenuated(C, r, b, matrix)
        except TookLU:
            reject()   # q >= 1, or cheaper by LU: no sweep to check
    exact = fraction_reference(C, r, b)
    gap = sum(abs(Fraction(got) - want) for got, want in zip(x.tolist(), exact))
    c = abs(C).T @ np.abs(r)
    q = Fraction(c.max())
    u = Fraction(EPS) / 2
    k = int(np.diff(C.indptr).max()) + 2
    gamma = k * u / (1 - k * u)
    S = Fraction(np.abs(b).sum()) + sum(Fraction(w) * abs(Fraction(v))
                                         for w, v in zip(c.tolist(), x.tolist()))
    assert gap <= 2 * gamma * S / (1 - q)


def test_import_loads_no_dense_linear_algebra():
    # scipy.sparse may load scipy.linalg itself in some scipy versions, so
    # only what importing clearnet adds on top of it counts
    script = (
        "import sys, scipy.sparse\n"
        "before = 'scipy.linalg' in sys.modules\n"
        "import clearnet as cn\n"
        "print(before, 'scipy.linalg' in sys.modules)\n"
        "x = cn.solve_given_defaults(\n"
        "    cn.build_system([[0, 1, 1], [2, 0, 1], [0, 0, 0]], [1, 1, 1]),\n"
        "    cn.ClearingParams(r=1.0), cn.DefaultIndicator(flags=[True, True, True]))\n"
        "print('scipy.linalg' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    before, after_import, after_lu = out
    if before == "False":
        assert after_import == "False"
    assert after_lu == "True"  # the 3-node solve took the dense LU


def test_sweep_path_loads_no_sparse_linear_algebra():
    # the full-default clear and its Katz vector sweep, a clear of several
    # partial-default rounds at r = 0.9, one whose first round leaves only
    # three banks in default, where the flop rule counts the block's entries
    # and not its rows', and a 2000-bank network at density 8/2000 with 10
    # banks keeping U(0, 0.3) of their assets, cleared at r = 0.5 and 0.9 (the
    # contagion-clear benchmark's warm-up op at seed 1); scipy.sparse.linalg
    # would add its own import time to every command, and scipy.linalg about
    # 7 MB of memory and the time of its import
    script = (
        "import sys\n"
        "import clearnet as cn\n"
        "system = cn.generate_random_system(3, 300, 0.03)\n"
        "scenario = cn.full_default_shock(system, 0.5)\n"
        "cn.fictitious_default_sequence(cn.shocked_system(system, scenario),\n"
        "                               cn.ClearingParams(r=0.8))\n"
        "cn.generalized_katz(system.claims_csr, 0.8, cn.beta_vector(system, 0.8, 0.5))\n"
        "a = system.external_assets.copy()\n"
        "a[:150] = 0.0\n"
        "partial = cn.fictitious_default_sequence(system.with_external_assets(a),\n"
        "                                         cn.ClearingParams(r=0.9))\n"
        "print(partial.iterations > 1, partial.defaults.count < system.node_count)\n"
        "a = system.external_assets.copy()\n"
        "a[:3] = 0.0\n"
        "small = cn.fictitious_default_sequence(system.with_external_assets(a),\n"
        "                                       cn.ClearingParams(r=0.5))\n"
        "print(small.default_history[0].count == 4)\n"
        "import numpy as np\n"
        "seed = int(np.random.SeedSequence([1, 0]).generate_state(1)[0])\n"
        "big = cn.generate_random_system(seed, 2000, 8 / 2000)\n"
        "rng = np.random.default_rng([1, 1, 0])\n"
        "hit = rng.choice(2000, size=10, replace=False)\n"
        "a = big.external_assets.copy()\n"
        "a[hit] *= rng.uniform(0.0, 0.3, size=10)\n"
        "for r in (0.5, 0.9):\n"
        "    cn.fictitious_default_sequence(big.with_external_assets(a), cn.ClearingParams(r=r))\n"
        "print('scipy.sparse.linalg' in sys.modules, 'scipy.linalg' in sys.modules)\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == ["True", "True", "True", "False", "False"]


def _run_script(script: str, *args: str) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", script, *args], env=env, check=True,
                          capture_output=True, text=True).stdout.split()


def test_clear_katz_spectral_and_reports_import_no_scipy_module(tmp_path):
    # the kernels are loaded from scipy's extension file, not through
    # scipy/__init__ and scipy/sparse/__init__, which load hundreds of
    # modules the package never uses, and the public matrices are the
    # stored Csr, so reading them imports nothing either. In a fresh
    # process, since the test process has imported scipy.sparse itself
    script = (
        "import contextlib, io, sys\n"
        "def step(name):\n"
        "    loaded = [m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')]\n"
        "    print(name, 'scipy-free' if not loaded else loaded)\n"
        "import clearnet as cn\n"
        "step('import')\n"
        "system = cn.generate_random_system(3, 300, 0.03)\n"
        "step('generate')\n"
        "scenario = cn.full_default_shock(system, 0.5)\n"
        "full = cn.fictitious_default_sequence(cn.shocked_system(system, scenario),\n"
        "                                      cn.ClearingParams(r=0.8))\n"
        "cn.generalized_katz(system.claims_csr, 0.8, cn.beta_vector(system, 0.8, 0.5), m=0.5)\n"
        "step(f'full-default-{full.iterations}-round-and-katz')\n"
        "a = system.external_assets.copy()\n"
        "a[:10] = 0.0\n"
        "partial = cn.fictitious_default_sequence(system.with_external_assets(a),\n"
        "                                         cn.ClearingParams(r=0.9))\n"
        "cn.check_invertibility(system.claims_csr, 0.9)\n"
        "step(f'partial-{partial.iterations}-rounds-and-invertibility')\n"
        "chain = [[0.0] * 41 for _ in range(41)]\n"   # 40 banks, each owing the next
        "for i in range(40):\n"
        "    chain[i][i + 1] = 1.0\n"
        "chain = cn.build_system(chain, [1.0] * 41)\n"
        "step(f'katz-reduction-{cn.verify_katz_reduction(chain, 0.5)}')\n"
        "doc = sys.argv[1]\n"
        "commands = [['gen', '--seed', '1', '--n', '400', '--density', '0.02', '--out', doc],\n"
        "            ['clear', '--r', '0.8'],\n"
        "            ['shock', '--kind', 'full', '--m', '0.5', '--r', '0.8'],\n"
        "            ['shock', '--kind', 'relaxed', '--r', '0.8'],\n"
        "            ['verify', '--r', '0.8', '--m', '0.5'],\n"
        "            ['katz', '--r', '0.8', '--m', '0.5'], ['spectral', '--r', '1.0']]\n"
        "for argv in commands:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):\n"
        "        code = cn.cli_main(argv if argv[0] == 'gen' else argv + ['--input', doc])\n"
        "    name = argv[0] if argv[0] != 'shock' else 'shock-' + argv[2]\n"
        "    step(f'{name}-{code}')\n"
        "matrix = cn.relative_claims(system).matrix\n"
        "system.claims_csr, system.liabilities_csr\n"
        "step(f'matrices-{matrix is system.claims_csr}')\n"
    )
    out = _run_script(script, str(tmp_path / "gen.json"))
    assert out == [
        "import", "scipy-free", "generate", "scipy-free",
        "full-default-1-round-and-katz", "scipy-free",
        "partial-3-rounds-and-invertibility", "scipy-free",
        "katz-reduction-True", "scipy-free",
        "gen-0", "scipy-free", "clear-0", "scipy-free", "shock-full-0", "scipy-free",
        "shock-relaxed-0", "scipy-free", "verify-0", "scipy-free", "katz-0", "scipy-free",
        "spectral-0", "scipy-free", "matrices-True", "scipy-free",
    ]


def test_kernels_loaded_by_path_match_scipys_products_beside_its_own_copy():
    # importing scipy.sparse after clearnet loads the extension a second
    # time; the products of the package's copy equal C @ x and C.T @ x both
    # before and after that import, bit for bit, and so does the transpose
    # that built C
    script = (
        "import sys\n"
        "import numpy as np\n"
        "import clearnet as cn\n"
        "from clearnet import _linalg\n"
        "system = cn.generate_random_system(4, 500, 0.02)\n"
        "x = np.random.default_rng(4).uniform(-1.0, 1.0, system.node_count)\n"
        "C = system.claims_csr\n"
        "before = [_linalg.matvec(C, x), _linalg.rmatvec(C, x)]\n"
        "print('scipy.sparse' in sys.modules)\n"
        "import scipy.sparse\n"
        "from scipy.sparse import _sparsetools\n"
        "print(_sparsetools.csr_matvec is _linalg.csr_matvec)\n"
        "after = [_linalg.matvec(C, x), _linalg.rmatvec(C, x)]\n"
        "S = scipy.sparse.csr_array((C.data, C.indices, C.indptr), shape=C.shape)\n"
        "want = [S @ x, S.T @ x]\n"
        "print(all(a.tobytes() == w.tobytes() for a, w in zip(before + after, want + want)))\n"
        "L = system.liabilities_csr\n"
        "rows = np.repeat(np.arange(L.shape[0]), np.diff(L.indptr))\n"
        "l = system.total_liabilities\n"
        "T = scipy.sparse.csr_array((L.data / l[rows], L.indices, L.indptr), shape=L.shape)\n"
        "T = T.T.tocsr()\n"
        "print(all(getattr(T, p).tobytes() == getattr(C, p).tobytes()\n"
        "          for p in ('indptr', 'indices', 'data')))\n"
    )
    assert _run_script(script) == ["False", "False", "True", "True"]


class TestAsCsr:
    def test_dense_round_trip(self, ensemble):
        for system in ensemble[:20]:
            C = system.claims_csr.toarray()
            np.testing.assert_array_equal(as_csr(C).toarray(), C)

    def test_empty_and_zero_matrices(self):
        assert as_csr(np.zeros((0, 0))).shape == (0, 0)
        assert len(as_csr(np.zeros((3, 3))).data) == 0

    def test_non_contiguous_input(self):
        M = np.arange(36.0).reshape(6, 6)
        np.testing.assert_array_equal(as_csr(M[1:5, 1:5]).toarray(), M[1:5, 1:5])
        np.testing.assert_array_equal(as_csr(M.T).toarray(), M.T)

    def test_rejects_vectors(self):
        with pytest.raises(ValueError):
            as_csr(np.ones(3))


@settings(max_examples=300, deadline=None)
@given(
    data=st.data(),
    m=st.integers(0, 7),
    n=st.integers(0, 7),
    index_dtype=st.sampled_from([np.int32, np.int64]),
    read_only=st.booleans(),
)
def test_seam_matches_scipys_products_and_row_gather(data, m, n, index_dtype, read_only):
    # matvec and rmatvec against scipy's A @ x and A.T @ x, and gather_rows
    # against C[idx], bit for bit: on either index type, on read-only arrays,
    # on rows without entries, on the 0 x 0 matrix and on no row or every row
    entry = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))
    dense = data.draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=m, max_size=m))
    A = scipy.sparse.csr_array(np.array(dense, dtype=float).reshape(m, n))
    A.indptr, A.indices = A.indptr.astype(index_dtype), A.indices.astype(index_dtype)
    x = np.array(data.draw(st.lists(entry, min_size=n, max_size=n)), dtype=float)
    y = np.array(data.draw(st.lists(entry, min_size=m, max_size=m)), dtype=float)
    rows = st.lists(st.integers(0, m - 1), max_size=2 * m) if m else st.just([])
    idx = np.array(data.draw(st.one_of(st.just(list(range(m))), rows)), dtype=np.intp)
    if read_only:
        for part in (A.indptr, A.indices, A.data, x, y, idx):
            part.setflags(write=False)
    assert matvec(A, x).tobytes() == (A @ x).tobytes()
    assert rmatvec(A, y).tobytes() == (A.T @ y).tobytes()
    R, want = gather_rows(A, idx), A[idx]
    assert R.shape == want.shape
    for got, expected in zip(R[:3], (want.indptr, want.indices, want.data)):
        np.testing.assert_array_equal(got, expected)
    assert R.indices.dtype == A.indices.dtype == R.indptr.dtype   # no conversion per product
    assert matvec(R, x).tobytes() == (want @ x).tobytes()
    assert rmatvec(R, y[idx]).tobytes() == (want.T @ y[idx]).tobytes()


def test_seam_rejects_a_vector_of_the_wrong_shape(sys_a):
    # the kernels read the vector without a bounds check, so the seam checks
    A = scipy.sparse.csr_array(np.ones((2, 3)))
    for bad in (np.ones(2), np.ones(4), np.ones((3, 1))):
        with pytest.raises(ValueError, match="dimension mismatch"):
            matvec(A, bad)
    with pytest.raises(ValueError, match="dimension mismatch"):
        rmatvec(A, np.ones(3))
    with pytest.raises(ValueError, match="dimension mismatch"):
        cn.apply_clearing_map(sys_a, cn.ClearingParams(r=0.5), np.ones(2))
