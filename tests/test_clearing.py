import math
import unittest.mock
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import clearnet as cn
import clearnet._linalg
import clearnet.clearing
import clearnet.net_model
from clearnet._linalg import EPS, solve_attenuated
from conftest import csr_array, exact_frozen_payments, partial_default_variant

# independently frozen via the fixed-point oracle (see picard tests below)
SYS_A_FULL_DEFAULT_P = (4.63810316, 4.74209651)

# Two banks owing each other and the sink 1e14 each, with assets of 1: at
# r = 0.5 both default and pay exactly 4/3, fourteen orders of magnitude
# below their liabilities.
TINY_PAYMENTS_L = [[0, 1e14, 1e14], [1e14, 0, 1e14], [0, 0, 0]]


def frozen_map(system, params, defaults, f):
    """Clearing map with the default set frozen (for consistency checks)."""
    l = system.total_liabilities
    C = csr_array(system.claims_csr)
    d = defaults.flags
    r = params.recovery_vector(system.node_count)
    mixed = np.where(d, f, l)
    return np.where(d, r * (C @ mixed) + params.r_a * system.external_assets, l)


class TestApplyClearingMap:
    def test_full_payment_is_fixed_point_without_defaults(self, sys_a):
        params = cn.ClearingParams(r=0.8)
        l = sys_a.total_liabilities
        f = cn.apply_clearing_map(sys_a, params, l)
        np.testing.assert_array_equal(f[sys_a.banks], l[sys_a.banks])

    def test_defaulted_bank_without_claims_pays_external_assets(self, sys_0):
        params = cn.ClearingParams(r=0.5, r_a=1.0)
        l = sys_0.total_liabilities
        f = cn.apply_clearing_map(sys_0, params, l)
        assert f[0] == 10.0           # solvent, pays in full
        assert f[1] == 4.0            # defaulted, no interbank claims: r_a * a
        assert f[2] == 0.5 * 18 + 1.0  # sink formula value, ignored downstream

    def test_zero_liability_network_pays_nothing(self):
        system = cn.build_system(np.zeros((3, 3)), [2.0, 3.0, 1.0])
        params = cn.ClearingParams(r=0.7)
        f = cn.apply_clearing_map(system, params, np.zeros(3))
        np.testing.assert_array_equal(f[system.banks], [0, 0])


class TestSolveGivenDefaults:
    def test_sink_only_default_returns_full_payment_on_banks(self, sys_a):
        params = cn.ClearingParams(r=0.8)
        l = sys_a.total_liabilities
        defaults = cn.default_indicator(sys_a, l)
        p = cn.solve_given_defaults(sys_a, params, defaults)
        np.testing.assert_array_equal(p[sys_a.banks], l[sys_a.banks])

    def test_sys_a_all_defaulted(self, sys_a):
        shocked = sys_a.with_external_assets([3.5, 4.0, 1.0])
        params = cn.ClearingParams(r=0.8, r_a=1.0)
        defaults = cn.fundamental_defaults(shocked)
        assert defaults.count == 3
        p = cn.solve_given_defaults(shocked, params, defaults)
        np.testing.assert_allclose(p[:2], (4.63810, 4.74210), atol=1e-4)
        np.testing.assert_allclose(p[:2], SYS_A_FULL_DEFAULT_P, atol=1e-6)

    def test_sys_0_reduced_block(self, sys_0):
        params = cn.ClearingParams(r=0.5, r_a=1.0)
        defaults = cn.fundamental_defaults(sys_0)
        p = cn.solve_given_defaults(sys_0, params, defaults)
        oracle = cn.picard_clearing_oracle(sys_0, params)
        np.testing.assert_allclose(p[:2], [10.0, 4.0], atol=1e-12)
        np.testing.assert_allclose(p[:2], oracle[:2], atol=1e-10)

    def test_consistent_with_frozen_map_on_random_default_sets(self, ensemble):
        rng = np.random.default_rng(11)
        l_scale = 0.0
        for system in ensemble[:15]:
            params = cn.ClearingParams(r=rng.uniform(0.1, 1.0))
            flags = rng.random(system.node_count) < 0.5
            flags[system.sink] = True
            defaults = cn.DefaultIndicator(flags=flags)
            f = cn.solve_given_defaults(system, params, defaults)
            again = frozen_map(system, params, defaults, f)
            l_scale = max(1.0, system.total_liabilities.max())
            assert np.abs(again - f).max() <= 1e-10 * l_scale

    def test_every_node_flagged_equals_the_explicit_block_solve(self, ensemble):
        systems = ensemble[:20] + [cn.generate_random_system(4, 300, 0.03)]
        rng = np.random.default_rng(5)
        for system in systems:
            n = system.node_count
            shocked = cn.shocked_system(system, cn.full_default_shock(system, 0.4))
            everyone = cn.DefaultIndicator(flags=np.ones(n, dtype=bool))
            for r in (0.5, 0.9, rng.uniform(0.0, 1.0, n)):
                params = cn.ClearingParams(r=r, r_a=0.7)
                r_vec = params.recovery_vector(n)
                idx = np.arange(n)
                C = csr_array(system.claims_csr)
                b = r_vec * (C @ np.zeros(n)) + 0.7 * shocked.external_assets
                want = solve_attenuated(C[idx][:, idx], r_vec[idx], b[idx], "block")
                got = cn.solve_given_defaults(shocked, params, everyone)
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("r", [0.0, 0.5])
    @pytest.mark.parametrize("n_banks", [3, 300])
    def test_negative_zero_asset_pays_positive_zero(self, n_banks, r):
        # bank 0 is owed nothing and holds -0.0; at r = 0 the sweep returns
        # its right-hand side as is, at r = 0.5 the 4-node block takes the LU
        if n_banks == 3:
            L = np.array([[0, 2, 3, 1], [0, 0, 1, 4], [0, 2, 0, 3], [0, 0, 0, 0]], float)
        else:
            L = cn.generate_random_system(4, n_banks, 0.03).liabilities.copy()
            L[:, 0] = 0.0
        a = np.full(n_banks + 1, 0.25)
        a[0], a[-1] = -0.0, 1.0
        system = cn.build_system(L, np.ones(n_banks + 1)).with_external_assets(a)
        params = cn.ClearingParams(r=r, r_a=0.7)
        everyone = cn.DefaultIndicator(flags=np.ones(n_banks + 1, dtype=bool))
        r_vec = params.recovery_vector(n_banks + 1)
        b = r_vec * (csr_array(system.claims_csr) @ np.zeros(n_banks + 1)) + 0.7 * a
        want = solve_attenuated(system.claims_csr, r_vec, b, "block")
        got = cn.solve_given_defaults(system, params, everyone)
        assert got.tobytes() == want.tobytes()
        solution = cn.fictitious_default_sequence(system, params)
        assert solution.defaults == everyone
        assert not np.signbit(solution.payments).any()
        # a partial round, with the last bank solvent: the rows sweep, except
        # on 3 banks at r = 0.5, where the 2-bank block takes the LU
        partial = everyone.flags.copy()
        partial[n_banks - 1] = False
        p = cn.solve_given_defaults(system, params, cn.DefaultIndicator(flags=partial))
        assert p[0] == 0.0 and not np.signbit(p).any()

    @pytest.mark.parametrize("flags", [[True, True], [True, False], [True] * 4])
    def test_flags_of_the_wrong_length_raise(self, sys_a, flags):
        # one flag per node: two or four flags on this 3-node system were
        # solved as if they fitted, and [True, False] raised an IndexError
        defaults = cn.DefaultIndicator(flags=np.array(flags))
        with pytest.raises(cn.DimensionMismatch):
            cn.solve_given_defaults(sys_a, cn.ClearingParams(r=0.5), defaults)

    @pytest.mark.parametrize("length", [2, 4])
    @pytest.mark.parametrize("flags", [[True, False, True], [True, True, True]])
    def test_start_of_the_wrong_length_raises(self, sys_a, length, flags):
        # one start entry per node, read or not: a partial set raised numpy's
        # broadcast error, and the full set ignored the start unchecked
        defaults = cn.DefaultIndicator(flags=np.array(flags))
        with pytest.raises(cn.DimensionMismatch):
            cn.solve_given_defaults(sys_a, cn.ClearingParams(r=0.5), defaults,
                                    start=np.ones(length))

    def test_singular_reduced_system(self):
        # two banks owing only each other, full recovery: I - C is singular
        system = cn.build_system([[0, 5, 0], [5, 0, 0], [0, 0, 0]], [1.0, 1.0, 1.0])
        defaults = cn.DefaultIndicator(flags=np.array([True, True, True]))
        with pytest.raises(cn.SingularSystem):
            cn.solve_given_defaults(system, cn.ClearingParams(r=1.0), defaults)


@pytest.fixture
def gathered(monkeypatch) -> list:
    """The rows each ``gather_rows`` of the clear returns, in call order."""
    out = []
    real = clearnet.clearing.gather_rows

    def recorded(C, idx):
        out.append(real(C, idx))
        return out[-1]

    monkeypatch.setattr(clearnet.clearing, "gather_rows", recorded)
    return out


class TestDefaultedRows:
    """A partial-default round sweeps on the defaulted banks' rows of ``C``
    in place on the payment vector, with the solvent entries held at ``l``."""

    @staticmethod
    def half_defaulted(r=0.9):
        system = cn.generate_random_system(seed=3, n_banks=300, density=0.03)
        a = system.external_assets.copy()
        a[:150] = 0.0
        shocked = system.with_external_assets(a)
        params = cn.ClearingParams(r=r, r_a=0.7)
        return shocked, params, cn.fundamental_defaults(shocked)

    def test_one_row_gather_and_one_product_per_sweep(self, seam, gathered):
        shocked, params, defaults = self.half_defaulted()
        flags = defaults.flags
        assert 1 < defaults.count < shocked.node_count
        seam.clear()
        p = cn.solve_given_defaults(shocked, params, defaults)
        (R,) = gathered
        free = np.flatnonzero(flags[shocked.banks])
        assert R.shape == (free.size, shocked.node_count)
        # every product is with R: one column pass for the weights, then one
        # product per sweep, each of a new iterate with the solvent entries
        # at l; the last product gives the output
        assert [A is R for A, _ in seam.column_products + seam.products] == [True] * 20
        arguments = [x for _, x in seam.products]
        assert len(arguments) == 19
        l = shocked.total_liabilities
        for before, after in zip(arguments, arguments[1:]):
            assert not np.array_equal(before[free], after[free])
            np.testing.assert_array_equal(after[~flags], l[~flags])
        r = params.recovery_vector(shocked.node_count)[free]
        C = csr_array(shocked.claims_csr)
        y = r * (C[free] @ arguments[-1]) + 0.7 * shocked.external_assets[free]
        assert y.tobytes() == p[free].tobytes()

    def test_matches_the_square_block_solve(self):
        # the same payments as the explicit solve of the square block with
        # the solvent nodes' term on the right, within rounding
        shocked, params, defaults = self.half_defaulted()
        flags = defaults.flags
        C, l = csr_array(shocked.claims_csr), shocked.total_liabilities
        r = params.recovery_vector(shocked.node_count)
        idx = np.flatnonzero(flags)
        b = (r * (C @ np.where(flags, 0.0, l)) + 0.7 * shocked.external_assets)[idx]
        want = solve_attenuated(C[idx][:, idx], r[idx], b, "block")
        got = cn.solve_given_defaults(shocked, params, defaults)
        assert np.abs(got[idx] - want).sum() <= 1e-14 * np.abs(want).sum()
        np.testing.assert_array_equal(got[~flags], l[~flags])

    def test_zero_rate_takes_two_sweeps_and_no_lu(self, monkeypatch, seam, gathered):
        # at r = 0 the payments are r_a a_D: the start l is one sweep from
        # them, and the next sweep's step is zero
        shocked, params, defaults = self.half_defaulted(r=0.0)
        monkeypatch.setattr(clearnet._linalg, "lu_factor_checked", _took_lu)
        seam.clear()
        p = cn.solve_given_defaults(shocked, params, defaults)
        (R,) = gathered
        assert [A is R for A, _ in seam.products] == [True, True]
        free = np.flatnonzero(defaults.flags[shocked.banks])
        np.testing.assert_array_equal(p[free], 0.7 * shocked.external_assets[free])

    def test_later_rounds_start_from_the_last_rounds_payments(self, monkeypatch):
        shocked, params, _ = self.half_defaulted()
        calls = []   # (start, payments returned)
        real = cn.solve_given_defaults

        def recorded(*args, start=None):
            p = real(*args, start=start)
            calls.append((start, p))
            return p

        monkeypatch.setattr(clearnet.clearing, "solve_given_defaults", recorded)
        solution = cn.fictitious_default_sequence(shocked, params)
        assert solution.iterations == len(calls) > 1
        assert calls[0][0] is None   # round 1 starts from l
        for (_, before), (start, _) in zip(calls, calls[1:]):
            assert start is before


class TestCascadeOnTheSeam:
    """A partial-default clear forms every product through the seam of
    ``clearnet._linalg`` on the arrays of ``C`` and of its gathered rows,
    and builds no sparse array unless a round takes the dense LU."""

    def test_products_per_pass_of_a_2000_bank_cascade(self, seam):
        # the 16 partial shocks of the contagion-clear benchmark at seed 1:
        # 480 sweeps on the defaulted rows plus one default test per round,
        # the last round's residual reusing its test's product; one column
        # pass per round
        derived = int(np.random.SeedSequence([1, 0]).generate_state(1)[0])
        system = cn.generate_random_system(derived, 2000, 8 / 2000)
        seam.clear()
        rounds = 0
        for i, fraction in enumerate(np.linspace(0.005, 0.30, 16)):
            rng = np.random.default_rng([1, 1, i])
            hit = rng.choice(2000, size=max(1, round(float(fraction) * 2000)), replace=False)
            a = system.external_assets.copy()
            a[hit] *= rng.uniform(0.0, 0.3, size=hit.size)
            params = cn.ClearingParams(r=(0.5, 0.9)[i % 2])
            rounds += cn.fictitious_default_sequence(system.with_external_assets(a),
                                                     params).iterations
        on_rows = sum(A is not system.claims_csr for A, _ in seam.products)
        assert (rounds, on_rows, len(seam.products)) == (47, 480, 527)
        assert len(seam.column_products) == rounds

    def test_three_round_clear_builds_no_sparse_array(self, monkeypatch):
        system = cn.generate_random_system(seed=3, n_banks=300, density=0.03)
        a = system.external_assets.copy()
        a[:10] = 0.0
        shocked = system.with_external_assets(a)
        built = []
        # the base every sparse array's constructor runs (its name differs
        # between scipy versions)
        base = next(c for c in scipy.sparse.csr_array.__mro__
                    if c.__module__ == "scipy.sparse._base")
        real = base.__init__

        def counted(self, *args, **kwargs):
            built.append(type(self).__name__)
            real(self, *args, **kwargs)

        monkeypatch.setattr(base, "__init__", counted)
        monkeypatch.setattr(clearnet._linalg, "lu_factor_checked", _took_lu)
        csr_array(system.claims_csr)[np.arange(3)]   # the count sees scipy's own row gather
        assert built
        built.clear()
        solution = cn.fictitious_default_sequence(shocked, cn.ClearingParams(r=0.9))
        assert solution.iterations == 3
        assert built == []


class TookLU(Exception):
    """The round left the sweep for the dense LU."""


def _took_lu(A, context):
    raise TookLU(context)


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    n_banks=st.integers(30, 45),
    density=st.floats(0.04, 0.12),
    r=st.floats(0.1, 0.95),
    per_node_r=st.booleans(),
    r_a=st.floats(0.5, 1.0),
    hit=st.floats(0.2, 0.8),
)
def test_multi_round_clear_is_within_its_bound_of_exact_arithmetic(
    seed, n_banks, density, r, per_node_r, r_a, hit
):
    # the last round's sweep output is within (q eps + gamma_{K+2}) S / (1 - q)
    # of the exact payments on the final default set, in the 1-norm over its
    # banks D: q the largest column weight of diag(r_D) R over D's columns,
    # K the most stored entries in a row of R, S = ||r_a a_D||_1 + c . |p|.
    # S at the returned p rather than the sweep's input differs by a factor
    # of at most 1 + q eps, inside the margin of 2, and the clip to [0, l]
    # only moves p towards the exact payments, which lie in it
    system = cn.generate_random_system(seed, n_banks, density)
    rng = np.random.default_rng(seed)
    n = system.node_count
    a = system.external_assets.copy()
    hit_banks = np.flatnonzero(rng.random(n_banks) < hit)
    a[hit_banks] *= rng.uniform(0.0, 0.3, hit_banks.size)
    shocked = system.with_external_assets(a)
    r_vec = rng.uniform(0.0, r, n) if per_node_r else np.full(n, r)
    params = cn.ClearingParams(r=r_vec, r_a=r_a)
    rounds = []
    real = clearnet.clearing.solve_rows

    def recorded(R, free, *args):
        rounds.append((R, free))
        return real(R, free, *args)

    with unittest.mock.patch.object(clearnet.clearing, "solve_rows", recorded), \
            unittest.mock.patch.object(clearnet._linalg, "lu_factor_checked", _took_lu):
        try:
            solution = cn.fictitious_default_sequence(shocked, params)
        except TookLU:
            reject()   # no sweep to check
    if solution.iterations < 2 or len(rounds) < solution.iterations:
        reject()   # one round, or a last round on every node
    R, free = rounds[-1]
    R = csr_array(R)
    p = solution.payments
    exact = exact_frozen_payments(shocked, r_vec, r_a, solution.defaults.flags)
    gap = sum(abs(Fraction(p[i]) - exact[i]) for i in free.tolist())
    c = abs(R).T @ np.abs(r_vec[free])
    q = Fraction(c[free].max())
    u = Fraction(EPS) / 2
    k = int(np.diff(R.indptr).max()) + 2
    gamma = k * u / (1 - k * u)
    S = Fraction(np.abs(r_a * a[free]).sum()) + sum(
        Fraction(w) * abs(Fraction(v)) for w, v in zip(c.tolist(), p.tolist()))
    assert gap <= 2 * gamma * S / (1 - q)


class TestPaymentsFarBelowLiabilities:
    def test_default_sequence_matches_exact_payments(self):
        system = cn.build_system(TINY_PAYMENTS_L, [1.0, 1.0, 1.0])
        solution = cn.fictitious_default_sequence(system, cn.ClearingParams(r=0.5))
        exact = exact_frozen_payments(system, 0.5, 1.0, solution.defaults.flags)
        assert exact[:2] == [Fraction(4, 3)] * 2
        for got, want in zip(solution.payments[system.banks], exact):
            assert abs(got - float(want)) <= 4 * np.spacing(float(want))

    def test_oracle_matches_exact_payments(self):
        system = cn.build_system(TINY_PAYMENTS_L, [1.0, 1.0, 1.0])
        oracle = cn.picard_clearing_oracle(system, cn.ClearingParams(r=0.5))
        assert np.abs(oracle[system.banks] - 4 / 3).max() <= 1e-11 * 4 / 3


class TestFictitiousDefaultSequence:
    def test_no_defaults_converges_immediately(self, sys_a):
        solution = cn.fictitious_default_sequence(sys_a, cn.ClearingParams(r=0.8))
        l = sys_a.total_liabilities
        np.testing.assert_array_equal(solution.payments[sys_a.banks], l[sys_a.banks])
        assert solution.iterations == 1
        np.testing.assert_array_equal(
            solution.defaults.flags, [False, False, True]
        )

    def test_all_fundamental_defaults_converge_in_one_round(self, sys_a):
        shocked = sys_a.with_external_assets([3.5, 4.0, 1.0])
        solution = cn.fictitious_default_sequence(shocked, cn.ClearingParams(r=0.8))
        np.testing.assert_allclose(solution.payments[:2], SYS_A_FULL_DEFAULT_P, atol=1e-6)
        assert solution.iterations == 1
        assert solution.defaults.count == 3

    def test_sys_0_partial_default(self, sys_0):
        solution = cn.fictitious_default_sequence(sys_0, cn.ClearingParams(r=0.5))
        np.testing.assert_allclose(solution.payments[:2], [10.0, 4.0], atol=1e-12)
        assert solution.iterations == 1
        np.testing.assert_array_equal(solution.defaults.flags, [False, True, True])

    def test_contagion_takes_a_second_round(self):
        # bank 1 is solvent only while bank 2 pays in full
        L = [[0, 0, 10], [6, 0, 2], [0, 0, 0]]
        system = cn.build_system(L, [5.0, 1.0, 1.0])
        solution = cn.fictitious_default_sequence(system, cn.ClearingParams(r=1.0))
        assert solution.iterations == 2
        assert solution.defaults.count == 3
        histories = [d.count for d in solution.default_history]
        assert histories == sorted(histories)
        oracle = cn.picard_clearing_oracle(system, cn.ClearingParams(r=1.0))
        np.testing.assert_allclose(solution.payments[:2], oracle[:2], atol=1e-10)

    def test_flags_zero_external_assets(self, sys_0):
        a = sys_0.external_assets.copy()
        a[0] = 0.0
        solution = cn.fictitious_default_sequence(
            sys_0.with_external_assets(a), cn.ClearingParams(r=0.5)
        )
        assert not solution.uniqueness_ok

    @pytest.mark.parametrize("r, r_a", [(0.5, 1.0), (1.0, 0.5)])
    def test_two_clearing_vectors_below_full_recovery(self, r, r_a):
        # two banks owing each other 1 and the sink 0.01, each holding 0.01:
        # full payment clears, and so does the default of both at
        # p = r_a a / (1 - r / 1.01), though every asset is positive
        system = cn.build_system([[0, 1, 0.01], [1, 0, 0.01], [0, 0, 0]], [0.01, 0.01, 1])
        params = cn.ClearingParams(r=r, r_a=r_a)
        l = system.total_liabilities
        low = np.full(3, r_a * 0.01 / (1 - r / 1.01))
        b = system.banks
        np.testing.assert_array_equal(cn.apply_clearing_map(system, params, l)[b], l[b])
        np.testing.assert_allclose(cn.apply_clearing_map(system, params, low)[b], low[b],
                                   rtol=1e-14)
        assert np.all(low[b] < 0.6 * l[b])
        solution = cn.fictitious_default_sequence(system, params)
        np.testing.assert_array_equal(solution.payments[b], l[b])   # the greatest
        assert not solution.uniqueness_ok

    @pytest.mark.parametrize("r, r_a, unique", [
        (1.0, 1.0, True),
        ([1.0, 1.0, 1.0], 1.0, True),
        ([1.0, 0.9, 1.0], 1.0, False),
        (0.8, 1.0, False),
        (1.0, 0.5, False),
    ])
    def test_uniqueness_only_under_full_recovery(self, sys_a, r, r_a, unique):
        # Eisenberg and Noe's hypotheses: r = 1 on every node, r_a = 1 and
        # positive assets
        solution = cn.fictitious_default_sequence(sys_a, cn.ClearingParams(r=r, r_a=r_a))
        assert solution.uniqueness_ok is unique

    def test_vector_recovery_rates(self, ensemble):
        rng = np.random.default_rng(5)
        for system in ensemble[:5]:
            shocked = partial_default_variant(system, seed=rng.integers(1 << 30))
            r = rng.uniform(0.2, 1.0, size=system.node_count)
            params = cn.ClearingParams(r=r)
            solution = cn.fictitious_default_sequence(shocked, params)
            oracle = cn.picard_clearing_oracle(shocked, params)
            scale = max(1.0, system.total_liabilities.max())
            assert np.abs(solution.payments - oracle)[shocked.banks].max() <= 1e-8 * scale

    def test_one_default_test_per_round(self, ensemble, monkeypatch):
        # fundamental_defaults, then one test per round; the residual reuses
        # the last round's flags
        calls = []
        real = clearnet.net_model._defaults_from_claims
        for module in (clearnet.net_model, clearnet.clearing):
            monkeypatch.setattr(module, "_defaults_from_claims",
                                lambda *args: calls.append(1) or real(*args))
        rounds = []
        for i in range(0, 80, 4):
            system = partial_default_variant(ensemble[i], seed=i)
            params = cn.ClearingParams(r=0.7)
            calls.clear()
            solution = cn.fictitious_default_sequence(system, params)
            assert len(calls) == solution.iterations + 1
            rounds.append(solution.iterations)
            p = solution.payments
            gap = np.abs(cn.apply_clearing_map(system, params, p) - p)[system.banks]
            assert solution.residual == gap.max(initial=0.0)
        assert max(rounds) > 1


class TestPicardOracle:
    def test_fixed_point_at_full_payment(self, sys_a):
        l = sys_a.total_liabilities
        oracle = cn.picard_clearing_oracle(sys_a, cn.ClearingParams(r=0.8))
        np.testing.assert_array_equal(oracle[sys_a.banks], l[sys_a.banks])

    def test_agrees_with_default_sequence_after_shock(self, sys_a):
        shocked = sys_a.with_external_assets([3.5, 4.0, 1.0])
        params = cn.ClearingParams(r=0.8)
        oracle = cn.picard_clearing_oracle(shocked, params)
        solution = cn.fictitious_default_sequence(shocked, params)
        assert np.abs(oracle - solution.payments).max() <= 1e-8

    def test_zero_network(self):
        system = cn.build_system(np.zeros((2, 2)), [2.0, 1.0])
        oracle = cn.picard_clearing_oracle(system, cn.ClearingParams(r=0.5))
        np.testing.assert_array_equal(oracle[system.banks], [0.0])

    @pytest.mark.parametrize("s", [0.1, 0.01, 1e-3, 1e-4])
    def test_ring_paying_nothing_ends_in_bounded_steps(self, s, monkeypatch):
        # each bank is paid only the other's payment, a share 1 / (1 + s) of
        # it, and holds nothing else: p = 0 is exact, and the iterates fall
        # by 1 + s a step. A relative step test alone waits for them to
        # underflow; the iterates fall from l, so one within eps l of zero is
        # within eps l of the fixed point
        system = cn.build_system([[0, 1, s], [1, 0, s], [0, 0, 0]], [0.0, 0.0, 1.0])
        params = cn.ClearingParams(r=1.0)
        steps = []
        real = clearnet.clearing.apply_clearing_map
        monkeypatch.setattr(clearnet.clearing, "apply_clearing_map",
                            lambda *args: steps.append(1) or real(*args))
        oracle = cn.picard_clearing_oracle(system, params)
        assert len(steps) <= math.ceil(math.log(1 / EPS) / math.log1p(s)) + 2
        solution = cn.fictitious_default_sequence(system, params)
        l = system.total_liabilities
        assert np.abs(oracle - solution.payments)[system.banks].max() <= 1e-8 * max(1.0, l.max())

    def test_stops_no_earlier_on_payments_that_are_not_zero(self, ensemble):
        # the relative step test alone, as the loop's only exit
        for i in range(0, 80, 8):
            system = partial_default_variant(ensemble[i], seed=i)
            params = cn.ClearingParams(r=0.1 + 0.8 * ((i * 0.37) % 1.0))
            p = system.total_liabilities
            while True:
                f = cn.apply_clearing_map(system, params, p)
                if np.all(np.abs(f - p)[system.banks] <= 1e-12 * np.abs(f[system.banks])):
                    break
                p = f
            assert cn.picard_clearing_oracle(system, params).tobytes() == f.tobytes()

    def test_iteration_cap_raises(self, sys_a, monkeypatch):
        monkeypatch.setattr(clearnet.clearing, "ORACLE_MAX_ITER", 1)
        shocked = sys_a.with_external_assets([3.5, 4.0, 1.0])
        with pytest.raises(cn.OracleNoConvergence):
            cn.picard_clearing_oracle(shocked, cn.ClearingParams(r=0.8))


def plain_clearing_map(system, params, p):
    """The clearing map written out plainly, with its two products."""
    l = system.total_liabilities
    flags = cn.default_indicator(system, p).flags
    C = csr_array(system.claims_csr)
    paid = (params.recovery_vector(system.node_count) * (C @ np.where(flags, p, l))
            + params.r_a * system.external_assets)
    return np.where(flags, paid, l)


class TestProductsOfTheMap:
    """``apply_clearing_map`` forms ``C p`` once and reuses it as
    ``C mixed`` when every solvent bank pays ``l``; its outputs are those of
    the plain map bit for bit."""

    def test_map_matches_the_plain_map_bit_for_bit(self, ensemble, seam):
        # the plain map's products are scipy's own, not the seam's
        rng = np.random.default_rng(3)
        for i, system in enumerate(ensemble[:40]):
            system = partial_default_variant(system, seed=i)
            params = cn.ClearingParams(r=rng.uniform(0.1, 1.0), r_a=0.8)
            l, n = system.total_liabilities, system.node_count
            for p in (l, rng.uniform(0.0, 1.0, n) * l,
                      np.where(rng.random(n) < 0.5, l, rng.uniform(0.0, 1.0, n) * l)):
                before = len(seam.products)
                got = cn.apply_clearing_map(system, params, p)
                made = len(seam.products) - before
                flags = cn.default_indicator(system, p).flags
                assert made == (1 if np.array_equal(np.where(flags, p, l), p) else 2)
                assert got.tobytes() == plain_clearing_map(system, params, p).tobytes()

    def test_oracle_makes_one_product_per_step(self, ensemble, monkeypatch, seam):
        steps = []
        real = clearnet.clearing.apply_clearing_map
        monkeypatch.setattr(clearnet.clearing, "apply_clearing_map",
                            lambda *args: steps.append(1) or real(*args))
        for i in range(0, 80, 8):
            system = partial_default_variant(ensemble[i], seed=i)
            params = cn.ClearingParams(r=0.1 + 0.8 * ((i * 0.37) % 1.0))
            steps.clear()
            seam.clear()
            got = cn.picard_clearing_oracle(system, params)
            assert len(seam.products) == len(steps) > 1
            p = system.total_liabilities
            for _ in steps:   # the oracle's loop on the plain map
                f = plain_clearing_map(system, params, p)
                p = f
            assert got.tobytes() == f.tobytes()


class TestLossMeasures:
    def test_no_losses_at_full_payment(self, sys_a):
        solution = cn.fictitious_default_sequence(sys_a, cn.ClearingParams(r=0.8))
        l = sys_a.total_liabilities
        np.testing.assert_array_equal(cn.systemic_loss(solution, l), np.zeros(3))

    def test_sys_a_full_default_losses(self, sys_a):
        shocked = sys_a.with_external_assets([3.5, 4.0, 1.0])
        solution = cn.fictitious_default_sequence(shocked, cn.ClearingParams(r=0.8))
        sigma = cn.systemic_loss(solution, shocked.total_liabilities)
        np.testing.assert_allclose(sigma, (5.36190, 5.25790, 0.0), atol=1e-4)

    def test_sys_0_losses(self, sys_0):
        solution = cn.fictitious_default_sequence(sys_0, cn.ClearingParams(r=0.5))
        sigma = cn.systemic_loss(solution, sys_0.total_liabilities)
        np.testing.assert_allclose(sigma, [0.0, 4.0, 0.0], atol=1e-12)

    def test_capitalization_adjustment_zero_shock(self, sys_a):
        solution = cn.fictitious_default_sequence(sys_a, cn.ClearingParams(r=0.8))
        out = cn.capitalization_adjusted_loss(solution, sys_a)
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_capitalization_adjustment_sys_a(self, sys_a):
        shocked = sys_a.with_external_assets([3.5, 4.0, 1.0])
        solution = cn.fictitious_default_sequence(shocked, cn.ClearingParams(r=0.8))
        out = cn.capitalization_adjusted_loss(solution, shocked)
        sigma = cn.systemic_loss(solution, shocked.total_liabilities)
        expected = [sigma[0] * (-4.5) / 11.0, sigma[1] * (-5.0) / 11.0, 0.0]
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_capitalization_adjustment_single_bank_half_shock(self):
        system = cn.build_system([[0, 8], [0, 0]], [6.0, 1.0])
        shocked = system.with_external_assets([3.0, 1.0])  # s = -o/2
        solution = cn.fictitious_default_sequence(shocked, cn.ClearingParams(r=0.5))
        out = cn.capitalization_adjusted_loss(solution, shocked)
        sigma = cn.systemic_loss(solution, shocked.total_liabilities)
        assert out[0] == pytest.approx(sigma[0] * (-0.5) * 6.0 / (6.0 + 0.0))

    def test_capitalization_adjustment_division_by_zero(self):
        # bank 1 has zero pre-shock assets and no interbank claims
        system = cn.build_system([[0, 0, 5], [0, 0, 5], [0, 0, 0]], [0.0, 6.0, 1.0])
        solution = cn.fictitious_default_sequence(system, cn.ClearingParams(r=0.5))
        with pytest.raises(cn.DivisionByZero):
            cn.capitalization_adjusted_loss(solution, system)


class TestStructuralProperties:
    def test_bounds_iterations_history_on_ensemble(self, ensemble):
        for i, system in enumerate(ensemble[:30]):
            shocked = partial_default_variant(system, seed=i)
            params = cn.ClearingParams(r=0.1 + 0.8 * ((i * 0.41) % 1.0))
            solution = cn.fictitious_default_sequence(shocked, params)
            l = shocked.total_liabilities
            b = shocked.banks
            assert np.all(solution.payments[b] >= 0)
            assert np.all(solution.payments[b] <= l[b])
            assert solution.iterations <= shocked.node_count
            assert solution.residual <= 1e-10 * max(1.0, l.max())
            for earlier, later in zip(solution.default_history, solution.default_history[1:]):
                assert earlier.issubset(later)

    def test_homogeneity_under_currency_rescaling(self, ensemble):
        params = cn.ClearingParams(r=0.6)
        for i, system in enumerate(ensemble[:10]):
            shocked = partial_default_variant(system, seed=100 + i)
            base = cn.fictitious_default_sequence(shocked, params).payments
            for c in (1e-3, 1e3):
                scaled_sys = cn.build_system(
                    c * shocked.liabilities,
                    c * shocked.pre_shock_assets,
                    c * shocked.external_assets,
                )
                scaled = cn.fictitious_default_sequence(scaled_sys, params).payments
                scale = c * max(1.0, base.max())
                assert np.abs(scaled - c * base).max() <= 1e-10 * scale
