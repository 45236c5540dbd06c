import dataclasses
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse

import clearnet as cn
import clearnet.clearing
from clearnet._linalg import solve_attenuated
from conftest import exact_frozen_payments, partial_default_variant

# independently frozen via the fixed-point oracle (see picard tests below)
SYS_A_FULL_DEFAULT_P = (4.63810316, 4.74209651)

# Two banks owing each other and the sink 1e14 each, with assets of 1: at
# r = 0.5 both default and pay exactly 4/3, fourteen orders of magnitude
# below their liabilities.
TINY_PAYMENTS_L = [[0, 1e14, 1e14], [1e14, 0, 1e14], [0, 0, 0]]


def frozen_map(system, params, defaults, f):
    """Clearing map with the default set frozen (for consistency checks)."""
    l = system.total_liabilities
    C = system.claims
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
                C = system.claims
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
        b = r_vec * (system.claims @ np.zeros(n_banks + 1)) + 0.7 * a
        want = solve_attenuated(system.claims, r_vec, b, "block")
        got = cn.solve_given_defaults(system, params, everyone)
        assert got.tobytes() == want.tobytes()
        solution = cn.fictitious_default_sequence(system, params)
        assert solution.defaults == everyone
        assert not np.signbit(solution.payments).any()

    def test_singular_reduced_system(self):
        # two banks owing only each other, full recovery: I - C is singular
        system = cn.build_system([[0, 5, 0], [5, 0, 0], [0, 0, 0]], [1.0, 1.0, 1.0])
        defaults = cn.DefaultIndicator(flags=np.array([True, True, True]))
        with pytest.raises(cn.SingularSystem):
            cn.solve_given_defaults(system, cn.ClearingParams(r=1.0), defaults)


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

    def test_iteration_cap_raises(self, sys_a, monkeypatch):
        monkeypatch.setattr(clearnet.clearing, "ORACLE_MAX_ITER", 1)
        shocked = sys_a.with_external_assets([3.5, 4.0, 1.0])
        with pytest.raises(cn.OracleNoConvergence):
            cn.picard_clearing_oracle(shocked, cn.ClearingParams(r=0.8))


class CountingCsr(scipy.sparse.csr_array):
    """A CSR array that counts its products."""

    products = 0

    def __matmul__(self, other):
        self.products += 1
        return super().__matmul__(other)


def counting(system):
    """The system with a claims matrix that counts its products."""
    return dataclasses.replace(system, claims=CountingCsr(system.claims))


def plain_clearing_map(system, params, p):
    """The clearing map written out plainly, with its two products."""
    l = system.total_liabilities
    flags = cn.default_indicator(system, p).flags
    paid = (params.recovery_vector(system.node_count) * (system.claims @ np.where(flags, p, l))
            + params.r_a * system.external_assets)
    return np.where(flags, paid, l)


class TestProductsOfTheMap:
    """``apply_clearing_map`` forms ``C p`` once and reuses it as
    ``C mixed`` when every solvent bank pays ``l``; its outputs are those of
    the plain map bit for bit."""

    def test_map_matches_the_plain_map_bit_for_bit(self, ensemble):
        rng = np.random.default_rng(3)
        for i, system in enumerate(ensemble[:40]):
            system = counting(partial_default_variant(system, seed=i))
            params = cn.ClearingParams(r=rng.uniform(0.1, 1.0), r_a=0.8)
            l, n = system.total_liabilities, system.node_count
            for p in (l, rng.uniform(0.0, 1.0, n) * l,
                      np.where(rng.random(n) < 0.5, l, rng.uniform(0.0, 1.0, n) * l)):
                before = system.claims.products
                got = cn.apply_clearing_map(system, params, p)
                made = system.claims.products - before
                flags = cn.default_indicator(system, p).flags
                assert made == (1 if np.array_equal(np.where(flags, p, l), p) else 2)
                assert got.tobytes() == plain_clearing_map(system, params, p).tobytes()

    def test_oracle_makes_one_product_per_step(self, ensemble, monkeypatch):
        steps = []
        real = clearnet.clearing.apply_clearing_map
        monkeypatch.setattr(clearnet.clearing, "apply_clearing_map",
                            lambda *args: steps.append(1) or real(*args))
        for i in range(0, 80, 8):
            system = counting(partial_default_variant(ensemble[i], seed=i))
            params = cn.ClearingParams(r=0.1 + 0.8 * ((i * 0.37) % 1.0))
            steps.clear()
            got = cn.picard_clearing_oracle(system, params)
            assert system.claims.products == len(steps) > 1
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
