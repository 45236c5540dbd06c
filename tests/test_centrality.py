from fractions import Fraction

import numpy as np
import pytest

import clearnet as cn
from conftest import csr_array, fraction_solve


def single_creditor_chain(weights=(4.0, 6.0, 5.0)):
    """Bank 1 -> bank 2 -> bank 3 -> sink, one creditor each."""
    n = len(weights)
    L = np.zeros((n + 1, n + 1))
    for i, w in enumerate(weights):
        L[i, i + 1] = w
    return cn.build_system(L, np.ones(n + 1))


class TestBetaVector:
    def test_sys_a(self, sys_a):
        beta = cn.beta_vector(sys_a, 0.8, 0.5)
        np.testing.assert_allclose(beta, [4.1, 4.4, 0.0], atol=1e-12)

    def test_equal_rates_collapse(self, ensemble):
        for system in ensemble[:10]:
            r = 0.35
            beta = cn.beta_vector(system, r, r)
            l = system.total_liabilities
            b = system.banks
            np.testing.assert_allclose(beta[b], (1 - r) * l[b], rtol=1e-12)
            assert beta[system.sink] == 0.0

    def test_zero_liabilities(self):
        system = cn.build_system(np.zeros((3, 3)), [1.0, 1.0, 1.0])
        np.testing.assert_array_equal(cn.beta_vector(system, 0.5, 0.3), np.zeros(3))

    def test_vector_rates(self, sys_a):
        r = np.array([0.8, 0.6, 0.5])
        m = np.array([0.5, 0.25, 0.5])
        beta = cn.beta_vector(sys_a, r, m)
        expected = [(1 - 0.5) * 10 - (0.8 - 0.5) * 3, (1 - 0.25) * 10 - (0.6 - 0.25) * 2, 0.0]
        np.testing.assert_allclose(beta, expected)


def exact_beta(system, r, m) -> list:
    """``(1 - m) l - (r - m) C l`` per bank in exact rational arithmetic,
    from the float ``l``, ``C l`` (the system's own ``total_claims``), ``r``
    and ``m``."""
    n = system.node_count
    r = np.broadcast_to(np.asarray(r, dtype=float), (n,))
    m = np.broadcast_to(np.asarray(m, dtype=float), (n,))
    return [
        (1 - Fraction(mi)) * Fraction(li) - (Fraction(ri) - Fraction(mi)) * Fraction(ci)
        for ri, mi, li, ci in zip(r, m, system.total_liabilities, system.total_claims)
    ][:-1]


def assert_beta_accurate(beta, exact, ulps=8):
    eps = Fraction(np.finfo(float).eps)
    for got, want in zip(beta, exact):
        assert abs(Fraction(got) - want) <= ulps * eps * abs(want)


class TestBetaWithoutCancellation:
    """Bank 0 is owed 1 by bank 1 and owes 1 + 2**-40 to the sink, so its
    headroom ``l - C l`` is 2**-40 of its liabilities."""

    @staticmethod
    def thin_headroom_system():
        L = np.zeros((3, 3))
        L[0, 2] = 1.0 + 2.0**-40
        L[1, 0] = L[1, 2] = 1.0
        return cn.build_system(L, np.ones(3))

    def test_full_recovery_matches_exact_arithmetic(self):
        system = self.thin_headroom_system()
        assert system.total_claims[0] == 1.0
        for m in (0.3, 0.7, 0.1234567):
            beta = cn.beta_vector(system, 1.0, m)
            assert_beta_accurate(beta[:-1], exact_beta(system, 1.0, m))
            assert beta[system.sink] == 0.0

    def test_ensemble_matches_exact_arithmetic(self, ensemble):
        rng = np.random.default_rng(8)
        for system in ensemble[:40]:
            n = system.node_count
            per_node = (rng.uniform(0, 1, n), rng.uniform(0.01, 0.99, n))
            for r, m in ((1.0, 0.3), (0.8, 0.5), per_node):
                beta = cn.beta_vector(system, r, m)
                assert_beta_accurate(beta[system.banks], exact_beta(system, r, m))


class TestGeneralizedKatz:
    def test_sys_a_matches_hand_solve(self, sys_a):
        C = sys_a.claims_csr
        result = cn.generalized_katz(C, 0.8, np.array([4.1, 4.4, 0.0]))
        np.testing.assert_allclose(result.sigma[:2], (5.36190, 5.25790), atol=1e-4)
        assert result.sigma[2] == 0.0
        assert result.residual <= 1e-10

    def test_zero_beta(self, sys_a):
        C = sys_a.claims_csr
        result = cn.generalized_katz(C, 0.8, np.zeros(3))
        np.testing.assert_array_equal(result.sigma, np.zeros(3))

    def test_zero_matrix_returns_beta(self):
        beta = np.array([1.0, 2.0, 0.0])
        result = cn.generalized_katz(np.zeros((3, 3)), 0.9, beta)
        np.testing.assert_array_equal(result.sigma, beta)

    def test_empty_matrix_gives_an_empty_vector(self):
        # no sink to zero and no rate to reduce over; nothing to solve
        result = cn.generalized_katz(np.zeros((0, 0)), 0.5, np.zeros(0))
        assert result.sigma.shape == (0,)
        assert result.residual == 0.0

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1)])
    def test_beta_of_the_wrong_shape_raises(self, sys_a, shape):
        # numpy's "shapes not aligned" ValueError, or a TypeError for (3, 1)
        with pytest.raises(cn.DimensionMismatch):
            cn.generalized_katz(sys_a.claims_csr, 0.8, np.ones(shape))

    def test_radius_precondition(self):
        stochastic = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(cn.SingularSystem):
            cn.generalized_katz(stochastic, 1.0, np.ones(2))

    def test_linearity(self, sys_a):
        C = sys_a.claims_csr
        rng = np.random.default_rng(8)
        b1 = rng.uniform(0, 5, 3)
        b2 = rng.uniform(0, 5, 3)
        b1[-1] = b2[-1] = 0.0
        s1 = cn.generalized_katz(C, 0.8, b1).sigma
        s2 = cn.generalized_katz(C, 0.8, b2).sigma
        s12 = cn.generalized_katz(C, 0.8, b1 + b2).sigma
        np.testing.assert_allclose(s12, s1 + s2, atol=1e-10)


class TestRecoveryRatesValidated:
    """A recovery rate outside [0, 1], or NaN, is rejected wherever it enters,
    not only in ``ClearingParams``."""

    BAD = [3.0, -1.0, np.nan, [0.5, 1.5, 0.5], [0.5, np.nan, 0.5]]

    @pytest.fixture
    def system(self):
        return cn.build_system([[0, 1, 1], [1, 0, 1], [0, 0, 0]], [1, 1, 1])

    @pytest.mark.parametrize("r", BAD)
    def test_beta_vector(self, system, r):
        with pytest.raises(cn.ValidationError, match="recovery rate r must lie in"):
            cn.beta_vector(system, r, 0.5)

    @pytest.mark.parametrize("r", BAD)
    def test_generalized_katz(self, system, r):
        with pytest.raises(cn.ValidationError, match="recovery rate r must lie in"):
            cn.generalized_katz(system.claims_csr, r, np.array([1.0, 1.0, 0.0]))

    @pytest.mark.parametrize("r", BAD)
    def test_printed_relaxed_closed_form(self, system, r):
        with pytest.raises(cn.ValidationError, match="recovery rate r must lie in"):
            cn.printed_relaxed_closed_form(system, r, 0.5)

    @pytest.mark.parametrize("r", [-1e-300, 1.0 + 1e-15, np.nan])
    def test_clearing_params(self, r):
        with pytest.raises(cn.ValidationError, match="recovery rate r must lie in"):
            cn.ClearingParams(r=r)
        with pytest.raises(cn.ValidationError, match="recovery rate r_a must lie in"):
            cn.ClearingParams(r_a=r)

    def test_interpolation_keeps_its_own_error(self, system):
        for m in (0.0, 1.0, -0.2, 1.5, np.nan):
            with pytest.raises(cn.InvalidInterpolation):
                cn.beta_vector(system, 0.5, m)

    def test_bounds_are_admitted(self, system):
        for r in (0.0, 1.0, [0.0, 1.0, 0.5]):
            cn.beta_vector(system, r, 0.5)
            cn.ClearingParams(r=r)


class TestStandardKatz:
    def test_empty_graph(self):
        np.testing.assert_array_equal(cn.standard_katz(np.zeros((3, 3)), 0.5), np.ones(3))

    def test_two_cycle(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(cn.standard_katz(A, 0.5), [2.0, 2.0], atol=1e-12)
        # a negative attenuation: (I + 0.5 A) x = 1
        np.testing.assert_allclose(cn.standard_katz(A, -0.5), [2 / 3, 2 / 3], atol=1e-12)

    def test_star_graph(self):
        # three leaves feeding the hub (entry [hub, leaf] = 1)
        A = np.zeros((4, 4))
        A[0, 1:] = 1.0
        np.testing.assert_allclose(
            cn.standard_katz(A, 0.25), [1.75, 1.0, 1.0, 1.0], atol=1e-12
        )

    def test_attenuation_beyond_radius_rejected(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(cn.SingularSystem):
            cn.standard_katz(A, 1.0)
        # I + 2A is invertible, but the Katz series of alpha = -2 diverges
        with pytest.raises(cn.SingularSystem):
            cn.standard_katz(A, -2.0)


class TestClosedFormFullShock:
    def test_sys_a(self, sys_a):
        p = cn.closed_form_full_shock(sys_a, cn.ClearingParams(r=0.8), 0.5)
        np.testing.assert_allclose(p[:2], (4.63810, 4.74210), atol=1e-4)

    def test_collapses_to_direct_solve(self, ensemble):
        for system in ensemble[:10]:
            r, m = 0.7, 0.4
            p = cn.closed_form_full_shock(system, cn.ClearingParams(r=r), m)
            l = system.total_liabilities
            C = csr_array(system.claims_csr)
            a = m * (l - C @ l)
            direct = np.linalg.solve(np.eye(system.node_count) - r * C, a)
            b = system.banks
            assert np.abs(p - direct)[b].max() <= 1e-10 * max(1.0, l.max())

    def test_matches_clearing_solver(self, ensemble):
        params = cn.ClearingParams(r=0.6)
        for system in ensemble[:10]:
            p_form = cn.closed_form_full_shock(system, params, 0.5)
            scenario = cn.full_default_shock(system, 0.5)
            shocked = cn.shocked_system(system, scenario)
            p_clear = cn.fictitious_default_sequence(shocked, params).payments
            b = system.banks
            scale = max(1.0, system.total_liabilities.max())
            assert np.abs(p_form - p_clear)[b].max() <= 1e-10 * scale

    @pytest.mark.parametrize("r_a", [1.0, 0.6, 0.0])
    def test_matches_clearing_solver_at_asset_recovery(self, r_a):
        # a defaulted bank recovers r_a of its assets m (l - C l), so the
        # right-hand side is r_a m (l - C l), as the clearing solver forms it
        system = cn.generate_random_system(3, 50, 0.1)
        params = cn.ClearingParams(r=0.7, r_a=r_a)
        p_form = cn.closed_form_full_shock(system, params, 0.5)
        shocked = cn.shocked_system(system, cn.full_default_shock(system, 0.5))
        solution = cn.fictitious_default_sequence(shocked, params)
        assert solution.iterations == 1 and solution.defaults.flags.all()
        b = system.banks
        np.testing.assert_array_equal(p_form[b], solution.payments[b])

    def test_zero_interbank_block(self, sys_0):
        p = cn.closed_form_full_shock(sys_0, cn.ClearingParams(r=0.5), 0.5)
        l = sys_0.total_liabilities
        np.testing.assert_allclose(p[:2], 0.5 * l[:2], atol=1e-12)

    def test_no_cancellation_on_large_liabilities(self):
        # A ring of 1e14 liabilities with headroom l - C l of about 1: the
        # payments are about 1, so forming them as the difference of two
        # 1e14-sized terms would lose every significant digit.
        system = cn.build_system([[0, 1e14, 1], [1e14, 0, 1], [0, 0, 0]], [1, 1, 1])
        r, m = 0.7, 0.3
        p = cn.closed_form_full_shock(system, cn.ClearingParams(r=r), m)

        L = [[Fraction(x) for x in row] for row in system.liabilities.tolist()]
        n = len(L)
        l = [sum(row, Fraction(0)) for row in L]
        C = [[L[j][i] / l[j] if l[j] else Fraction(0) for j in range(n)] for i in range(n)]
        a = [Fraction(m) * (l[i] - sum(C[i][j] * l[j] for j in range(n))) for i in range(n)]
        A = [[int(i == j) - Fraction(r) * C[i][j] for j in range(n)] for i in range(n)]
        exact = fraction_solve(A, a)
        for got, want in zip(p[system.banks], exact[system.banks]):
            assert abs(Fraction(got) - want) <= Fraction(1e-12) * abs(want)


class TestPrintedRelaxedClosedForm:
    def test_equal_rates_reduce_to_quadratic(self, sys_a):
        p = cn.printed_relaxed_closed_form(sys_a, 0.5, 0.5)
        l = sys_a.total_liabilities
        C = csr_array(sys_a.claims_csr)
        np.testing.assert_allclose(p, 0.5 * l + 0.25 * (C @ l), atol=1e-12)
        np.testing.assert_allclose(p[:2], [5.75, 5.5], atol=1e-12)

    def test_zero_matrix(self, sys_0):
        p = cn.printed_relaxed_closed_form(sys_0, 0.5, 0.5)
        l = sys_0.total_liabilities
        np.testing.assert_allclose(p[:2], 0.5 * l[:2], atol=1e-12)


class TestNeumannEquivalence:
    def test_series_matches_solve_at_moderate_attenuation(self, ensemble):
        for system in ensemble[:8]:
            C = csr_array(system.claims_csr)
            r = 0.8
            if r * cn.spectral_radius(C) > 0.85:
                continue
            beta = cn.beta_vector(system, r, 0.45)
            sigma = cn.generalized_katz(C, r, beta).sigma
            acc = beta.copy()
            term = beta.copy()
            for _ in range(200):
                term = r * (C @ term)
                acc += term
            b = system.banks
            assert np.abs(acc - sigma)[b].max() <= 1e-8


class TestKatzReduction:
    def test_chain_matches_standard_katz(self):
        system = single_creditor_chain()
        r = 0.5
        C = system.claims_csr.toarray()
        adjacency = C[system.banks, system.banks]
        assert set(np.unique(adjacency)) <= {0.0, 1.0}
        beta = cn.beta_vector(system, r, r)
        l = system.total_liabilities
        normalized = np.zeros(4)
        normalized[:3] = beta[:3] / ((1 - r) * l[:3])
        sigma = cn.generalized_katz(C, r, normalized).sigma
        katz = cn.standard_katz(adjacency, r)
        np.testing.assert_allclose(sigma[:3], katz, atol=1e-10)
