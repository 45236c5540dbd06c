from fractions import Fraction

import numpy as np
import pytest

import clearnet as cn
from conftest import fraction_solve


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
            l = cn.total_liabilities(system)
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


class TestGeneralizedKatz:
    def test_sys_a_matches_hand_solve(self, sys_a):
        C = cn.relative_claims(sys_a).matrix
        result = cn.generalized_katz(C, 0.8, np.array([4.1, 4.4, 0.0]))
        np.testing.assert_allclose(result.sigma[:2], (5.36190, 5.25790), atol=1e-4)
        assert result.sigma[2] == 0.0
        assert result.residual <= 1e-10

    def test_zero_beta(self, sys_a):
        C = cn.relative_claims(sys_a).matrix
        result = cn.generalized_katz(C, 0.8, np.zeros(3))
        np.testing.assert_array_equal(result.sigma, np.zeros(3))

    def test_zero_matrix_returns_beta(self):
        beta = np.array([1.0, 2.0, 0.0])
        result = cn.generalized_katz(np.zeros((3, 3)), 0.9, beta)
        np.testing.assert_array_equal(result.sigma, beta)

    def test_radius_precondition(self):
        stochastic = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(cn.SingularSystem):
            cn.generalized_katz(stochastic, 1.0, np.ones(2))

    def test_linearity(self, sys_a):
        C = cn.relative_claims(sys_a).matrix
        rng = np.random.default_rng(8)
        b1 = rng.uniform(0, 5, 3)
        b2 = rng.uniform(0, 5, 3)
        b1[-1] = b2[-1] = 0.0
        s1 = cn.generalized_katz(C, 0.8, b1).sigma
        s2 = cn.generalized_katz(C, 0.8, b2).sigma
        s12 = cn.generalized_katz(C, 0.8, b1 + b2).sigma
        np.testing.assert_allclose(s12, s1 + s2, atol=1e-10)


class TestStandardKatz:
    def test_empty_graph(self):
        np.testing.assert_array_equal(cn.standard_katz(np.zeros((3, 3)), 0.5), np.ones(3))

    def test_two_cycle(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(cn.standard_katz(A, 0.5), [2.0, 2.0], atol=1e-12)

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


class TestClosedFormFullShock:
    def test_sys_a(self, sys_a):
        p = cn.closed_form_full_shock(sys_a, cn.ClearingParams(r=0.8), 0.5)
        np.testing.assert_allclose(p[:2], (4.63810, 4.74210), atol=1e-4)

    def test_collapses_to_direct_solve(self, ensemble):
        for system in ensemble[:10]:
            r, m = 0.7, 0.4
            p = cn.closed_form_full_shock(system, cn.ClearingParams(r=r), m)
            l = cn.total_liabilities(system)
            C = cn.relative_claims(system).matrix
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
            scale = max(1.0, cn.total_liabilities(system).max())
            assert np.abs(p_form - p_clear)[b].max() <= 1e-10 * scale

    def test_zero_interbank_block(self, sys_0):
        p = cn.closed_form_full_shock(sys_0, cn.ClearingParams(r=0.5), 0.5)
        l = cn.total_liabilities(sys_0)
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
        l = cn.total_liabilities(sys_a)
        C = cn.relative_claims(sys_a).matrix
        np.testing.assert_allclose(p, 0.5 * l + 0.25 * (C @ l), atol=1e-12)
        np.testing.assert_allclose(p[:2], [5.75, 5.5], atol=1e-12)

    def test_zero_matrix(self, sys_0):
        p = cn.printed_relaxed_closed_form(sys_0, 0.5, 0.5)
        l = cn.total_liabilities(sys_0)
        np.testing.assert_allclose(p[:2], 0.5 * l[:2], atol=1e-12)


class TestNeumannEquivalence:
    def test_series_matches_solve_at_moderate_attenuation(self, ensemble):
        for system in ensemble[:8]:
            C = cn.relative_claims(system).matrix
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
        C = cn.relative_claims(system).matrix.toarray()
        adjacency = C[system.banks, system.banks]
        assert set(np.unique(adjacency)) <= {0.0, 1.0}
        beta = cn.beta_vector(system, r, r)
        l = cn.total_liabilities(system)
        normalized = np.zeros(4)
        normalized[:3] = beta[:3] / ((1 - r) * l[:3])
        sigma = cn.generalized_katz(C, r, normalized).sigma
        katz = cn.standard_katz(adjacency, r)
        np.testing.assert_allclose(sigma[:3], katz, atol=1e-10)
