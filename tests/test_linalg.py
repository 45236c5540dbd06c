"""The solver of ``(I - diag(r) C) x = b`` against dense LU and exact
arithmetic, and each side of its choice between a Neumann sweep and LU."""
from fractions import Fraction

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import clearnet as cn
import clearnet._linalg
from clearnet._linalg import as_csr, solve_attenuated, solve_checked
from conftest import exact_frozen_payments


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
    l = cn.total_liabilities(system)[idx]
    b = rng.uniform(-1.0 if mixed_sign else 0.0, 1.0, size=idx.size) * l
    if not b.any():
        b[0] = scale

    x = solve_attenuated(system.claims[idx][:, idx], r_vec[idx], b, "block")
    block = cn.relative_claims(system).matrix.toarray()[np.ix_(idx, idx)]
    A = np.eye(idx.size) - r_vec[idx, None] * block
    want = solve_checked(A, b, "dense block")
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
        l = cn.total_liabilities(system)
        C = cn.relative_claims(system).matrix
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
        x = solve_attenuated(system.claims, np.ones(n), np.ones(n), "r = 1")
        assert lu_sizes == [n]
        np.testing.assert_allclose(x - system.claims @ x, 1.0, rtol=1e-10)

    def test_closed_cycle_at_full_recovery_raises_through_lu(self, lu_sizes):
        system = cn.build_system([[0, 5, 0], [5, 0, 0], [0, 0, 0]], [1.0, 1.0, 1.0])
        all_defaulted = cn.DefaultIndicator(flags=np.ones(3, dtype=bool))
        with pytest.raises(cn.SingularSystem):
            cn.solve_given_defaults(system, cn.ClearingParams(r=1.0), all_defaulted)
        assert lu_sizes == [3]

    def test_small_system_takes_dense_lu(self, sys_a, lu_sizes):
        # q = 0.8 < 1, but 54 sweeps over 4 nonzeros cost more than a 3x3 LU
        x = solve_attenuated(sys_a.claims, 0.8, np.ones(3), "sys_a")
        assert lu_sizes == [3]
        np.testing.assert_allclose(x - 0.8 * (sys_a.claims @ x), 1.0, rtol=1e-14)

    @pytest.mark.parametrize("n, lu_expected", [(12, True), (13, False)])
    def test_flop_rule_boundary(self, n, lu_expected, lu_sizes):
        # a cycle has one nonzero per column, so q = r = 0.5 and k = 54:
        # 54 * 12 = 648 > 12**3 / 3 = 576, but 54 * 13 = 702 < 732.3
        cycle = scipy.sparse.csr_array(np.roll(np.eye(n), 1, axis=0))
        x = solve_attenuated(cycle, 0.5, np.ones(n), "cycle")
        assert lu_sizes == ([n] if lu_expected else [])
        np.testing.assert_allclose(x, 2.0, rtol=1e-15)

    def test_zero_attenuation_returns_the_right_hand_side(self, sys_a, monkeypatch):
        monkeypatch.setattr(clearnet._linalg, "lu_factor_checked", _no_lu)
        b = np.array([1.0, -2.0, 3.0])
        x = solve_attenuated(sys_a.claims, 0.0, b, "r = 0")
        np.testing.assert_array_equal(x, b)
        assert x is not b


class TestAsCsr:
    def test_dense_round_trip(self, ensemble):
        for system in ensemble[:20]:
            C = cn.relative_claims(system).matrix.toarray()
            np.testing.assert_array_equal(as_csr(C).toarray(), C)
            np.testing.assert_array_equal(system.claims.toarray(), C)

    def test_empty_and_zero_matrices(self):
        assert as_csr(np.zeros((0, 0))).shape == (0, 0)
        assert as_csr(np.zeros((3, 3))).nnz == 0

    def test_non_contiguous_input(self):
        M = np.arange(36.0).reshape(6, 6)
        np.testing.assert_array_equal(as_csr(M[1:5, 1:5]).toarray(), M[1:5, 1:5])
        np.testing.assert_array_equal(as_csr(M.T).toarray(), M.T)

    def test_rejects_vectors(self):
        with pytest.raises(ValueError):
            as_csr(np.ones(3))
