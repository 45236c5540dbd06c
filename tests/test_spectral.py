import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse

import clearnet as cn
import clearnet.spectral


def column_stochastic(seed: int, n: int) -> np.ndarray:
    """Dense positive matrix whose columns sum to one (no sink)."""
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.1, 1.0, size=(n, n))
    return M / M.sum(axis=0)


class TestCollatzWielandt:
    def test_uniform_vector_on_bank_block(self, sys_a):
        block = cn.relative_claims(sys_a).matrix[:2, :2]
        assert cn.collatz_wielandt_value(block, np.ones(2)) == pytest.approx(0.2)

    def test_zero_matrix_gives_zero(self):
        assert cn.collatz_wielandt_value(np.zeros((3, 3)), np.ones(3)) == 0.0

    def test_zero_coordinates_excluded_from_min(self):
        C = np.array([[0.0, 0.3], [0.2, 0.0]])
        # with support {0} only the first quotient counts
        assert cn.collatz_wielandt_value(C, [1.0, 0.0]) == pytest.approx(0.0)

    def test_zero_vector_rejected(self):
        with pytest.raises(cn.ZeroVector):
            cn.collatz_wielandt_value(np.eye(2), [0.0, 0.0])

    def test_negative_vector_rejected(self):
        with pytest.raises(ValueError):
            cn.collatz_wielandt_value(np.eye(2), [1.0, -1.0])

    def test_lower_bound_property_on_many_vectors(self, sys_a, ensemble):
        rng = np.random.default_rng(21)
        matrices = [cn.relative_claims(sys_a).matrix]
        matrices += [cn.relative_claims(s).matrix for s in ensemble[:4]]
        for C in matrices:
            rho = cn.spectral_radius(C)
            n = C.shape[0]
            for _ in range(200):
                x = rng.uniform(0, 1, size=n)
                x[rng.random(n) < 0.2] = 0.0
                if not x.any():
                    x[0] = 1.0
                assert cn.collatz_wielandt_value(C, x) <= rho + 1e-8


class TestSpectralRadius:
    def test_sys_a_radius_below_one(self, sys_a):
        rho = cn.spectral_radius(cn.relative_claims(sys_a).matrix)
        assert 0 < rho < 1
        assert rho == pytest.approx(np.sqrt(0.06), abs=1e-9)

    def test_permutation_matrix(self):
        assert cn.spectral_radius(np.array([[0.0, 1], [1, 0]])) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_zero_matrix(self):
        assert cn.spectral_radius(np.zeros((4, 4))) == 0.0

    def test_nilpotent_claims_matrix_is_exactly_zero(self, sys_0):
        assert cn.spectral_radius(cn.relative_claims(sys_0).matrix) == 0.0

    def test_asymmetric_two_cycle(self):
        # iterating C itself oscillates here; the shifted iteration converges
        C = np.array([[0.0, 1.0], [0.5, 0.0]])
        assert cn.spectral_radius(C) == pytest.approx(np.sqrt(0.5), abs=1e-9)

    def test_column_stochastic_is_one(self):
        for seed in range(5):
            C = column_stochastic(seed, 6)
            assert cn.spectral_radius(C) == pytest.approx(1.0, abs=1e-8)

    def test_defective_matrix_falls_back(self):
        C = np.array([[0.5, 1.0], [0.0, 0.5]])
        assert cn.spectral_radius(C) == pytest.approx(0.5, abs=1e-10)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            cn.spectral_radius(np.array([[0.0, -1.0], [0.0, 0.0]]))


class TestSparseInput:
    def test_matches_dense_on_ensemble(self, ensemble):
        for system in ensemble[:20]:
            dense = cn.relative_claims(system).matrix.toarray()
            sparse = system.claims
            assert cn.spectral_radius(sparse) == cn.spectral_radius(dense)
            ok, report = cn.check_invertibility(sparse, 1.0)
            assert (ok, report) == cn.check_invertibility(dense, 1.0)

    def test_fallback_densifies(self, monkeypatch):
        monkeypatch.setattr(clearnet.spectral, "RADIUS_MAX_ITER", 100)
        C = scipy.sparse.csr_array(np.array([[0.5, 1.0], [0.0, 0.5]]))
        assert cn.spectral_radius(C) == pytest.approx(0.5, abs=1e-10)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            cn.spectral_radius(scipy.sparse.csr_array(np.array([[0.0, -1.0], [0.0, 0.0]])))


class TestCheckInvertibility:
    def test_full_recovery_with_sink(self, sys_a):
        ok, report = cn.check_invertibility(
            cn.relative_claims(sys_a).matrix, r=1.0
        )
        assert ok
        assert report.invertible_for_r == "[0, 1]"
        assert report.collatz_wielandt_lower <= report.radius_estimate + 1e-8

    def test_full_recovery_without_sink(self):
        ok, report = cn.check_invertibility(
            np.array([[0.0, 1], [1, 0]]), r=1.0
        )
        assert not ok
        assert report.invertible_for_r == "[0, 1)"

    def test_column_stochastic_lower_bound_is_exact(self):
        ok, report = cn.check_invertibility(
            column_stochastic(0, 5), r=1.0
        )
        assert not ok
        assert report.collatz_wielandt_lower >= 1.0 - 1e-12

    def test_interval_agrees_with_verdict_on_closed_cycle(self):
        # banks 0 and 1 owe only each other and never reach the sink
        system = cn.build_system(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], [1, 1, 1, 1]
        )
        ok, report = cn.check_invertibility(system.claims.toarray(), r=1.0)
        assert not ok
        assert report.invertible_for_r == "[0, 1)"

    def test_zero_recovery_always_invertible(self, sys_a):
        ok, _ = cn.check_invertibility(
            cn.relative_claims(sys_a).matrix, r=0.0
        )
        assert ok


class TestCorollaryBound:
    def test_identity_mask_is_equality(self, sys_a):
        C = cn.relative_claims(sys_a).matrix
        all_default = cn.DefaultIndicator(flags=np.ones(3, dtype=bool))
        assert cn.corollary_radius_bound(C, all_default)

    def test_sink_only_mask_zeroes_radius(self, sys_a):
        C = cn.relative_claims(sys_a).matrix
        sink_only = cn.DefaultIndicator(flags=np.array([False, False, True]))
        assert cn.corollary_radius_bound(C, sink_only)

    def test_seeded_random_masks(self, ensemble):
        rng = np.random.default_rng(2)
        for system in ensemble[:10]:
            C = cn.relative_claims(system).matrix
            flags = rng.random(system.node_count) < 0.5
            flags[system.sink] = True
            assert cn.corollary_radius_bound(C, cn.DefaultIndicator(flags=flags))

    def test_sparse_input_stays_sparse(self):
        # a nonnegative CSR matrix the size of a 3000-bank claims matrix
        n = 3001
        C = scipy.sparse.csr_array(
            scipy.sparse.random(n, n, density=0.003, format="csr", random_state=4)
        )
        rng = np.random.default_rng(5)
        flags = rng.random(n) < 0.5
        small = C[:300, :300]
        for mask in (flags[:300], ~flags[:300], np.ones(300, dtype=bool)):
            defaults = cn.DefaultIndicator(flags=mask)
            assert cn.corollary_radius_bound(small, defaults)
            assert cn.corollary_radius_bound(small.toarray(), defaults)
        tracemalloc.start()
        try:
            assert cn.corollary_radius_bound(C, cn.DefaultIndicator(flags=flags))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * n * 8 / 20


class TestNeumannSeries:
    def test_truncated_series_matches_direct_solve(self, ensemble):
        for i, system in enumerate(ensemble[:10]):
            C = cn.relative_claims(system).matrix
            r = (0.3, 0.5, 0.7, 0.9)[i % 4]
            if r * cn.spectral_radius(C) > 0.85:
                continue
            beta = cn.beta_vector(system, r, 0.5)
            direct = np.linalg.solve(np.eye(system.node_count) - r * C, beta)
            acc = beta.copy()
            term = beta.copy()
            for _ in range(200):
                term = r * (C @ term)
                acc += term
            assert np.abs(acc - direct).max() <= 1e-8


def _katz_rejects(C, r) -> bool:
    n = C.shape[0]
    try:
        cn.generalized_katz(C, r, np.ones(n))
    except cn.SingularSystem:
        return True
    return False


def _standard_katz_rejects(A, alpha: float) -> bool:
    try:
        cn.standard_katz(A, alpha)
    except cn.SingularSystem:
        return True
    return False


class TestOneInvertibilityRule:
    """The Katz gates and ``check_invertibility`` share one verdict."""

    def assert_agree(self, C, r):
        ok, _ = cn.check_invertibility(C, float(np.max(r)))
        assert _katz_rejects(C, r) == (not ok)
        if np.ndim(r) == 0:
            assert _standard_katz_rejects(C, r) == (not ok)

    def test_acceptance_ensemble(self, ensemble):
        for system in ensemble[:40]:
            for r in (0.5, 0.9, 1.0 - 2e-12, 1.0):
                self.assert_agree(system.claims, r)

    def test_per_node_rates(self, ensemble):
        rng = np.random.default_rng(12)
        for system in ensemble[:40]:
            r = rng.uniform(0.0, 1.0, system.node_count)
            r[rng.integers(system.node_count)] = rng.choice([0.9, 1.0])
            self.assert_agree(system.claims, r)

    def test_closed_cycle_behind_sink(self):
        system = cn.build_system(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], [1, 1, 1, 1]
        )
        for r in (0.5, 1.0 - 2e-12, 1.0):
            self.assert_agree(system.claims, r)
        assert _katz_rejects(system.claims, 1.0)

    def test_stochastic_matrices(self):
        for seed in range(10):
            C = column_stochastic(seed, 6)
            for r in (0.5, 1.0 - 2e-12, 1.0):
                self.assert_agree(C, r)
            assert _katz_rejects(C, 1.0)

    def test_stochastic_matrices_a_hair_below_radius_one(self):
        # the power-iteration estimate alone lets some of these through at
        # r = 1, while the certified lower bound 1 - 1e-13 does not
        for seed in range(200):
            C = column_stochastic(seed, 6) * (1.0 - 1e-13)
            self.assert_agree(C, 1.0)
            assert _katz_rejects(C, 1.0)

    def test_norm_certifies_claims_matrices_without_a_radius(
        self, ensemble, monkeypatch
    ):
        calls = []
        real = clearnet.spectral.spectral_radius

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # bind the spy wherever a clearnet module holds the radius function
        for name, module in list(sys.modules.items()):
            if name.startswith("clearnet") and getattr(module, "spectral_radius", None) is real:
                monkeypatch.setattr(module, "spectral_radius", counting)
        rng = np.random.default_rng(3)
        for system in ensemble[:60]:
            n = system.node_count
            beta = cn.beta_vector(system, 0.5, 0.5)
            for r in (0.0, 0.5, 0.99, 1.0 - 2e-12, rng.uniform(0, 1.0 - 2e-12, n)):
                cn.generalized_katz(system.claims, r, beta)
                cn.generalized_katz(system.claims.toarray(), r, beta)
        assert calls == []

    def test_negative_entry_rejected_on_the_norm_path(self):
        C = np.array([[0.0, -0.1], [0.1, 0.0]])
        with pytest.raises(ValueError):
            cn.generalized_katz(C, 0.5, np.ones(2))
        with pytest.raises(ValueError):
            cn.standard_katz(C, 0.5)
