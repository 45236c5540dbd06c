import tracemalloc

import numpy as np
import pytest
import scipy.sparse

import clearnet as cn
import clearnet.centrality
import clearnet.spectral
from clearnet._linalg import Csr, column_weights
from conftest import csr_array, ensemble_system


def column_stochastic(seed: int, n: int) -> np.ndarray:
    """Dense positive matrix whose columns sum to one (no sink)."""
    rng = np.random.default_rng(seed)
    M = rng.uniform(0.1, 1.0, size=(n, n))
    return M / M.sum(axis=0)


def payment_chain(n_banks: int) -> Csr:
    """Claims matrix of bank i owing bank i + 1, the last bank owing the sink."""
    L = np.zeros((n_banks + 1, n_banks + 1))
    L[np.arange(n_banks), np.arange(1, n_banks + 1)] = 1.0
    return cn.build_system(L, np.ones(n_banks + 1)).claims_csr


class TestCollatzWielandt:
    def test_uniform_vector_on_bank_block(self, sys_a):
        block = csr_array(sys_a.claims_csr)[:2, :2]
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

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1)])
    def test_vector_of_the_wrong_shape_raises(self, sys_a, shape):
        with pytest.raises(cn.DimensionMismatch):
            cn.collatz_wielandt_value(sys_a.claims_csr, np.ones(shape))

    def test_lower_bound_property_on_many_vectors(self, sys_a, ensemble):
        rng = np.random.default_rng(21)
        matrices = [sys_a.claims_csr]
        matrices += [s.claims_csr for s in ensemble[:4]]
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
        rho = cn.spectral_radius(sys_a.claims_csr)
        assert 0 < rho < 1
        assert rho == pytest.approx(np.sqrt(0.06), abs=1e-9)

    def test_permutation_matrix(self):
        assert cn.spectral_radius(np.array([[0.0, 1], [1, 0]])) == pytest.approx(
            1.0, abs=1e-8
        )

    def test_zero_matrix(self):
        assert cn.spectral_radius(np.zeros((4, 4))) == 0.0

    def test_nilpotent_claims_matrix_is_exactly_zero(self, sys_0):
        assert cn.spectral_radius(sys_0.claims_csr) == 0.0

    @pytest.mark.parametrize("n_banks", [300, 600])
    def test_long_payment_chain_is_nilpotent(self, n_banks):
        # C^k vanishes only at k = n_banks + 1, past any fixed cap on the
        # support sweep: the lasting support is empty, and the radius exactly 0
        C = payment_chain(n_banks)
        assert clearnet.spectral._perron(C) == (0.0, 0.0)
        assert cn.spectral_radius(C) == 0.0

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


def cli_report_claims(seed: int) -> Csr:
    """Claims matrix of the benchmark's 400-bank CLI document for ``seed``."""
    derived = int(np.random.SeedSequence([seed, 0]).generate_state(1)[0])
    return cn.generate_random_system(derived, 400, 8 / 400).claims_csr


class TestStepCap:
    """The power iteration stops after a number of steps set by the matrix
    size, so a small matrix that never converges reaches the dense
    fallback at once."""

    def test_defective_matrix_reaches_the_fallback_in_a_few_hundred_products(self, seam):
        # one support step, the 200 steps of the cap at n = 2 and the two
        # quotients of the lower bound, each a product with C^T
        C = np.array([[0.5, 1.0], [0.0, 0.5]])
        assert cn.spectral_radius(C) == pytest.approx(0.5, abs=1e-10)
        assert (len(seam.column_products), len(seam.products)) == (203, 0)

    def test_converging_matrices_are_unchanged_bit_for_bit(self, ensemble, monkeypatch):
        matrices = [system.claims_csr for system in ensemble]
        matrices += [column_stochastic(seed, 6) for seed in range(10)]
        matrices += [payment_chain(300), payment_chain(600)]
        matrices += [cli_report_claims(seed) for seed in (1, 2, 3)]
        checked = [clearnet.spectral._check_nonnegative(C) for C in matrices]
        capped = [clearnet.spectral._perron(C) for C in checked]
        # without the size cap: RADIUS_MAX_ITER steps for every matrix
        monkeypatch.setattr(
            clearnet.spectral, "RADIUS_STEPS_PER_NODE", clearnet.spectral.RADIUS_MAX_ITER
        )
        assert capped == [clearnet.spectral._perron(C) for C in checked]


class TestSparseInput:
    def test_matches_dense_on_ensemble(self, ensemble):
        # one C three ways: dense, as a csr_array, and as the system's Csr
        for system in ensemble[:20]:
            C = system.claims_csr
            beta = cn.beta_vector(system, 0.8, 0.5)
            results = []
            for given in (C.toarray(), csr_array(C), C):
                ok, report = cn.check_invertibility(given, 1.0)
                katz = cn.generalized_katz(given, 0.8, beta)
                results.append((cn.spectral_radius(given), ok, report,
                                katz.sigma.tobytes(), katz.residual))
            assert results[0] == results[1] == results[2]

    def test_fallback_densifies(self, monkeypatch):
        monkeypatch.setattr(clearnet.spectral, "RADIUS_MAX_ITER", 100)
        C = scipy.sparse.csr_array(np.array([[0.5, 1.0], [0.0, 0.5]]))
        assert cn.spectral_radius(C) == pytest.approx(0.5, abs=1e-10)

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError):
            cn.spectral_radius(scipy.sparse.csr_array(np.array([[0.0, -1.0], [0.0, 0.0]])))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_every_entry_rejects_non_finite_entries(bad):
    # a check for negative entries alone lets NaN and inf through:
    # spectral_radius gave 0 for the NaN, and generalized_katz a
    # SingularSystem quoting a radius of 0
    C = np.array([[0.0, bad, 0.0], [0.5, 0.0, 0.0], [0.5, 0.0, 0.0]])
    everyone = cn.DefaultIndicator(flags=np.ones(3, dtype=bool))
    for given in (C, scipy.sparse.csr_array(C)):
        for call in (lambda: cn.spectral_radius(given),
                     lambda: cn.check_invertibility(given, 0.9),
                     lambda: cn.generalized_katz(given, 0.9, np.ones(3)),
                     lambda: cn.standard_katz(given, 0.5),
                     lambda: cn.collatz_wielandt_value(given, np.ones(3)),
                     lambda: cn.corollary_radius_bound(given, everyone)):
            with pytest.raises(ValueError, match="finite"):
                call()


def test_column_norm_is_the_largest_column_sum_bit_for_bit(ensemble):
    matrices = [csr_array(system.claims_csr) for system in ensemble]
    matrices += [csr_array(cn.generate_random_system(7, 1500, d).claims_csr)
                 for d in (8 / 1500, 0.03)]
    matrices.append(scipy.sparse.csr_array(column_stochastic(2, 40)))
    for C in matrices:
        got = column_weights(C, np.ones(C.shape[0])).max()
        assert got == float(C.sum(axis=0).max(initial=0.0))


class TestCheckInvertibility:
    def test_full_recovery_with_sink(self, sys_a):
        ok, report = cn.check_invertibility(
            sys_a.claims_csr, r=1.0
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
        ok, report = cn.check_invertibility(system.claims_csr.toarray(), r=1.0)
        assert not ok
        assert report.invertible_for_r == "[0, 1)"

    def test_zero_recovery_always_invertible(self, sys_a):
        ok, _ = cn.check_invertibility(
            sys_a.claims_csr, r=0.0
        )
        assert ok

    @pytest.mark.parametrize("r", [-2.0, 1.5, np.nan, [0.5, 1.5]])
    def test_rate_outside_unit_interval_rejected(self, r):
        # a negative rate would pass the rule max(r) * ... < 1 - 1e-12
        with pytest.raises(cn.ValidationError, match="recovery rate r must lie in"):
            cn.check_invertibility(np.array([[0.0, 1.0], [1.0, 0.0]]), r)

    def test_empty_matrix_still_checks_the_rate(self):
        # a scalar rate is checked as given, not over its length-0 expansion
        with pytest.raises(cn.ValidationError, match="recovery rate r must lie in"):
            cn.check_invertibility(np.zeros((0, 0)), 5.0)
        ok, _ = cn.check_invertibility(np.zeros((0, 0)), 0.5)
        assert ok


def _max_abs_eig(C) -> float:
    C = C.toarray() if hasattr(C, "toarray") else np.asarray(C)
    return float(np.max(np.abs(np.linalg.eigvals(C)), initial=0.0))


def assert_estimate_brackets(C):
    """The reported estimate is within 1e-8 of max|eig| and not below the
    certified bound reported beside it."""
    _, report = cn.check_invertibility(C, 1.0)
    assert abs(report.radius_estimate - _max_abs_eig(C)) <= 1e-8
    assert report.radius_estimate >= report.collatz_wielandt_lower
    assert cn.spectral_radius(C) == report.radius_estimate


class TestEstimateAndBound:
    """One power iteration yields the radius estimate and its certified
    lower bound, so the estimate never falls below the bound."""

    @pytest.mark.parametrize("index", [146, 193, 195])
    def test_estimate_not_below_bound_on_small_ensemble_systems(self, index):
        _, report = cn.check_invertibility(ensemble_system(index).claims_csr, 1.0)
        assert report.radius_estimate >= report.collatz_wielandt_lower

    def test_estimate_not_below_bound_on_a_two_cycle_beside_a_zero(self):
        C = np.array([[0, 0.5, 0], [0.5, 0, 0], [0, 0, 0]])
        _, report = cn.check_invertibility(C, 1.0)
        assert report.radius_estimate >= report.collatz_wielandt_lower
        assert report.collatz_wielandt_lower == pytest.approx(0.5, abs=1e-12)

    def test_ensemble(self, ensemble):
        for system in ensemble:
            assert_estimate_brackets(system.claims_csr)

    def test_column_stochastic(self):
        for seed in range(10):
            assert_estimate_brackets(column_stochastic(seed, 6))

    @pytest.mark.parametrize("n_banks", [300, 600])
    def test_payment_chains(self, n_banks):
        assert_estimate_brackets(payment_chain(n_banks))

    def test_dense_fallback(self, ensemble, monkeypatch):
        monkeypatch.setattr(clearnet.spectral, "RADIUS_MAX_ITER", 100)
        for C in [np.array([[0.5, 1.0], [0.0, 0.5]])] + [s.claims_csr for s in ensemble[:20]]:
            assert_estimate_brackets(C)

    def test_check_invertibility_takes_one_support_pass(self, sys_a, monkeypatch):
        calls = []
        real = clearnet.spectral._lasting_support

        def counting(C):
            calls.append(C)
            return real(C)

        monkeypatch.setattr(clearnet.spectral, "_lasting_support", counting)
        cn.check_invertibility(sys_a.claims_csr, 1.0)
        assert len(calls) == 1


class TestCorollaryBound:
    def test_identity_mask_is_equality(self, sys_a):
        C = sys_a.claims_csr
        all_default = cn.DefaultIndicator(flags=np.ones(3, dtype=bool))
        assert cn.corollary_radius_bound(C, all_default)

    def test_sink_only_mask_zeroes_radius(self, sys_a):
        C = sys_a.claims_csr
        sink_only = cn.DefaultIndicator(flags=np.array([False, False, True]))
        assert cn.corollary_radius_bound(C, sink_only)

    @pytest.mark.parametrize("n_flags", [2, 4])
    def test_mask_of_the_wrong_length_raises(self, sys_a, n_flags):
        defaults = cn.DefaultIndicator(flags=np.ones(n_flags, dtype=bool))
        with pytest.raises(cn.DimensionMismatch):
            cn.corollary_radius_bound(sys_a.claims_csr, defaults)

    def test_seeded_random_masks(self, ensemble):
        rng = np.random.default_rng(2)
        for system in ensemble[:10]:
            C = system.claims_csr
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


def test_each_public_entry_checks_the_matrix_once(sys_a, monkeypatch):
    checks = []
    real = clearnet.spectral._check_nonnegative

    def counting(C):
        checks.append(C)
        return real(C)

    for module in (clearnet.spectral, clearnet.centrality):
        monkeypatch.setattr(module, "_check_nonnegative", counting)
    C = sys_a.claims_csr
    everyone = cn.DefaultIndicator(flags=np.ones(sys_a.node_count, dtype=bool))
    beta = cn.beta_vector(sys_a, 0.8, 0.5)
    for call in (
        lambda: cn.check_invertibility(C, 1.0),
        lambda: cn.spectral_radius(C),
        lambda: cn.collatz_wielandt_value(C, np.ones(sys_a.node_count)),
        lambda: cn.corollary_radius_bound(C, everyone),
        lambda: cn.generalized_katz(C, 0.8, beta),
        lambda: cn.generalized_katz(C, 1.0, beta),
        lambda: cn.standard_katz(C, 0.8),
    ):
        checks.clear()
        call()
        assert len(checks) == 1


class TestNeumannSeries:
    def test_truncated_series_matches_direct_solve(self, ensemble):
        for i, system in enumerate(ensemble[:10]):
            C = csr_array(system.claims_csr)
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
                self.assert_agree(system.claims_csr, r)

    def test_per_node_rates(self, ensemble):
        rng = np.random.default_rng(12)
        for system in ensemble[:40]:
            r = rng.uniform(0.0, 1.0, system.node_count)
            r[rng.integers(system.node_count)] = rng.choice([0.9, 1.0])
            self.assert_agree(system.claims_csr, r)

    def test_closed_cycle_behind_sink(self):
        system = cn.build_system(
            [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]], [1, 1, 1, 1]
        )
        for r in (0.5, 1.0 - 2e-12, 1.0):
            self.assert_agree(system.claims_csr, r)
        assert _katz_rejects(system.claims_csr, 1.0)

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
        real = clearnet.spectral._perron

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        # the power iteration behind every radius, public or internal
        monkeypatch.setattr(clearnet.spectral, "_perron", counting)
        rng = np.random.default_rng(3)
        for system in ensemble[:60]:
            n = system.node_count
            beta = cn.beta_vector(system, 0.5, 0.5)
            for r in (0.0, 0.5, 0.99, 1.0 - 2e-12, rng.uniform(0, 1.0 - 2e-12, n)):
                cn.generalized_katz(system.claims_csr, r, beta)
                cn.generalized_katz(system.claims_csr.toarray(), r, beta)
        assert calls == []

    def test_negative_entry_rejected_on_the_norm_path(self):
        C = np.array([[0.0, -0.1], [0.1, 0.0]])
        with pytest.raises(ValueError):
            cn.generalized_katz(C, 0.5, np.ones(2))
        with pytest.raises(ValueError):
            cn.standard_katz(C, 0.5)
