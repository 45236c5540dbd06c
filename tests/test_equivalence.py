import numpy as np
import pytest
import scipy.sparse
from hypothesis import example, given, settings
from hypothesis import strategies as st

import clearnet as cn
from conftest import csr_array, partial_default_variant
from test_centrality import single_creditor_chain


def scaled(system: cn.FinancialSystem, e: int) -> cn.FinancialSystem:
    """``system`` with its liabilities and both asset vectors times ``2**e``,
    which every float operation of the model carries exactly."""
    f = 2.0**e
    L = csr_array(system.liabilities_csr)
    return cn.build_system(L * f, system.pre_shock_assets * f, system.external_assets * f)


def ring(s: float) -> cn.FinancialSystem:
    """Two banks owing each other ``s`` and the sink 1 each: every bank's
    headroom ``l - C l`` is 1, against liabilities of ``s + 1``."""
    return cn.build_system([[0, s, 1], [s, 0, 1], [0, 0, 0]], [1.0, 1.0, 1.0])


class TestFullShockEquivalence:
    def test_sys_a(self, sys_a):
        report = cn.verify_full_shock_equivalence(
            sys_a, cn.ClearingParams(r=0.8), 0.5, tol=1e-8
        )
        assert report.passed
        assert report.one_step
        assert report.all_defaulted
        assert report.max_abs_gap <= 1e-8

    def test_sys_a_loss_values(self, sys_a):
        params = cn.ClearingParams(r=0.8)
        scenario = cn.full_default_shock(sys_a, 0.5)
        shocked = cn.shocked_system(sys_a, scenario)
        solution = cn.fictitious_default_sequence(shocked, params)
        sigma = cn.systemic_loss(solution, sys_a.total_liabilities)
        np.testing.assert_allclose(sigma[:2], (5.36190, 5.25790), atol=1e-4)

    def test_trivial_interbank_block(self, sys_0):
        report = cn.verify_full_shock_equivalence(sys_0, cn.ClearingParams(r=0.5), 0.5)
        assert report.passed
        # with no interbank claims both routes reduce to (1 - m) l
        l = sys_0.total_liabilities
        beta = cn.beta_vector(sys_0, 0.5, 0.5)
        np.testing.assert_allclose(beta[:2], 0.5 * l[:2])

    def test_precondition_guard_propagates(self):
        system = cn.build_system(
            [[0, 0, 10], [12, 0, 3], [0, 0, 0]], [5.0, 5.0, 1.0]
        )
        with pytest.raises(cn.PreconditionViolated):
            cn.verify_full_shock_equivalence(system, cn.ClearingParams(r=0.5), 0.5)

    @pytest.mark.parametrize("r_a", [0.6, 0.0])
    def test_asset_recovery_below_one_rejected(self, r_a):
        # beta assumes r_a = 1; below it the two routes differ (by 12.48
        # here at r_a = 0.6), so the check refuses rather than fail
        system = cn.generate_random_system(3, 50, 0.1)
        with pytest.raises(cn.ValidationError, match="r_a = 1"):
            cn.verify_full_shock_equivalence(
                system, cn.ClearingParams(r=0.7, r_a=r_a), 0.5
            )

    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_invalid_tolerance_rejected(self, sys_a, tol):
        # NaN would fail every comparison and inf pass every one
        with pytest.raises(cn.ValidationError, match="tol must be finite and nonnegative"):
            cn.verify_full_shock_equivalence(sys_a, cn.ClearingParams(r=0.8), 0.5, tol=tol)

    def test_report_carries_the_tolerance_it_used(self, sys_a):
        params = cn.ClearingParams(r=0.8)
        report = cn.verify_full_shock_equivalence(sys_a, params, 0.5)
        assert report.tolerance == cn.default_tolerance(sys_a)
        assert cn.verify_full_shock_equivalence(sys_a, params, 0.5, tol=0.0).tolerance == 0.0

    def test_ranking_agreement_on_ensemble(self, ensemble):
        params = cn.ClearingParams(r=0.7)
        for system in ensemble[:15]:
            scenario = cn.full_default_shock(system, 0.5)
            shocked = cn.shocked_system(system, scenario)
            solution = cn.fictitious_default_sequence(shocked, params)
            l = system.total_liabilities
            sigma_clearing = cn.systemic_loss(solution, l)[system.banks]
            beta = cn.beta_vector(system, 0.7, 0.5)
            sigma_katz = cn.generalized_katz(
                system.claims_csr, 0.7, beta
            ).sigma[system.banks]
            np.testing.assert_array_equal(
                np.argsort(-sigma_clearing, kind="stable"),
                np.argsort(-sigma_katz, kind="stable"),
            )

    @pytest.mark.parametrize("e", [-50, -40, -30, 0, 30])
    def test_scaled_network_passes(self, e):
        # a band with an absolute floor flagged no bank at 2**-50 and left
        # the clear two rounds at 2**-40
        system = scaled(cn.generate_random_system(1, 50, 0.1), e)
        report = cn.verify_full_shock_equivalence(system, cn.ClearingParams(r=0.9), 0.5)
        assert report.passed
        assert report.one_step
        assert report.all_defaulted

    def test_ring_outside_the_band_passes(self):
        report = cn.verify_full_shock_equivalence(ring(1e11), cn.ClearingParams(r=0.7), 0.5)
        assert report.passed

    @pytest.mark.parametrize("s", [1e12, 1e14])
    def test_ring_inside_the_band_raises(self, s):
        # its equity of -0.5 is within the band of about -s * 1e-12, so the
        # clear sees no default; the shock is refused rather than fail
        with pytest.raises(cn.PreconditionViolated, match="solvency band"):
            cn.verify_full_shock_equivalence(ring(s), cn.ClearingParams(r=0.7), 0.5)

    def test_vector_rates_equivalence(self, sys_a):
        r = np.array([0.8, 0.6, 0.7])
        m = np.array([0.5, 0.3, 0.5])
        report = cn.verify_full_shock_equivalence(sys_a, cn.ClearingParams(r=r), m)
        assert report.passed


def assert_scaled(got, want, f):
    assert got.tobytes() == (want * f).tobytes()


class TestScaleEquivariance:
    """Scaling ``L`` and the assets by ``2**e`` scales every payment, loss
    and shock by ``2**e`` exactly and changes no flag, round or verdict."""

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 199),
        e=st.integers(-60, 60),
        r=st.sampled_from([0.1, 0.5, 0.9, 1.0]),
        m=st.sampled_from([0.1, 0.5, 0.9]),
    )
    @example(seed=1, e=-50, r=0.9, m=0.5)
    @example(seed=1, e=-40, r=0.9, m=0.5)
    def test_clear_and_shock_are_equivariant(self, ensemble, seed, e, r, m):
        base = ensemble[seed]
        f = 2.0**e
        params = cn.ClearingParams(r=r)
        for system in (base, partial_default_variant(base, seed)):
            want = cn.fictitious_default_sequence(system, params)
            got = cn.fictitious_default_sequence(scaled(system, e), params)
            assert_scaled(got.payments, want.payments, f)
            assert got.iterations == want.iterations
            assert got.default_history == want.default_history
            l = system.total_liabilities
            assert_scaled(cn.systemic_loss(got, l * f), cn.systemic_loss(want, l), f)
        want = cn.full_default_shock(base, m)
        got = cn.full_default_shock(scaled(base, e), m)
        assert_scaled(got.shock, want.shock, f)
        assert_scaled(got.post_shock_assets, want.post_shock_assets, f)
        verdict = cn.verify_full_shock_equivalence(scaled(base, e), params, m)
        assert verdict.passed


def _relaxed_bank_gap(system, params, m):
    """Certificate of the relaxed shock and the max gap on banks between its
    candidate and the clearing vector of the shocked system."""
    cert = cn.relaxed_interpolated_shock(system, params, m)
    gap = np.abs(cert.clearing.payments - cert.candidate)[system.banks].max()
    assert cert.clearing.defaults.count == system.node_count
    assert gap == cert.candidate_gap
    return cert, gap


class TestRelaxedEquivalence:
    def test_sys_a_equal_rates(self, sys_a):
        cert, gap = _relaxed_bank_gap(sys_a, cn.ClearingParams(r=0.5), 0.5)
        assert gap <= 1e-8
        assert cert.printed_gap == pytest.approx(0.75, abs=1e-10)

    def test_zero_interbank_block_both_forms_agree(self, sys_0):
        cert, gap = _relaxed_bank_gap(sys_0, cn.ClearingParams(r=0.5), 0.5)
        assert gap <= 1e-10
        assert cert.printed_gap <= 1e-10

    def test_seeded_system(self):
        system = cn.generate_random_system(seed=123, n_banks=8, density=0.5)
        _, gap = _relaxed_bank_gap(system, cn.ClearingParams(r=0.6), 0.3)
        assert gap <= 1e-8


class TestKatzReduction:
    def test_three_bank_chain(self):
        assert cn.verify_katz_reduction(single_creditor_chain(), r=0.5)

    def test_equal_weights_chain(self):
        assert cn.verify_katz_reduction(single_creditor_chain((3.0, 3.0, 3.0)), r=0.3)

    def test_multi_creditor_system_rejected(self, sys_a):
        with pytest.raises(cn.NotSingleCreditor,
                           match=r"^bank\(s\) \[0, 1\] do not have exactly one creditor$"):
            cn.verify_katz_reduction(sys_a, r=0.5)

    def test_bank_without_creditors_rejected(self):
        system = cn.build_system([[0, 0, 0], [5, 0, 5], [0, 0, 0]], [4.0, 3.0, 1.0])
        with pytest.raises(cn.NotSingleCreditor,
                           match=r"^bank\(s\) \[0, 1\] do not have exactly one creditor$"):
            cn.verify_katz_reduction(system, r=0.5)
        system = cn.build_system([[0, 0, 0], [0, 0, 5], [0, 0, 0]], [4.0, 3.0, 1.0])
        with pytest.raises(cn.NotSingleCreditor,
                           match=r"^bank\(s\) \[0\] do not have exactly one creditor$"):
            cn.verify_katz_reduction(system, r=0.5)

    def test_stored_zeros_are_not_creditors(self):
        # a zero liability, of either sign or stored explicitly, names no creditor
        explicit = scipy.sparse.csr_array(
            ([0.0, 4.0, 3.0], [1, 2, 2], [0, 2, 3, 3]), shape=(3, 3)
        )
        for L in ([[0, 0.0, 4], [0, 0, 3], [0, 0, 0]],
                  [[0, -0.0, 4], [0, 0, 3], [0, 0, 0]], explicit):
            system = cn.build_system(L, [1.0, 1.0, 1.0])
            assert cn.verify_katz_reduction(system, r=0.5)

    def test_single_bank(self):
        system = cn.build_system([[0, 7], [0, 0]], [2.0, 1.0])
        assert cn.verify_katz_reduction(system, r=0.5)
