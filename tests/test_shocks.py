import math

import numpy as np
import pytest

import clearnet as cn
import clearnet.shocks
from conftest import contagion_only_system, csr_array, linear_scan_step, search_step_system


def never_defaultable_system():
    """Bank 1 owes nothing at all, so no asset shock can default it."""
    return cn.build_system([[0, 0, 0], [5, 0, 5], [0, 0, 0]], [4.0, 3.0, 1.0])


class TestFullDefaultShock:
    def test_sys_a_midpoint(self, sys_a):
        scenario = cn.full_default_shock(sys_a, 0.5)
        np.testing.assert_allclose(scenario.shock, [-4.5, -5.0, 0.0])
        np.testing.assert_allclose(scenario.post_shock_assets, [3.5, 4.0, 1.0])
        assert scenario.kind is cn.ShockKind.FULL_DEFAULT
        assert scenario.assets_positive

    def test_sys_0_midpoint(self, sys_0):
        scenario = cn.full_default_shock(sys_0, 0.5)
        np.testing.assert_allclose(scenario.post_shock_assets, [5.0, 4.0, 1.0])
        shocked = cn.shocked_system(sys_0, scenario)
        assert cn.fundamental_defaults(shocked).count == 3

    def test_assets_identity_and_interval_membership(self, ensemble):
        for i, system in enumerate(ensemble[:20]):
            m = 0.05 + 0.9 * ((i * 0.29) % 1.0)
            scenario = cn.full_default_shock(system, m)
            l = system.total_liabilities
            cl = csr_array(system.claims_csr) @ l
            b = system.banks
            a = scenario.post_shock_assets
            np.testing.assert_allclose(a[b], m * (l[b] - cl[b]), rtol=1e-12)
            s = scenario.shock
            o = system.pre_shock_assets
            assert np.all(s[b] > -o[b])
            assert np.all(s[b] < -o[b] + l[b] - cl[b])
            assert scenario.shock[system.sink] == 0.0

    def test_every_bank_fundamentally_defaults_in_one_round(self, ensemble):
        params = cn.ClearingParams(r=0.7)
        for system in ensemble[:20]:
            scenario = cn.full_default_shock(system, 0.4)
            shocked = cn.shocked_system(system, scenario)
            assert cn.fundamental_defaults(shocked).count == system.node_count
            solution = cn.fictitious_default_sequence(shocked, params)
            assert solution.iterations == 1
            assert solution.defaults.count == system.node_count

    @pytest.mark.parametrize("m", [0.0, 1.0, -0.2, 1.5])
    def test_interpolation_validated(self, sys_a, m):
        with pytest.raises(cn.InvalidInterpolation):
            cn.full_default_shock(sys_a, m)

    def test_precondition_checked(self):
        # bank 1's claims (12) exceed its liabilities (10)
        system = cn.build_system(
            [[0, 0, 10], [12, 0, 3], [0, 0, 0]], [5.0, 5.0, 1.0]
        )
        with pytest.raises(cn.PreconditionViolated, match=r"\[0\]"):
            cn.full_default_shock(system, 0.5)

    def test_vector_interpolation(self, sys_a):
        scenario = cn.full_default_shock(sys_a, np.array([0.3, 0.6, 0.5]))
        l = sys_a.total_liabilities
        cl = csr_array(sys_a.claims_csr) @ l
        np.testing.assert_allclose(
            scenario.post_shock_assets[:2],
            [0.3 * (l[0] - cl[0]), 0.6 * (l[1] - cl[1])],
        )


class TestRelaxedShockSearch:
    def test_returns_minimal_step_and_full_default(self, sys_a):
        params = cn.ClearingParams(r=0.8)
        scenario = cn.relaxed_shock_search(sys_a, params, max_steps=1000)
        assert 1 <= scenario.search_steps <= 1000
        shocked = cn.shocked_system(sys_a, scenario)
        solution = cn.fictitious_default_sequence(shocked, params)
        assert solution.defaults.count == sys_a.node_count
        # minimality: no earlier step already defaults every node
        k = scenario.search_steps
        assert k == 1 or not _all_default_at(sys_a, params, k - 1, 1000)

    def test_bisect_equals_linear_scan(self, ensemble):
        params = cn.ClearingParams(r=0.6)
        for system in ensemble[:6] + [contagion_only_system()]:
            scenario = cn.relaxed_shock_search(system, params, max_steps=64)
            k = linear_scan_step(system, params, 64)
            assert scenario.search_steps == k
            np.testing.assert_array_equal(
                scenario.post_shock_assets,
                search_step_system(system, k, 64).external_assets,
            )

    @pytest.mark.parametrize("max_steps, expected", [(60, 11), (1000, 167)])
    def test_contagion_only_minimal_step(self, max_steps, expected):
        # bank 0 defaults once bank 1's assets (1 - k/max_steps) * 10 pay
        # it less than 5 / 0.6, i.e. for k / max_steps > 1/6
        system = contagion_only_system()
        params = cn.ClearingParams(r=0.8)
        assert linear_scan_step(system, params, max_steps) == expected
        scenario = cn.relaxed_shock_search(system, params, max_steps=max_steps)
        assert scenario.search_steps == expected

    def test_clear_count(self, monkeypatch):
        clears = []
        real = clearnet.shocks.fictitious_default_sequence

        def counting(*args, **kwargs):
            clears.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(clearnet.shocks, "fictitious_default_sequence", counting)
        params = cn.ClearingParams(r=0.8)
        cn.relaxed_shock_search(cn.generate_random_system(3, 30, 0.2), params)
        assert len(clears) == 1
        system = contagion_only_system()
        for max_steps in (60, 1000):
            clears.clear()
            cn.relaxed_shock_search(system, params, max_steps=max_steps)
            assert len(clears) <= 2 + math.ceil(math.log2(max_steps))

    def test_default_sets_monotone_in_severity(self, sys_a):
        params = cn.ClearingParams(r=0.8)
        previous = 0
        for k in range(1, 11):
            count = _default_count_at(sys_a, params, k, max_steps=10)
            assert count >= previous
            previous = count

    def test_single_step_budget_accepts_total_wipeout(self, sys_a):
        params = cn.ClearingParams(r=0.8)
        scenario = cn.relaxed_shock_search(sys_a, params, max_steps=1)
        assert scenario.search_steps == 1
        assert not scenario.assets_positive  # assets hit zero exactly
        np.testing.assert_allclose(scenario.post_shock_assets[:2], [0.0, 0.0])

    def test_exhausted_on_unleveraged_bank(self):
        system = never_defaultable_system()
        params = cn.ClearingParams(r=0.5)
        with pytest.raises(cn.SearchExhausted) as info:
            cn.relaxed_shock_search(system, params, max_steps=25)
        assert info.value.solvent_banks == (0,)

    def test_max_steps_validated(self, sys_a):
        with pytest.raises(ValueError):
            cn.relaxed_shock_search(sys_a, cn.ClearingParams(), max_steps=0)

    def test_single_bank_search_coincides_with_full_default(self):
        # with no interbank claims, Cp = Cl = 0 and both shock families
        # collapse to a = m l on the bank
        system = cn.build_system([[0, 7], [0, 0]], [2.0, 1.0])
        scenario = cn.relaxed_shock_search(system, cn.ClearingParams(r=0.5), max_steps=1000)
        full = cn.full_default_shock(system, 1.0 - 1.0 / 1000)
        np.testing.assert_allclose(
            scenario.post_shock_assets, full.post_shock_assets, rtol=1e-12
        )


def _default_count_at(system, params, k, max_steps):
    shocked = search_step_system(system, k, max_steps)
    return cn.fictitious_default_sequence(shocked, params).defaults.count


def _all_default_at(system, params, k, max_steps):
    return _default_count_at(system, params, k, max_steps) == system.node_count


class TestRelaxedInterpolatedShock:
    def test_sys_a_equal_rates(self, sys_a):
        cert = cn.relaxed_interpolated_shock(sys_a, cn.ClearingParams(r=0.5), 0.5)
        np.testing.assert_allclose(cert.candidate[:2], [5.0, 5.0], atol=1e-12)
        np.testing.assert_allclose(
            cert.scenario.post_shock_assets, [4.25, 4.5, 1.0], atol=1e-12
        )
        np.testing.assert_allclose(cert.clearing.payments[:2], [5.0, 5.0], atol=1e-8)
        assert cert.candidate_gap <= 1e-8
        assert cert.printed_gap == pytest.approx(0.75, abs=1e-10)

    def test_zero_interbank_block_is_trivially_consistent(self, sys_0):
        cert = cn.relaxed_interpolated_shock(sys_0, cn.ClearingParams(r=0.5), 0.5)
        l = sys_0.total_liabilities
        np.testing.assert_allclose(cert.candidate[:2], 0.5 * l[:2], atol=1e-12)
        np.testing.assert_allclose(
            cert.scenario.post_shock_assets[:2], 0.5 * l[:2], atol=1e-12
        )
        assert cert.candidate_gap <= 1e-12
        assert cert.printed_gap <= 1e-12

    def test_distinct_rates_certified_by_oracle(self, sys_a):
        params = cn.ClearingParams(r=0.8)
        cert = cn.relaxed_interpolated_shock(sys_a, params, 0.5)
        shocked = cn.shocked_system(sys_a, cert.scenario)
        oracle = cn.picard_clearing_oracle(shocked, params)
        assert np.abs(oracle - cert.candidate)[:2].max() <= 1e-8

    def test_self_consistency_identity(self, ensemble):
        rng = np.random.default_rng(17)
        for system in ensemble[:10]:
            r = rng.uniform(0.15, 0.9)
            m = rng.uniform(0.1, 0.85)
            cert = cn.relaxed_interpolated_shock(system, cn.ClearingParams(r=r), m)
            p = cert.clearing.payments
            l = system.total_liabilities
            C = csr_array(system.claims_csr)
            b = system.banks
            lhs = p[b]
            rhs = (m * l + (r - m) * (C @ p))[b]
            assert np.abs(lhs - rhs).max() <= 1e-8

    def test_all_nodes_default(self, ensemble):
        cases = [(system, 0.7, 0.4) for system in ensemble[10:15]]
        cases.append((cn.generate_random_system(seed=123, n_banks=8, density=0.5), 0.6, 0.3))
        for system, r, m in cases:
            cert = cn.relaxed_interpolated_shock(system, cn.ClearingParams(r=r), m)
            assert cert.clearing.defaults.count == system.node_count
            assert cert.candidate_gap <= 1e-8

    def test_interpolation_validated(self, sys_a):
        with pytest.raises(cn.InvalidInterpolation):
            cn.relaxed_interpolated_shock(sys_a, cn.ClearingParams(r=0.5), 1.0)
