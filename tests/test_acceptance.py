"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary lines alongside pytest's own pass/fail report.
"""
import numpy as np
import pytest

import clearnet as cn
from conftest import (
    M_VALUES,
    R_VALUES,
    contagion_only_system,
    ensemble_system,
    linear_scan_step,
    partial_default_variant,
)

SYS_A = cn.build_system([[0, 2, 8], [3, 0, 7], [0, 0, 0]], [8.0, 9.0, 1.0])


def _announce(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number}: PASS — {text}")


@pytest.fixture(scope="module")
def radii(ensemble):
    return [cn.spectral_radius(cn.relative_claims(s).matrix) for s in ensemble]


def test_criterion_01_full_shock_equivalence(ensemble, radii):
    """Clearing losses equal the centrality solve on 200 systems x 25 grid
    points, with one-round convergence everywhere."""
    checked = 0
    worst = 0.0
    for system, rho in zip(ensemble, radii):
        for r in R_VALUES:
            if r * rho >= 1.0:
                continue
            params = cn.ClearingParams(r=r)
            for m in M_VALUES:
                report = cn.verify_full_shock_equivalence(system, params, m)
                assert report.passed, (system, r, m, report.max_abs_gap)
                assert report.one_step
                assert report.all_defaulted
                worst = max(worst, report.max_abs_gap)
                checked += 1
    assert checked == len(ensemble) * len(R_VALUES) * len(M_VALUES)
    _announce(1, f"{checked} (system, r, m) runs, worst gap {worst:.2e}")


def test_criterion_02_hand_derived_fixture():
    """Desk-scale fixture: payments and losses match the hand solves."""
    params = cn.ClearingParams(r=0.8)
    scenario = cn.full_default_shock(SYS_A, 0.5)
    shocked = cn.shocked_system(SYS_A, scenario)
    solution = cn.fictitious_default_sequence(shocked, params)
    np.testing.assert_allclose(solution.payments[:2], (4.63810, 4.74210), atol=1e-4)
    sigma = cn.systemic_loss(solution, cn.total_liabilities(SYS_A))
    np.testing.assert_allclose(sigma[:2], (5.36190, 5.25790), atol=1e-4)
    _announce(2, "p = (4.63810, 4.74210), sigma = (5.36190, 5.25790) within 1e-4")


def test_criterion_03_oracle_equivalence(ensemble):
    """Default-set iteration agrees with the fixed-point oracle on the full
    shocked ensemble plus 100 partial-default scenarios."""
    checked = 0
    worst = 0.0

    def compare(system, params):
        nonlocal checked, worst
        solution = cn.fictitious_default_sequence(system, params)
        oracle = cn.picard_clearing_oracle(system, params)
        gap = float(np.abs(solution.payments - oracle)[system.banks].max(initial=0.0))
        assert gap <= 1e-8, gap
        worst = max(worst, gap)
        checked += 1

    for system in ensemble:
        for m in M_VALUES:
            shocked = cn.shocked_system(system, cn.full_default_shock(system, m))
            for r in R_VALUES:
                compare(shocked, cn.ClearingParams(r=r))
    for i in range(100):
        system = partial_default_variant(ensemble[i], seed=i)
        compare(system, cn.ClearingParams(r=0.1 + 0.8 * ((i * 0.43) % 1.0)))
    _announce(3, f"{checked} solves, worst oracle gap {worst:.2e}")


def test_criterion_04_iteration_bound(ensemble):
    """Outer iterations never exceed the node count."""
    worst = 0
    for i, system in enumerate(ensemble):
        shocked = partial_default_variant(system, seed=1000 + i)
        params = cn.ClearingParams(r=0.1 + 0.8 * ((i * 0.37) % 1.0))
        solution = cn.fictitious_default_sequence(shocked, params)
        assert solution.iterations <= shocked.node_count
        worst = max(worst, solution.iterations)
        full = cn.shocked_system(system, cn.full_default_shock(system, 0.5))
        assert cn.fictitious_default_sequence(full, params).iterations == 1
    _announce(4, f"max outer iterations observed: {worst} (bound: node count)")


def test_criterion_05_invertibility_theorem(ensemble, radii):
    """Radius strictly below one with a sink; exactly one without a sink
    when every column is stochastic; invertibility verdicts at r = 1."""
    assert max(radii) < 1.0 - 1e-10
    rng = np.random.default_rng(99)
    for seed in range(20):
        n = int(rng.integers(2, 12))
        M = rng.uniform(0.05, 1.0, size=(n, n))
        stochastic = M / M.sum(axis=0)
        assert cn.spectral_radius(stochastic) == pytest.approx(1.0, abs=1e-8)
    assert cn.spectral_radius(np.array([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(
        1.0, abs=1e-8
    )
    ok, _ = cn.check_invertibility(
        cn.relative_claims(SYS_A).matrix, r=1.0
    )
    assert ok
    M = rng.uniform(0.05, 1.0, size=(5, 5))
    ok, _ = cn.check_invertibility(M / M.sum(axis=0), r=1.0)
    assert not ok
    _announce(
        5,
        f"max ensemble radius {max(radii):.4f} < 1; stochastic radii = 1 within 1e-8",
    )


def test_criterion_06_masked_radius_bound(ensemble):
    """rho(D C D) <= rho(C) for 100 random mask pairs."""
    rng = np.random.default_rng(31)
    for i in range(100):
        system = ensemble[i % len(ensemble)]
        C = cn.relative_claims(system).matrix
        flags = rng.random(system.node_count) < rng.uniform(0.2, 0.9)
        flags[system.sink] = True
        assert cn.corollary_radius_bound(C, cn.DefaultIndicator(flags=flags))
    _announce(6, "rho(DCD) <= rho(C) + 1e-10 on 100 seeded (C, D) pairs")


def _thin_sink_system(seed: int, n_banks: int, sink_share: float) -> cn.FinancialSystem:
    """Dense interbank block where every bank routes only ``sink_share`` of
    its liabilities outside, putting the claims-matrix radius at
    ``1 - sink_share``."""
    rng = np.random.default_rng(seed)
    W = rng.uniform(0.5, 1.5, size=(n_banks, n_banks))
    np.fill_diagonal(W, 0.0)
    interbank = W.sum(axis=1)
    L = np.zeros((n_banks + 1, n_banks + 1))
    L[:n_banks, :n_banks] = W
    L[:n_banks, n_banks] = interbank * sink_share / (1.0 - sink_share)
    return cn.build_system(L, np.ones(n_banks + 1) + interbank.sum())


def test_criterion_07_neumann_series(ensemble, radii):
    """Truncated 200-term series matches the direct solve within 1e-8 for
    attenuations r * rho(C) <= 0.95 (sampled up to ~0.86; past that the
    200-term tail itself exceeds the tolerance, see the radius bound
    (r rho)^201 / (1 - r rho) * ||beta||)."""
    cases = [(s, rho) for s, rho in zip(ensemble[:60], radii)]
    cases += [
        (_thin_sink_system(seed, 12, sink_share=0.05), None) for seed in range(10)
    ]
    checked = 0
    strongest = 0.0
    for system, rho in cases:
        C = cn.relative_claims(system).matrix
        if rho is None:
            rho = cn.spectral_radius(C)
        n = system.node_count
        for r in R_VALUES:
            if r * rho > 0.86:
                continue
            beta = cn.beta_vector(system, r, 0.5)
            direct = np.linalg.solve(np.eye(n) - r * C, beta)
            acc = beta.copy()
            term = beta.copy()
            for _ in range(200):
                term = r * (C @ term)
                acc += term
            assert np.abs(acc - direct).max() <= 1e-8
            strongest = max(strongest, r * rho)
            checked += 1
    assert checked >= 200
    assert strongest > 0.8  # the sample genuinely reaches strong attenuation
    _announce(7, f"{checked} series checks, attenuation up to {strongest:.3f}")


def test_criterion_08_relaxed_shock_certification(ensemble):
    """Certified candidate matches full clearing within 1e-8 on 50 seeded
    systems; the alternative closed form's residual is recorded only."""
    rng = np.random.default_rng(55)
    printed_gaps = []
    for system in ensemble[:50]:
        r = float(rng.uniform(0.15, 0.9))
        m = float(rng.uniform(0.1, 0.85))
        cert = cn.relaxed_interpolated_shock(system, cn.ClearingParams(r=r), m)
        assert cert.candidate_gap <= 1e-8
        assert cert.clearing.defaults.count == system.node_count
        printed_gaps.append(cert.printed_gap)

    cert = cn.relaxed_interpolated_shock(SYS_A, cn.ClearingParams(r=0.5), 0.5)
    np.testing.assert_allclose(cert.clearing.payments[:2], [5.0, 5.0], atol=1e-8)
    np.testing.assert_allclose(cert.printed_payments[:2], [5.75, 5.5], atol=1e-10)
    assert cert.printed_gap == pytest.approx(0.75, abs=1e-8)
    _announce(
        8,
        "50 certifications passed; printed-form residual recorded "
        f"(median {np.median(printed_gaps):.3g}, fixture gap 0.75)",
    )


def _single_creditor_tree(seed: int, n_banks: int) -> cn.FinancialSystem:
    rng = np.random.default_rng(seed)
    L = np.zeros((n_banks + 1, n_banks + 1))
    for i in range(n_banks):
        creditor = n_banks if i == 0 else int(rng.integers(0, i))
        L[i, creditor] = float(rng.uniform(0.5, 5.0))
    return cn.build_system(L, np.ones(n_banks + 1))


def test_criterion_09_katz_reduction():
    """Normalized centrality equals textbook Katz on 20 single-creditor
    chain/tree systems with equal rates."""
    rng = np.random.default_rng(77)
    for seed in range(20):
        system = _single_creditor_tree(seed, n_banks=int(rng.integers(1, 15)))
        r = float(rng.uniform(0.1, 0.9))
        assert cn.verify_katz_reduction(system, r=r)
    _announce(9, "20 chain/tree reductions matched standard Katz within 1e-10")


def test_criterion_10_structural_properties(ensemble):
    """Payment bounds, nonnegative losses, currency-scale homogeneity, and
    monotone default history on every solve."""
    params = cn.ClearingParams(r=0.65)
    for i, system in enumerate(ensemble[:40]):
        shocked = partial_default_variant(system, seed=2000 + i)
        solution = cn.fictitious_default_sequence(shocked, params)
        l = cn.total_liabilities(shocked)
        b = shocked.banks
        assert np.all(solution.payments[b] >= 0)
        assert np.all(solution.payments[b] <= l[b])
        sigma = cn.systemic_loss(solution, l)
        assert np.all(sigma >= 0)
        for earlier, later in zip(solution.default_history, solution.default_history[1:]):
            assert earlier.issubset(later)
        for c in (1e-3, 1.0, 1e3):
            scaled = cn.build_system(
                c * shocked.liabilities,
                c * shocked.pre_shock_assets,
                c * shocked.external_assets,
            )
            p_scaled = cn.fictitious_default_sequence(scaled, params).payments
            scale = c * max(1.0, float(solution.payments.max()))
            assert np.abs(p_scaled - c * solution.payments).max() <= 1e-10 * scale
    _announce(10, "bounds, loss sign, homogeneity (c in {1e-3, 1, 1e3}), history")


def test_criterion_11_stepwise_search():
    """The search returns the linear-scan minimum and reports exhaustion on
    a bank that no asset shock can default."""
    params = cn.ClearingParams(r=0.7)
    systems = [ensemble_system(3 * i) for i in range(6)] + [contagion_only_system()]
    for system in systems:
        scenario = cn.relaxed_shock_search(system, params, max_steps=50)
        assert scenario.search_steps == linear_scan_step(system, params, 50)
        shocked = cn.shocked_system(system, scenario)
        solution = cn.fictitious_default_sequence(shocked, params)
        assert solution.defaults.count == system.node_count

    over_capitalized = cn.build_system(
        [[0, 0, 0], [5, 0, 5], [0, 0, 0]], [4.0, 3.0, 1.0]
    )
    with pytest.raises(cn.SearchExhausted) as info:
        cn.relaxed_shock_search(over_capitalized, params, max_steps=20)
    assert info.value.solvent_banks == (0,)
    _announce(11, "minimal step verified against linear scan; exhaustion raised")
