import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse

import clearnet as cn
from clearnet._linalg import as_csr


class TestBuildSystem:
    def test_sys_a_is_valid(self, sys_a):
        assert sys_a.node_count == 3
        assert sys_a.n_banks == 2
        assert sys_a.sink == 2
        np.testing.assert_array_equal(sys_a.external_assets, [8, 9, 1])
        np.testing.assert_array_equal(sys_a.pre_shock_assets, [8, 9, 1])

    def test_sink_owing_a_bank_is_rejected(self):
        L = [[0, 2, 8], [3, 0, 7], [1, 0, 0]]
        with pytest.raises(cn.NonzeroSinkRow, match="node 0"):
            cn.build_system(L, [8, 9, 1])

    def test_degenerate_sink_only_system(self):
        system = cn.build_system([[0.0]], [1.0])
        assert system.node_count == 1
        assert system.n_banks == 0

    def test_negative_liability_names_index(self):
        L = [[0, -2, 8], [3, 0, 7], [0, 0, 0]]
        with pytest.raises(cn.NegativeEntry, match=r"\[0\]\[1\]"):
            cn.build_system(L, [8, 9, 1])

    def test_self_liability_rejected(self):
        L = [[1, 2, 8], [3, 0, 7], [0, 0, 0]]
        with pytest.raises(cn.NonzeroDiagonal, match="node 0"):
            cn.build_system(L, [8, 9, 1])

    def test_dimension_mismatch(self):
        with pytest.raises(cn.DimensionMismatch):
            cn.build_system([[0, 1], [0, 0]], [1, 2, 3])
        with pytest.raises(cn.DimensionMismatch):
            cn.build_system([[0, 1, 0], [0, 0, 0]], [1, 2])

    def test_non_finite_rejected(self):
        with pytest.raises(cn.DimensionMismatch, match="finite"):
            cn.build_system([[0, np.inf], [0, 0]], [1, 1])

    def test_overflowing_row_sum_rejected(self):
        # every entry is finite, but bank 0's total liability overflows
        with pytest.raises(cn.DimensionMismatch, match="finite"):
            cn.build_system([[0, 1e308, 1e308], [0, 0, 1], [0, 0, 0]], [1, 1, 1])

    def test_negative_assets_rejected(self):
        with pytest.raises(cn.NegativeEntry, match=r"pre_shock_assets\[0\]"):
            cn.build_system([[0, 1], [0, 0]], [-1, 1])
        with pytest.raises(cn.NegativeEntry, match="sink"):
            cn.build_system([[0, 1], [0, 0]], [1, 0])

    def test_external_assets_default_to_pre_shock(self, sys_a):
        np.testing.assert_array_equal(sys_a.external_assets, sys_a.pre_shock_assets)

    def test_non_finite_external_assets_rejected(self):
        system = cn.build_system([[0, 5, 5], [5, 0, 5], [0, 0, 0]], [1, 1, 1])
        for bad in (np.nan, np.inf):
            with pytest.raises(cn.ValidationError, match="finite"):
                system.with_external_assets([bad, 1, 1])

    def test_shocked_copies_share_liabilities_and_claims(self, sys_a):
        scenario = cn.full_default_shock(sys_a, 0.5)
        shocked = cn.shocked_system(sys_a, scenario)
        assert cn.relative_claims(shocked).matrix is cn.relative_claims(sys_a).matrix
        assert cn.total_liabilities(shocked) is cn.total_liabilities(sys_a)
        with pytest.raises(ValueError):
            cn.relative_claims(sys_a).matrix[0, 1] = 5.0
        # an insertion is refused too, once scipy's efficiency warning passes
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", scipy.sparse.SparseEfficiencyWarning)
            with pytest.raises(ValueError):
                cn.relative_claims(sys_a).matrix[0, 0] = 5.0
        assert sys_a.claims.nnz == 4
        with pytest.raises(ValueError):
            cn.total_liabilities(sys_a)[0] = 5.0

    def test_shocked_copies_share_the_sparse_claims(self, sys_a):
        shocked = cn.shocked_system(sys_a, cn.full_default_shock(sys_a, 0.5))
        assert shocked.claims is sys_a.claims
        assert cn.relative_claims(sys_a).matrix is sys_a.claims
        C = sys_a.claims
        for part in (C.data, C.indices, C.indptr):
            with pytest.raises(ValueError):
                part[0] = 0

    def test_arrays_are_immutable(self, sys_a):
        with pytest.raises(ValueError):
            sys_a.liabilities[0, 1] = 5.0
        with pytest.raises(ValueError):
            sys_a.external_assets[0] = 5.0


class TestTotalLiabilities:
    def test_sys_a(self, sys_a):
        np.testing.assert_array_equal(cn.total_liabilities(sys_a), [10, 10, 0])

    def test_zero_matrix(self):
        system = cn.build_system(np.zeros((3, 3)), [1, 1, 1])
        np.testing.assert_array_equal(cn.total_liabilities(system), [0, 0, 0])

    def test_sys_0(self, sys_0):
        np.testing.assert_array_equal(cn.total_liabilities(sys_0), [10, 8, 0])


class TestRelativeClaims:
    def test_sys_a(self, sys_a):
        expected = [[0, 0.3, 0], [0.2, 0, 0], [0.8, 0.7, 0]]
        np.testing.assert_allclose(cn.relative_claims(sys_a).matrix.toarray(), expected)

    def test_sys_0_only_sink_has_claims(self, sys_0):
        expected = [[0, 0, 0], [0, 0, 0], [1, 1, 0]]
        np.testing.assert_array_equal(cn.relative_claims(sys_0).matrix.toarray(), expected)

    def test_zero_matrix(self):
        system = cn.build_system(np.zeros((3, 3)), [1, 1, 1])
        np.testing.assert_array_equal(
            cn.relative_claims(system).matrix.toarray(), np.zeros((3, 3))
        )

    def test_column_stochastic_where_liable(self, ensemble):
        for system in ensemble[:25]:
            C = cn.relative_claims(system).matrix.toarray()
            l = cn.total_liabilities(system)
            assert C.min() >= 0 and C.max() <= 1
            sums = C.sum(axis=0)
            np.testing.assert_allclose(sums[l > 0], 1.0, atol=1e-12)
            assert np.all(C[:, l == 0] == 0)
            assert np.all(C[:, system.sink] == 0)

    def test_claims_monotone_in_payments(self, ensemble):
        rng = np.random.default_rng(3)
        for system in ensemble[:10]:
            C = cn.relative_claims(system).matrix
            l = cn.total_liabilities(system)
            x = rng.uniform(0, 1, size=system.node_count) * l
            assert np.all(C @ x <= C @ l + 1e-12)


class TestClaimsBuild:
    """``build_system`` forms ``C`` from the stored entries of ``L``."""

    @staticmethod
    def assert_matches_dense_formula(system):
        L = system.liabilities
        l = system.total_liabilities
        want = as_csr(np.divide(L.T, l, out=np.zeros_like(L), where=l > 0))
        got = system.claims
        for part, ref in ((got.data, want.data), (got.indices, want.indices),
                          (got.indptr, want.indptr)):
            assert part.dtype == ref.dtype
            np.testing.assert_array_equal(part, ref)

    def test_bit_identical_to_dense_formula(self, ensemble, sys_0):
        zero_liability_bank = cn.build_system([[0, 0, 0], [3, 0, 7], [0, 0, 0]], [8, 9, 1])
        for system in ensemble + [sys_0, zero_liability_bank]:
            self.assert_matches_dense_formula(system)
        for density in (8 / 1500, 0.03):
            self.assert_matches_dense_formula(cn.generate_random_system(5, 1500, density))

    def test_no_dense_claims_temporary(self):
        generated = cn.generate_random_system(6, 2000, 8 / 2000)
        L, o = generated.liabilities, generated.pre_shock_assets
        N = L.shape[0]
        tracemalloc.start()
        try:
            cn.build_system(L, o)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the read-only copy of L is the only N x N float array
        assert peak < 1.25 * 8 * N * N


class TestEquity:
    def test_sys_a_full_payment(self, sys_a):
        l = cn.total_liabilities(sys_a)
        np.testing.assert_allclose(cn.equity(sys_a, l), [1, 1, 16])

    def test_no_liabilities_equity_is_assets(self):
        system = cn.build_system(np.zeros((3, 3)), [2, 3, 1])
        np.testing.assert_array_equal(cn.equity(system, np.zeros(3)), [2, 3, 1])

    def test_sys_a_after_shock(self, sys_a):
        shocked = sys_a.with_external_assets([3.5, 4.0, 1.0])
        l = cn.total_liabilities(shocked)
        np.testing.assert_allclose(cn.equity(shocked, l), [-3.5, -4, 16])


class TestDefaultIndicator:
    def test_solvent_banks_only_sink_flagged(self, sys_a):
        l = cn.total_liabilities(sys_a)
        flags = cn.default_indicator(sys_a, l).flags
        np.testing.assert_array_equal(flags, [False, False, True])

    def test_all_flagged_after_shock(self, sys_a):
        shocked = sys_a.with_external_assets([3.5, 4.0, 1.0])
        flags = cn.default_indicator(shocked, cn.total_liabilities(shocked)).flags
        np.testing.assert_array_equal(flags, [True, True, True])

    def test_boundary_equality_counts_as_solvent(self, sys_a):
        # a_0 + (C l)_0 = 7 + 3 = 10 = l_0 exactly
        boundary = sys_a.with_external_assets([7.0, 9.0, 1.0])
        flags = cn.default_indicator(boundary, cn.total_liabilities(boundary)).flags
        assert not flags[0]

    def test_monotone_in_payments(self, ensemble):
        rng = np.random.default_rng(4)
        for system in ensemble[:10]:
            l = cn.total_liabilities(system)
            y = rng.uniform(0, 1, size=system.node_count) * l
            x = y * rng.uniform(0, 1, size=system.node_count)
            under_y = cn.default_indicator(system, y)
            under_x = cn.default_indicator(system, x)
            assert under_y.issubset(under_x)

    def test_indicator_equality_and_diagonal(self, sys_a):
        l = cn.total_liabilities(sys_a)
        d1 = cn.default_indicator(sys_a, l)
        d2 = cn.default_indicator(sys_a, l)
        assert d1 == d2
        np.testing.assert_array_equal(d1.flags, [False, False, True])
        assert d1.count == 1


class TestFundamentalDefaults:
    def test_sys_a_unshocked(self, sys_a):
        flags = cn.fundamental_defaults(sys_a).flags
        np.testing.assert_array_equal(flags, [False, False, True])

    def test_sys_a_shocked(self, sys_a):
        shocked = sys_a.with_external_assets([3.5, 4.0, 1.0])
        np.testing.assert_array_equal(
            cn.fundamental_defaults(shocked).flags, [True, True, True]
        )

    def test_sys_0(self, sys_0):
        np.testing.assert_array_equal(
            cn.fundamental_defaults(sys_0).flags, [False, True, True]
        )

    def test_sign_of_equity_matches_flags(self, ensemble):
        for i, system in enumerate(ensemble[:20]):
            system = system.with_external_assets(
                system.external_assets
                * np.random.default_rng(i).uniform(0.2, 1.2, system.node_count)
            )
            l = cn.total_liabilities(system)
            eq = cn.equity(system, l)
            flags = cn.fundamental_defaults(system).flags
            banks = system.banks
            band = 1e-12 * np.maximum(1.0, l[banks])
            clear = np.abs(eq[banks]) > 2 * band
            np.testing.assert_array_equal(
                flags[banks][clear], (eq[banks] < 0)[clear]
            )
