import tracemalloc

import numpy as np
import pytest
import scipy.sparse

import clearnet as cn
import clearnet.io_cli
import clearnet.net_model
from clearnet._linalg import as_csr, column_weights
from conftest import csr_array, partial_default_variant


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
        # no sink: rejected before any entry is indexed
        for empty in (np.zeros((0, 0)), scipy.sparse.csr_array((0, 0))):
            with pytest.raises(cn.DimensionMismatch, match="sink"):
                cn.build_system(empty, [])

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
        assert shocked.liabilities_csr is sys_a.liabilities_csr
        assert shocked.total_liabilities is sys_a.total_liabilities
        L = sys_a.liabilities_csr
        for part in (L.data, L.indices, L.indptr):
            with pytest.raises(ValueError):
                part[0] = 0
        assert len(sys_a.claims_csr.data) == 4
        with pytest.raises(ValueError):
            sys_a.total_liabilities[0] = 5.0
        assert shocked.total_claims is sys_a.total_claims
        with pytest.raises(ValueError):
            sys_a.total_claims[0] = 5.0

    def test_shocked_copies_share_the_sparse_claims(self, sys_a):
        shocked = cn.shocked_system(sys_a, cn.full_default_shock(sys_a, 0.5))
        assert shocked.claims_csr is sys_a.claims_csr
        assert cn.relative_claims(sys_a).matrix is sys_a.claims_csr
        C = sys_a.claims_csr
        for part in (C.data, C.indices, C.indptr):
            with pytest.raises(ValueError):
                part[0] = 0

    def test_stored_column_sums(self, ensemble, sys_a, sys_0):
        # bit for bit the per-call pass, read-only, kept on C and so shared
        # by shocked copies
        systems = [sys_a, sys_0, *ensemble[:50], cn.generate_random_system(7, 1500, 0.03)]
        for system in systems:
            sums = system.claims_csr.column_sums
            ones = np.ones(system.node_count)
            assert sums.tobytes() == column_weights(system.claims_csr, ones).tobytes()
            assert system.claims_csr.column_sums is sums
            with pytest.raises(ValueError):
                sums[0] = 5.0
        shocked = cn.shocked_system(sys_a, cn.full_default_shock(sys_a, 0.5))
        assert shocked.claims_csr.column_sums is sys_a.claims_csr.column_sums

    def test_arrays_are_immutable(self, sys_a):
        with pytest.raises(ValueError):
            sys_a.liabilities[0, 1] = 5.0
        with pytest.raises(ValueError):
            sys_a.external_assets[0] = 5.0


class TestClearingParams:
    def test_vector_rate_is_a_read_only_copy(self):
        r = np.array([0.5, 0.6, 0.7])
        params = cn.ClearingParams(r=r)
        r[0] = 0.9   # the caller's array changes after construction
        np.testing.assert_array_equal(params.r, [0.5, 0.6, 0.7])
        np.testing.assert_array_equal(params.recovery_vector(3), [0.5, 0.6, 0.7])
        with pytest.raises(ValueError):
            params.r[0] = 0.9
        assert params.recovery_vector(3).dtype == float

    def test_mutating_the_callers_rates_leaves_the_clear_unchanged(self, sys_a):
        shocked = sys_a.with_external_assets([3.5, 4.0, 1.0])
        r = np.array([0.8, 0.6, 0.5])
        params = cn.ClearingParams(r=r)
        want = cn.fictitious_default_sequence(shocked, cn.ClearingParams(r=r.copy()))
        r[:] = 0.0
        got = cn.fictitious_default_sequence(shocked, params)
        np.testing.assert_array_equal(got.payments, want.payments)

    def test_list_rate_is_stored_as_an_array(self):
        params = cn.ClearingParams(r=[0.5, 1, 0])
        assert isinstance(params.r, np.ndarray) and params.r.dtype == float

    def test_wrong_length_raises(self):
        params = cn.ClearingParams(r=[0.5, 0.6, 0.7])
        for n in (2, 4):
            with pytest.raises(cn.DimensionMismatch):
                params.recovery_vector(n)

    def test_scalar_rate_is_kept_as_given(self):
        params = cn.ClearingParams(r=0.5)
        assert params.r == 0.5
        np.testing.assert_array_equal(params.recovery_vector(3), [0.5, 0.5, 0.5])

    def test_equal_rates_compare_and_hash_equal(self):
        r = np.array([0.5, 0.6, 0.7])
        for same, other in (
            (cn.ClearingParams(r=r), cn.ClearingParams(r=r.copy())),
            (cn.ClearingParams(r=[0.5, 0.6, 0.7], r_a=0.9),
             cn.ClearingParams(r=r, r_a=0.9)),
            (cn.ClearingParams(r=0.5), cn.ClearingParams(r=0.5)),
            (cn.ClearingParams(r=1), cn.ClearingParams(r=1.0)),
        ):
            assert same == other and hash(same) == hash(other)
        for one, other in (
            (cn.ClearingParams(r=r), cn.ClearingParams(r=[0.5, 0.6, 0.8])),
            (cn.ClearingParams(r=r), cn.ClearingParams(r=r, r_a=0.9)),
            (cn.ClearingParams(r=r), cn.ClearingParams(r=0.5)),
            (cn.ClearingParams(r=0.5), cn.ClearingParams(r=0.4)),
        ):
            assert one != other
        assert cn.ClearingParams() != 1.0


class TestRecordsHoldingArrays:
    """Records that hold arrays compare and hash by identity, without
    raising: two equal builds are distinct records."""

    def test_equal_builds_compare_and_hash_by_identity(self):
        def records():
            system = cn.build_system([[0, 2, 8], [3, 0, 7], [0, 0, 0]], [8.0, 9.0, 1.0])
            params = cn.ClearingParams(r=np.array([0.9, 0.8, 0.7]))
            scenario = cn.full_default_shock(system, 0.5)
            return (
                system,
                cn.relative_claims(system),
                scenario,
                cn.fictitious_default_sequence(cn.shocked_system(system, scenario), params),
                cn.generalized_katz(system.claims_csr, 0.5, cn.beta_vector(system, 0.5, 0.5)),
                cn.verify_full_shock_equivalence(system, params, 0.5),
                cn.relaxed_interpolated_shock(system, params, 0.5),
            )

        for one, other in zip(records(), records()):
            assert one == one and not one != one
            assert one != other and not one == other
            assert hash(one) == hash(one)
            assert len({one, other}) == 2


class TestTotalLiabilities:
    def test_sys_a(self, sys_a):
        np.testing.assert_array_equal(sys_a.total_liabilities, [10, 10, 0])

    def test_zero_matrix(self):
        system = cn.build_system(np.zeros((3, 3)), [1, 1, 1])
        np.testing.assert_array_equal(system.total_liabilities, [0, 0, 0])

    def test_sys_0(self, sys_0):
        np.testing.assert_array_equal(sys_0.total_liabilities, [10, 8, 0])


class TestRelativeClaims:
    def test_sys_a(self, sys_a):
        expected = [[0, 0.3, 0], [0.2, 0, 0], [0.8, 0.7, 0]]
        np.testing.assert_allclose(sys_a.claims_csr.toarray(), expected)

    def test_sys_0_only_sink_has_claims(self, sys_0):
        expected = [[0, 0, 0], [0, 0, 0], [1, 1, 0]]
        np.testing.assert_array_equal(sys_0.claims_csr.toarray(), expected)

    def test_zero_matrix(self):
        system = cn.build_system(np.zeros((3, 3)), [1, 1, 1])
        np.testing.assert_array_equal(
            system.claims_csr.toarray(), np.zeros((3, 3))
        )

    def test_column_stochastic_where_liable(self, ensemble):
        for system in ensemble[:25]:
            C = system.claims_csr.toarray()
            l = system.total_liabilities
            assert C.min() >= 0 and C.max() <= 1
            sums = C.sum(axis=0)
            np.testing.assert_allclose(sums[l > 0], 1.0, atol=1e-12)
            assert np.all(C[:, l == 0] == 0)
            assert np.all(C[:, system.sink] == 0)

    def test_claims_monotone_in_payments(self, ensemble):
        rng = np.random.default_rng(3)
        for system in ensemble[:10]:
            C = csr_array(system.claims_csr)
            l = system.total_liabilities
            x = rng.uniform(0, 1, size=system.node_count) * l
            assert np.all(C @ x <= C @ l + 1e-12)


class TestClaimsBuild:
    """``build_system`` forms ``C`` from the stored entries of ``L``."""

    @staticmethod
    def assert_matches_dense_formula(system):
        L = system.liabilities
        l = system.total_liabilities
        want = as_csr(np.divide(L.T, l, out=np.zeros_like(L), where=l > 0))
        got = system.claims_csr
        for part, ref in ((got.data, want.data), (got.indices, want.indices),
                          (got.indptr, want.indptr)):
            assert part.dtype == ref.dtype
            np.testing.assert_array_equal(part, ref)
        np.testing.assert_array_equal(system.total_claims, csr_array(got) @ l)

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
        # the scan of the dense input for its nonzeros, one byte per entry,
        # is the largest temporary; the system keeps no N x N array
        assert peak < 0.25 * 8 * N * N


class TestEquity:
    def test_sys_a_full_payment(self, sys_a):
        l = sys_a.total_liabilities
        np.testing.assert_allclose(cn.equity(sys_a, l), [1, 1, 16])

    def test_no_liabilities_equity_is_assets(self):
        system = cn.build_system(np.zeros((3, 3)), [2, 3, 1])
        np.testing.assert_array_equal(cn.equity(system, np.zeros(3)), [2, 3, 1])

    def test_sys_a_after_shock(self, sys_a):
        shocked = sys_a.with_external_assets([3.5, 4.0, 1.0])
        l = shocked.total_liabilities
        np.testing.assert_allclose(cn.equity(shocked, l), [-3.5, -4, 16])


class TestDefaultIndicator:
    def test_solvent_banks_only_sink_flagged(self, sys_a):
        l = sys_a.total_liabilities
        flags = cn.default_indicator(sys_a, l).flags
        np.testing.assert_array_equal(flags, [False, False, True])

    def test_all_flagged_after_shock(self, sys_a):
        shocked = sys_a.with_external_assets([3.5, 4.0, 1.0])
        flags = cn.default_indicator(shocked, shocked.total_liabilities).flags
        np.testing.assert_array_equal(flags, [True, True, True])

    def test_boundary_equality_counts_as_solvent(self, sys_a):
        # a_0 + (C l)_0 = 7 + 3 = 10 = l_0 exactly
        boundary = sys_a.with_external_assets([7.0, 9.0, 1.0])
        flags = cn.default_indicator(boundary, boundary.total_liabilities).flags
        assert not flags[0]

    def test_hash_agrees_with_equality(self, sys_a):
        # equal flags hash alike whatever their dtype, so a set keeps one
        under_l = cn.default_indicator(sys_a, sys_a.total_liabilities)
        same = cn.DefaultIndicator(flags=np.array([0, 0, 1]))
        other = cn.fundamental_defaults(sys_a.with_external_assets([3.5, 4.0, 1.0]))
        assert under_l == same != other
        assert hash(under_l) == hash(same)
        assert {under_l, same, other} == {under_l, other}
        assert len({under_l, same, other}) == 2

    def test_monotone_in_payments(self, ensemble):
        rng = np.random.default_rng(4)
        for system in ensemble[:10]:
            l = system.total_liabilities
            y = rng.uniform(0, 1, size=system.node_count) * l
            x = y * rng.uniform(0, 1, size=system.node_count)
            under_y = cn.default_indicator(system, y)
            under_x = cn.default_indicator(system, x)
            assert under_y.issubset(under_x)

    def test_indicator_equality_and_diagonal(self, sys_a):
        l = sys_a.total_liabilities
        d1 = cn.default_indicator(sys_a, l)
        d2 = cn.default_indicator(sys_a, l)
        assert d1 == d2
        np.testing.assert_array_equal(d1.flags, [False, False, True])
        assert d1.count == 1

    @pytest.mark.parametrize("flags", [[False, True], [False, False, False, True]])
    def test_subset_of_an_indicator_of_another_length_raises(self, sys_a, flags):
        # numpy raised an IndexError for either order of the two indicators
        short = cn.DefaultIndicator(flags=np.array(flags))
        full = cn.default_indicator(sys_a, sys_a.total_liabilities)
        for one, other in ((short, full), (full, short)):
            with pytest.raises(cn.DimensionMismatch):
                one.issubset(other)

    def test_subset_reads_integer_flags_as_flags(self):
        # 0/1 flags were used as indices: no flag set was not a subset
        none, some = (cn.DefaultIndicator(flags=np.array(f)) for f in ([0, 0, 0], [0, 1, 1]))
        assert none.issubset(some) and some.issubset(some) and not some.issubset(none)


class TestWrongLengthPayments:
    """A payment vector with one entry too few or too many is a model error,
    as wrong-length default flags are, not the product's bare ValueError."""

    ENTRIES = [np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0, 4.0]), np.array(5.0)]

    @pytest.mark.parametrize("p", ENTRIES, ids=["short", "long", "scalar"])
    def test_equity(self, sys_a, p):
        with pytest.raises(cn.DimensionMismatch, match="payments"):
            cn.equity(sys_a, p)

    @pytest.mark.parametrize("p", ENTRIES, ids=["short", "long", "scalar"])
    def test_default_indicator(self, sys_a, p):
        with pytest.raises(cn.DimensionMismatch, match="payments"):
            cn.default_indicator(sys_a, p)

    @pytest.mark.parametrize("p", ENTRIES, ids=["short", "long", "scalar"])
    def test_clearing_map(self, sys_a, p):
        with pytest.raises(cn.DimensionMismatch, match="payments"):
            cn.apply_clearing_map(sys_a, cn.ClearingParams(r=0.5), p)


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
            l = system.total_liabilities
            eq = cn.equity(system, l)
            flags = cn.fundamental_defaults(system).flags
            banks = system.banks
            band = 1e-12 * np.maximum(1.0, l[banks])
            clear = np.abs(eq[banks]) > 2 * band
            np.testing.assert_array_equal(
                flags[banks][clear], (eq[banks] < 0)[clear]
            )

    def test_matches_the_indicator_at_full_payment_bit_for_bit(self, ensemble):
        # the stored total_claims is C @ l from the same kernel, so the
        # flags agree even at the band's edge; full_default_shock puts
        # equity within rounding of -m (l - C l)
        for i, system in enumerate(ensemble):
            l = system.total_liabilities
            edge = system.with_external_assets(np.maximum(l - system.total_claims, 0.0))
            full = cn.shocked_system(system, cn.full_default_shock(system, 0.5))
            for variant in (system, partial_default_variant(system, i), edge, full):
                assert cn.fundamental_defaults(variant) == cn.default_indicator(
                    variant, variant.total_liabilities
                )


def reference_random_system(seed, n_banks, density, weight_scale=1.0):
    """The generator written out with one n x n draw of each random stream:
    the dense ``L`` and the pre-shock assets ``o``."""
    rng = np.random.default_rng(seed)
    n, N = n_banks, n_banks + 1
    L = np.zeros((N, N))
    edges = rng.random((n, n)) < density
    np.fill_diagonal(edges, False)
    weights = weight_scale * rng.lognormal(mean=0.0, sigma=1.0, size=(n, n))
    L[:n, :n] = np.where(edges, weights, 0.0)
    claims = L[:n, :n].sum(axis=0)
    interbank = L[:n, :n].sum(axis=1)
    u = rng.uniform(0.1, 1.0, size=n)
    L[:n, N - 1] = claims + u * (1.0 + interbank)
    l = L.sum(axis=1)
    o = np.empty(N)
    o[:n] = (l[:n] - claims) + rng.uniform(0.0, 1.0, size=n) * l[:n]
    o[N - 1] = 1.0
    return L, o


def assert_same_bits(got, want):
    assert got.dtype == want.dtype
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_same_system(got, want):
    for name in ("total_liabilities", "total_claims", "pre_shock_assets", "external_assets"):
        assert_same_bits(getattr(got, name), getattr(want, name))
    for name in ("liabilities_csr", "claims_csr"):
        for part in ("data", "indices", "indptr"):
            assert_same_bits(getattr(getattr(got, name), part),
                             getattr(getattr(want, name), part))


# (seed, banks, density, weight scale): one bank, a complete digraph, a bank
# count off the generator's row blocks, and the contagion-clear scale
GENERATED = [(1, 30, 0.2, 1.0), (2, 1, 0.5, 1.0), (5, 6, 1.0, 1.0), (3, 130, 0.3, 1e-3),
             (7, 300, 0.03, 1.0), (13, 2000, 8 / 2000, 1.0)]

# invalid liability matrices, each with the message its error must carry
INVALID = [
    ([[0, -2, 8], [3, 0, -7], [0, 0, 0]], cn.NegativeEntry, r"liabilities\[1\]\[2\] = -7.0"),
    ([[0, -7, 8], [3, 0, -7], [0, 0, 0]], cn.NegativeEntry, r"liabilities\[0\]\[1\] = -7.0"),
    ([[0, np.nan, 8], [3, 0, 7], [0, 0, 0]], cn.DimensionMismatch, "finite"),
    ([[0, 2, 8], [3, 0, -np.inf], [0, 0, 0]], cn.DimensionMismatch, "finite"),
    ([[0, 2, 8], [3, 4, 7], [0, 0, 0]], cn.NonzeroDiagonal, "node 1 .* 4.0"),
    ([[0, 2, 8], [3, 0, 7], [0, 5, 0]], cn.NonzeroSinkRow, "owes 5.0 to node 1"),
    ([[0, 2, 8], [3, 0, 7], [-0.0, 0, 0]], None, None),
    ([[0, 1e308, 1e308], [0, 0, 1], [0, 0, 0]], cn.DimensionMismatch, "node 0 are not finite"),
    ([[0, 2, 8], [3, 0, 7]], cn.DimensionMismatch, "square"),
]


class TestSparseLiabilities:
    """``L`` is stored once, as a read-only CSR; no N x N array is built
    from generation through clearing and centrality."""

    @pytest.mark.parametrize("seed, n_banks, density, scale", GENERATED)
    def test_generator_matches_the_dense_draws_bit_for_bit(
        self, seed, n_banks, density, scale
    ):
        L, o = reference_random_system(seed, n_banks, density, scale)
        system = cn.generate_random_system(seed, n_banks, density, weight_scale=scale)
        assert_same_bits(system.liabilities, L)
        assert_same_bits(system.pre_shock_assets, o)
        l = L.sum(axis=1)
        assert_same_bits(system.total_liabilities, l)
        want = as_csr(np.divide(L.T, l, out=np.zeros_like(L), where=l > 0))
        for part in ("data", "indices", "indptr"):
            assert_same_bits(getattr(system.claims_csr, part), getattr(want, part))
        assert_same_bits(system.total_claims, csr_array(want) @ l)

    def test_generator_sums_the_rows_once(self, monkeypatch):
        calls = []
        real = clearnet.net_model.row_sums

        def counting(L):
            calls.append(L)
            return real(L)

        for module in (clearnet.net_model, clearnet.io_cli):
            monkeypatch.setattr(module, "row_sums", counting, raising=False)
        for seed, n_banks, density, scale in GENERATED:
            calls.clear()
            cn.generate_random_system(seed, n_banks, density, weight_scale=scale)
            assert len(calls) == 1

    def test_dense_and_sparse_input_give_identical_systems(self, ensemble, sys_a, sys_0):
        systems = ensemble[:40] + [sys_a, sys_0, cn.generate_random_system(7, 300, 0.03)]
        for system in systems:
            L, o = system.liabilities, system.pre_shock_assets
            a = o * 0.5
            want = cn.build_system(L, o, a)
            assert_same_system(cn.build_system(L.tolist(), o, a), want)
            for fmt in ("csr", "csc", "coo", "lil"):
                got = cn.build_system(scipy.sparse.csr_array(L).asformat(fmt), o, a)
                assert_same_system(got, want)
            got = cn.build_system(scipy.sparse.csr_matrix(L), o, a)
            assert_same_system(got, want)

    def test_total_liabilities_are_numpys_dense_row_sums(self):
        # wide rows with magnitudes over many orders: summing only the stored
        # entries, or in any order but numpy's pairwise one, changes bits
        rng = np.random.default_rng(11)
        N = 700
        L = np.where(rng.random((N, N)) < 0.4, rng.lognormal(0.0, 8.0, (N, N)), 0.0)
        L[np.diag_indices(N)] = 0.0
        L[N - 1] = 0.0
        want = L.sum(axis=1)
        for given in (L, scipy.sparse.csr_array(L)):
            assert_same_bits(cn.build_system(given, np.ones(N)).total_liabilities, want)

    def test_explicit_zeros_and_duplicates(self):
        # stored zeros (of either sign) are dropped and duplicates summed
        rows, cols = [0, 0, 0, 1, 1, 1], [1, 2, 2, 0, 2, 1]
        values = [0.0, 5.0, 3.0, 3.0, 7.0, -0.0]
        L = scipy.sparse.coo_array((values, (rows, cols)), shape=(3, 3))
        system = cn.build_system(L, [8, 9, 1])
        want = cn.build_system([[0, 0, 8], [3, 0, 7], [0, 0, 0]], [8, 9, 1])
        assert_same_system(system, want)
        assert len(system.liabilities_csr.data) == 3

    def test_stored_matrix_is_a_private_read_only_copy(self):
        L = scipy.sparse.csr_array(np.array([[0, 2, 8], [3, 0, 7], [0, 0, 0]], float))
        system = cn.build_system(L, [8, 9, 1])
        L.data[:] = 1.0
        np.testing.assert_array_equal(system.liabilities, [[0, 2, 8], [3, 0, 7], [0, 0, 0]])
        stored = system.liabilities_csr
        for part in (stored.data, stored.indices, stored.indptr):
            with pytest.raises(ValueError):
                part[0] = 0
        assert system.with_external_assets([1, 1, 1]).liabilities_csr is stored

    def test_stored_matrices_are_the_arrays_scipy_forms(self, ensemble):
        # liabilities_csr, claims_csr and relative_claims(s).matrix: read-only,
        # with int64 indices, byte for byte the arrays scipy forms for L, as a
        # canonical CSR copy, and for C = (L / l)^T by .T.tocsr()
        generated = [cn.generate_random_system(seed, n, density)
                     for seed, n, density in ((7, 300, 0.03), (1, 1, 0.5), (13, 2000, 8 / 2000))]
        for system in ensemble[:30] + generated:
            dense = system.liabilities
            L = scipy.sparse.csr_array(dense)
            L = scipy.sparse.csr_array(
                (L.data, L.indices.astype(np.int64), L.indptr.astype(np.int64)), shape=L.shape)
            rows = np.repeat(np.arange(L.shape[0]), np.diff(L.indptr))
            l = dense.sum(axis=1)
            C = scipy.sparse.csr_array((L.data / l[rows], L.indices, L.indptr), shape=L.shape)
            C = C.T.tocsr()
            assert cn.relative_claims(system).matrix is system.claims_csr
            for got, want in zip((system.liabilities_csr, system.claims_csr), (L, C)):
                assert got.shape == want.shape
                for part in ("data", "indices", "indptr"):
                    assert_same_bits(getattr(got, part), getattr(want, part))
                    assert not getattr(got, part).flags.writeable
                assert got.indices.dtype == got.indptr.dtype == np.int64

    def test_dense_accessor_is_fresh_and_read_only(self, sys_a):
        first, second = sys_a.liabilities, sys_a.liabilities
        assert first is not second
        assert not first.flags.writeable
        assert_same_bits(first, np.array([[0, 2, 8], [3, 0, 7], [0, 0, 0]], float))

    @pytest.mark.parametrize("matrix, error, message", INVALID)
    def test_sparse_input_is_validated_like_dense(self, matrix, error, message):
        L = np.array(matrix, dtype=float)
        o = np.ones(L.shape[0])
        inputs = [L] + [scipy.sparse.coo_array(L).asformat(f) for f in ("csr", "csc", "coo")]
        if error is None:   # a -0.0 in the sink row is a zero
            for given in inputs:
                assert len(cn.build_system(given, o).liabilities_csr.data) == 4
            return
        for given in inputs:
            with pytest.raises(error, match=message):
                cn.build_system(given, o)

    def test_generation_and_solves_hold_no_dense_array(self):
        n = 3000
        tracemalloc.start()
        try:
            system = cn.generate_random_system(8, n, 8 / n)
            scenario = cn.full_default_shock(system, 0.5)
            solution = cn.fictitious_default_sequence(
                cn.shocked_system(system, scenario), cn.ClearingParams(r=0.9)
            )
            katz = cn.generalized_katz(
                system.claims_csr, 0.9, cn.beta_vector(system, 0.9, 0.5), m=0.5
            )
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert solution.iterations == 1 and katz.sigma.shape == (n + 1,)
        assert peak < 8 * (n + 1) ** 2 / 10

    def test_clear_shock_katz_and_verify_never_densify(self, monkeypatch):
        system = cn.generate_random_system(3, 60, 0.1)
        chain = cn.build_system([[0, 4, 0, 0], [0, 0, 2, 0], [0, 0, 0, 3], [0, 0, 0, 0]],
                                [1.0, 1.0, 1.0, 1.0])

        def refuse(self):
            raise AssertionError("the dense liabilities were built")

        monkeypatch.setattr(cn.FinancialSystem, "liabilities", property(refuse))
        params = cn.ClearingParams(r=0.8)
        shocked = system.with_external_assets(system.external_assets * 0.3)
        cn.fictitious_default_sequence(shocked, params)
        cn.picard_clearing_oracle(shocked, params)
        for scenario in (cn.full_default_shock(system, 0.5),
                         cn.relaxed_shock_search(system, params)):
            cn.fictitious_default_sequence(cn.shocked_system(system, scenario), params)
        cn.generalized_katz(system.claims_csr, 0.8, cn.beta_vector(system, 0.8, 0.5), m=0.5)
        cn.check_invertibility(system.claims_csr, 0.8)
        assert cn.verify_full_shock_equivalence(system, params, 0.5).passed
        cn.relaxed_interpolated_shock(system, params, 0.5)
        assert cn.verify_katz_reduction(chain, 0.5)
