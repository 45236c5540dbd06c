"""``dumps_canonical`` against the element-wise reference writer.

The writer formats a row of floats in one pass; these tests show that its
bytes, and its error for the first non-finite value, are those of the
reference, which formats and checks one value at a time.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import clearnet.io_cli
from clearnet.io_cli import cli_main, dumps_canonical
from conftest import reference_dumps_canonical

EDGE_FLOATS = (-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 0.1, 1e16, 1e17)
NON_FINITE = (float("nan"), float("inf"), float("-inf"))

finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(EDGE_FLOATS)
)
shapes = hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6)
arrays = st.one_of(
    hnp.arrays(np.float64, shapes, elements=finite_floats),
    hnp.arrays(
        np.float32, shapes, elements=st.floats(width=32, allow_nan=False, allow_infinity=False)
    ),
    hnp.arrays(np.int64, shapes),
    hnp.arrays(np.bool_, shapes),
)
scalars = st.one_of(
    finite_floats,
    st.integers(),
    st.booleans(),
    st.none(),
    st.text(),
    st.sampled_from(["", '"quoted"', "back\\slash", "tab\tnew\nline", "\x00 é"]),
    finite_floats.map(np.float64),
    st.booleans().map(np.bool_),
)
leaves = st.one_of(
    scalars,
    arrays,
    st.lists(finite_floats, max_size=8),
    st.lists(st.one_of(finite_floats, st.integers()), max_size=8),
)
documents = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=5), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(documents)
def test_matches_reference_writer(value):
    assert dumps_canonical(value) == reference_dumps_canonical(value)


@settings(max_examples=200, deadline=None)
@given(
    hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=6),
               elements=finite_floats),
    st.data(),
)
def test_non_finite_raises_reference_error(matrix, data):
    hits = data.draw(
        st.lists(
            st.tuples(
                st.integers(0, matrix.shape[0] - 1),
                st.integers(0, matrix.shape[1] - 1),
                st.sampled_from(NON_FINITE),
            ),
            min_size=1,
            max_size=3,
        )
    )
    for i, j, bad in hits:
        matrix[i, j] = bad
    for value in (matrix, matrix.tolist(), list(matrix[hits[0][0]]), {"a": [1, {"b": matrix}]}):
        with pytest.raises(ValueError) as expected:
            reference_dumps_canonical(value)
        with pytest.raises(ValueError, match="non-finite") as got:
            dumps_canonical(value)
        assert str(got.value) == str(expected.value)


def test_overflowing_row_sum_is_not_an_error():
    row = [1e308, 1e308, -0.0]
    assert dumps_canonical(row) == reference_dumps_canonical(row)
    assert dumps_canonical(row) == "[1e+308, 1e+308, -0]"


ZERO_HEAVY_ROWS = (
    [0.0] * 5 + [-0.0] + [0.0] * 3,
    [-0.0, 5e-324, 0.0, -5e-324, 1e308, -1e308, 0.0, 2.2250738585072014e-308],
    [0.0] * 7,
    [-0.0] * 3,
    [1.0, -1e-310, 0.0, -0.0, 1e308],
)


@pytest.mark.parametrize("row", ZERO_HEAVY_ROWS)
def test_zeros_print_as_percent_g_prints_them(row):
    # only the nonzero entries are formatted; a zero is written as 0 or -0
    want = "[" + ", ".join("%.17g" % x for x in row) + "]"
    assert dumps_canonical(row) == want
    assert dumps_canonical(np.array(row)) == want
    assert dumps_canonical(np.array([row, row])) == "[" + want + ", " + want + "]"


COMMANDS = (
    ("clear", "--r", "0.8"),
    ("shock", "--kind", "full", "--m", "0.5", "--r", "0.8"),
    ("shock", "--kind", "relaxed", "--r", "0.8"),
    ("verify", "--r", "0.8", "--m", "0.5"),
    ("katz", "--r", "0.8", "--m", "0.5"),
    ("spectral", "--r", "1.0"),
)


def test_cli_reports_match_reference_writer(tmp_path, capsys, monkeypatch):
    """Every subcommand's stdout, and the generated document, are the bytes
    the element-wise writer produces."""
    doc = tmp_path / "net.json"
    gen = ("gen", "--seed", "3", "--n", "300", "--density", "0.03", "--out", str(doc))

    def run_all():
        assert cli_main(list(gen)) == 0
        outputs = {"gen": capsys.readouterr().out, "document": doc.read_text()}
        for command in COMMANDS:
            assert cli_main([*command, "--input", str(doc)]) == 0
            outputs[" ".join(command)] = capsys.readouterr().out
        return outputs

    got = run_all()
    monkeypatch.setattr(clearnet.io_cli, "dumps_canonical", reference_dumps_canonical)
    expected = run_all()
    assert got.keys() == expected.keys()
    for name in expected:
        assert got[name] == expected[name], name
