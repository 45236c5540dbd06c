import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clearnet as cn
import clearnet.io_cli
from clearnet.io_cli import (
    SystemDocument,
    cli_main,
    dumps_canonical,
    parse_document,
    serialize_document,
)
from conftest import csr_array

# one invocation of every report command, without --input
REPORT_COMMANDS = [
    ["clear", "--r", "0.8"],
    ["shock", "--kind", "full", "--m", "0.5", "--r", "0.8"],
    ["shock", "--kind", "relaxed", "--r", "0.8", "--max-steps", "100"],
    ["katz", "--r", "0.8", "--m", "0.5"],
    ["verify", "--r", "0.8", "--m", "0.5"],
    ["spectral"],
    ["spectral", "--r", "1"],
]


def report_leaves(value, key=""):
    """The (dotted.key, value) pairs of a JSON report's non-object values."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from report_leaves(v, f"{key}.{k}" if key else k)
    else:
        yield key, value


def pretty_value(x) -> str:
    """A JSON scalar as --pretty prints it: a number to 6 significant
    digits, anything else as JSON."""
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return "%.6g" % x
    return json.dumps(x)


def parse_pretty(out: str, n: int):
    """The node table of an ``n``-node --pretty report, one dict per row
    keyed by its header, and its ``key  value`` lines as a dict."""
    lines = out.splitlines()
    header, rule, rows, pairs = lines[0], lines[1], lines[2:2 + n], lines[2 + n:]
    # the rule line's dashes mark each column's extent
    spans, start = [], 0
    for dashes in rule.split("  "):
        spans.append(slice(start, start + len(dashes)))
        start += len(dashes) + 2
    keys = [header[span].strip() for span in spans]
    table = [{k: row[span].strip() for k, span in zip(keys, spans)} for row in rows]
    return table, dict(line.split(None, 1) for line in pairs)


@pytest.fixture
def sys_a_path(tmp_path, sys_a):
    path = tmp_path / "sys_a.json"
    cn.save_document(SystemDocument.from_system(sys_a), path)
    return path


class TestDocuments:
    def test_round_trip_identity(self, sys_a):
        doc = SystemDocument.from_system(sys_a)
        assert parse_document(serialize_document(doc)) == doc

    def test_round_trip_preserves_awkward_floats(self):
        values = [0.1 + 0.2, 1 / 3, np.pi, 1e-17, 123456789.123456789]
        doc = SystemDocument(
            liabilities=((0.0, values[0]), (0.0, 0.0)),
            pre_shock_assets=(values[1], values[2]),
            external_assets=(values[3], values[4]),
        )
        again = parse_document(serialize_document(doc))
        assert again == doc

    def test_loaded_system_matches_source(self, sys_a, sys_a_path):
        loaded = cn.load_document(sys_a_path).to_system()
        np.testing.assert_array_equal(loaded.liabilities, sys_a.liabilities)
        np.testing.assert_array_equal(loaded.external_assets, sys_a.external_assets)

    def test_documents_are_complete(self, sys_a):
        # a document without names or external assets gets B1 ... Bn, SINK
        # and its pre-shock assets, and writes them out
        bare = SystemDocument(liabilities=sys_a.liabilities, pre_shock_assets=(8.0, 9.0, 1.0))
        assert bare.names == ("B1", "B2", "SINK")
        np.testing.assert_array_equal(bare.external_assets, bare.pre_shock_assets)
        assert bare == SystemDocument.from_system(sys_a)
        assert list(bare.to_dict()) == [
            "names", "liabilities", "pre_shock_assets", "external_assets"
        ]
        assert parse_document(serialize_document(bare)) == bare
        text = '{"liabilities": [[0, 2, 8], [3, 0, 7], [0, 0, 0]], "pre_shock_assets": [8, 9, 1]}'
        assert parse_document(text) == bare

    def test_hash_agrees_with_equality(self, sys_a):
        # a zero of either sign compares equal, so it must hash alike
        doc = SystemDocument.from_system(sys_a)
        L = sys_a.liabilities
        signed = SystemDocument(liabilities=np.where(L == 0, -0.0, L), pre_shock_assets=(8.0, 9.0, 1.0))
        assert np.signbit(signed.liabilities).any()
        renamed = dataclasses.replace(doc, names=("A", "B", "SINK"))
        assert doc == signed != renamed
        assert hash(doc) == hash(signed)
        assert len({doc, signed, renamed}) == 2

    def test_missing_assets_field(self):
        with pytest.raises(cn.ValidationError, match="pre_shock_assets required"):
            parse_document('{"liabilities": [[0]]}')

    def test_invalid_json_carries_location(self):
        with pytest.raises(cn.ParseError) as info:
            parse_document('{"liabilities": [[0,]]}')
        assert info.value.line == 1
        assert info.value.column is not None

    def test_sink_label_enforced(self):
        with pytest.raises(cn.ValidationError, match="SINK"):
            SystemDocument(
                liabilities=((0.0, 1.0), (0.0, 0.0)),
                pre_shock_assets=(1.0, 1.0),
                names=("B1", "B2"),
            )

    def test_non_numeric_entry(self):
        with pytest.raises(cn.ValidationError, match="non-numeric"):
            parse_document(
                '{"liabilities": [["x"]], "pre_shock_assets": [1.0]}'
            )


class TestCsv:
    def test_matrix_with_header_and_sidecar(self, tmp_path):
        matrix = tmp_path / "net.csv"
        matrix.write_text("b1,b2,SINK\n0,2,8\n3,0,7\n0,0,0\n")
        assets = tmp_path / "assets.csv"
        assets.write_text("assets\n8\n9\n1\n")
        system = cn.load_document(matrix, assets_path=assets).to_system()
        np.testing.assert_array_equal(
            system.liabilities, [[0, 2, 8], [3, 0, 7], [0, 0, 0]]
        )
        np.testing.assert_array_equal(system.pre_shock_assets, [8, 9, 1])

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,2,8\n3,0\n0,0,0\n")
        with pytest.raises(cn.ParseError, match="line 2"):
            cn.load_document(path, assets_path=path)

    def test_non_numeric_cell_names_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,2,8\n3,zero,7\n0,0,0\n")
        with pytest.raises(cn.ParseError, match="line 2, column 2"):
            cn.load_document(path, assets_path=path)

    def test_nan_cell_exits_1(self, tmp_path, capsys):
        matrix = tmp_path / "net.csv"
        matrix.write_text("0,nan,8\n3,0,7\n0,0,0\n")
        assets = tmp_path / "assets.csv"
        assets.write_text("8\n9\n1\n")
        assert cli_main(["clear", "--input", str(matrix), "--assets", str(assets)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: non-numeric entry in document: liabilities holds null or NaN\n"
        )

    @pytest.mark.parametrize("argv", REPORT_COMMANDS, ids=" ".join)
    @pytest.mark.parametrize("pretty", [[], ["--pretty"]], ids=["json", "pretty"])
    def test_csv_and_json_input_give_the_same_report(self, argv, pretty, tmp_path, capsys):
        # one system as a JSON document and as a CSV matrix plus sidecar
        system = cn.generate_random_system(3, 30, 0.2)
        document = tmp_path / "net.json"
        cn.save_document(SystemDocument.from_system(system), document)
        matrix = tmp_path / "net.csv"
        matrix.write_text(
            "\n".join(",".join(repr(x) for x in row) for row in system.liabilities.tolist())
        )
        assets = tmp_path / "assets.csv"
        assets.write_text("\n".join(repr(x) for x in system.pre_shock_assets.tolist()))
        reports = []
        for inputs in (["--input", str(document)],
                       ["--input", str(matrix), "--assets", str(assets)]):
            assert cli_main(argv + inputs + pretty) == 0
            reports.append(capsys.readouterr().out.replace(json.dumps(inputs[1]), '"PATH"'))
        assert reports[0] == reports[1]

    def test_format_overrides_the_suffix(self, tmp_path, sys_a):
        path = tmp_path / "net.data"
        cn.save_document(SystemDocument.from_system(sys_a), path)
        assert cn.load_document(path, format="json") == SystemDocument.from_system(sys_a)
        with pytest.raises(cn.ValidationError, match="unknown format"):
            cn.load_document(path, format="xml")

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("0,1\n0,0\n")
        with pytest.raises(cn.ValidationError, match="pre_shock_assets required"):
            cn.load_document(path)

    def test_sidecar_with_a_json_document_exits_1(self, sys_a_path, tmp_path, capsys):
        # a JSON document holds its own assets: a sidecar would be dropped
        assets = tmp_path / "assets.csv"
        assets.write_text("1\n1\n1\n")
        assert cli_main(["clear", "--input", str(sys_a_path), "--assets", str(assets)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: --assets is for CSV input: "
                                "a JSON document holds its own assets\n")
        with pytest.raises(cn.ValidationError, match="JSON document holds its own"):
            cn.load_document(sys_a_path, assets_path=assets)


class TestGenerator:
    def test_seed_determinism(self):
        a = cn.generate_random_system(7, 12, 0.5)
        b = cn.generate_random_system(7, 12, 0.5)
        np.testing.assert_array_equal(a.liabilities, b.liabilities)
        np.testing.assert_array_equal(a.pre_shock_assets, b.pre_shock_assets)

    def test_full_default_precondition_holds(self):
        for seed in range(30):
            system = cn.generate_random_system(seed, 2 + seed % 20, 0.4)
            l = system.total_liabilities
            cl = csr_array(system.claims_csr) @ l
            b = system.banks
            assert np.all(cl[b] < l[b])
            # every bank starts solvent
            assert not cn.fundamental_defaults(system).flags[b].any()

    def test_single_bank(self):
        system = cn.generate_random_system(3, 1, 0.5)
        assert system.node_count == 2
        assert system.liabilities[0, 1] > 0
        assert system.liabilities[0, 0] == 0

    def test_full_density_is_complete_digraph(self):
        system = cn.generate_random_system(5, 6, 1.0)
        block = system.liabilities[:6, :6]
        off_diagonal = block[~np.eye(6, dtype=bool)]
        assert np.all(off_diagonal > 0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            cn.generate_random_system(1, 0, 0.5)
        with pytest.raises(ValueError):
            cn.generate_random_system(1, 3, 0.0)


class TestDumpsCanonical:
    def test_fixed_key_order_and_17_digits(self):
        text = dumps_canonical({"b": 0.1, "a": [True, None, 3]})
        assert text == '{"b": 0.10000000000000001, "a": [true, null, 3]}'

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            dumps_canonical({"x": float("nan")})

    def test_zero_dimensional_array(self):
        assert dumps_canonical({"x": np.array(0.5)}) == '{"x": 0.5}'


class TestCli:
    def test_clear_reports_payments(self, sys_a_path, capsys):
        assert cli_main(["clear", "--input", str(sys_a_path), "--r", "0.8"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "clear"
        np.testing.assert_allclose(report["clearing"]["payments"][:2], [10.0, 10.0])
        assert report["clearing"]["oracle_gap"] <= 1e-10
        np.testing.assert_array_equal(report["systemic_loss"], [0, 0, 0])

    def test_clear_csv_input(self, tmp_path, capsys):
        matrix = tmp_path / "net.csv"
        matrix.write_text("0,2,8\n3,0,7\n0,0,0\n")
        assets = tmp_path / "assets.csv"
        assets.write_text("8\n9\n1\n")
        code = cli_main(
            ["clear", "--input", str(matrix), "--assets", str(assets), "--r", "0.8"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_liabilities"] == [10, 10, 0]

    def test_byte_identical_reports(self, sys_a_path, capsys):
        argv = ["clear", "--input", str(sys_a_path), "--r", "0.8"]
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_shock_full(self, sys_a_path, capsys):
        code = cli_main(
            ["shock", "--input", str(sys_a_path), "--kind", "full", "--m", "0.5", "--r", "0.8"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["scenario"]["shock"], [-4.5, -5.0, 0.0])
        np.testing.assert_allclose(
            report["clearing"]["payments"][:2], (4.63810, 4.74210), atol=1e-4
        )
        assert all(report["clearing"]["defaults"])

    def test_shock_relaxed(self, sys_a_path, capsys):
        code = cli_main(
            ["shock", "--input", str(sys_a_path), "--kind", "relaxed", "--r", "0.8", "--max-steps", "100"]
        )
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scenario"]["search_steps"] >= 1
        assert all(report["clearing"]["defaults"])

    def test_shock_full_requires_m(self, sys_a_path, capsys):
        code = cli_main(["shock", "--input", str(sys_a_path), "--kind", "full"])
        assert code == 1

    def test_katz(self, sys_a_path, capsys):
        code = cli_main(["katz", "--input", str(sys_a_path), "--r", "0.8", "--m", "0.5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        np.testing.assert_allclose(report["beta"], [4.1, 4.4, 0.0], atol=1e-12)
        np.testing.assert_allclose(report["sigma"][:2], (5.36190, 5.25790), atol=1e-4)

    def test_verify_passes(self, sys_a_path, capsys):
        code = cli_main(["verify", "--input", str(sys_a_path), "--r", "0.8", "--m", "0.5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True
        assert report["full_shock"]["one_step"] is True
        assert list(report["relaxed"]) == ["max_abs_gap", "printed_form_gap"]
        assert report["relaxed"]["max_abs_gap"] <= 1e-8
        assert report["relaxed"]["printed_form_gap"] > 0.0

    def test_verify_reports_a_failed_relaxed_construction(
        self, sys_a_path, capsys, monkeypatch
    ):
        # the relaxed section carries the construction's error; the exit
        # code follows the full-shock check alone
        def failing(*args, **kwargs):
            raise cn.NotAllDefaulted("banks [1] stayed solvent")

        monkeypatch.setattr(clearnet.io_cli, "relaxed_interpolated_shock", failing)
        code = cli_main(["verify", "--input", str(sys_a_path), "--r", "0.8", "--m", "0.5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["relaxed"] == {"error": "NotAllDefaulted: banks [1] stayed solvent"}
        assert report["passed"] is True

    def test_verify_fails_at_zero_tolerance(self, sys_a_path, capsys, monkeypatch):
        # the two routes may agree exactly on sys_a, so the failing report is
        # injected rather than left to rounding noise
        real = clearnet.io_cli.verify_full_shock_equivalence

        def failing(*args, **kwargs):
            report = real(*args, **kwargs)
            return dataclasses.replace(
                report, max_abs_gap=report.tolerance + 1.0, passed=False
            )

        monkeypatch.setattr(clearnet.io_cli, "verify_full_shock_equivalence", failing)
        code = cli_main(
            ["verify", "--input", str(sys_a_path), "--r", "0.8", "--m", "0.5", "--tol", "0"]
        )
        assert code == 2
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is False
        assert report["full_shock"]["passed"] is False

    def test_verify_precondition_violation_exits_3(self, tmp_path, capsys):
        doc = SystemDocument(
            liabilities=((0.0, 0.0, 10.0), (12.0, 0.0, 3.0), (0.0, 0.0, 0.0)),
            pre_shock_assets=(5.0, 5.0, 1.0),
        )
        path = tmp_path / "bad_margin.json"
        cn.save_document(doc, path)
        code = cli_main(["verify", "--input", str(path), "--r", "0.5", "--m", "0.5"])
        assert code == 3

    @pytest.mark.parametrize(
        "command", [["shock", "--kind", "full"], ["verify", "--r", "0.7"]], ids=" ".join
    )
    def test_shock_inside_the_band_exits_3(self, command, tmp_path, capsys):
        # each bank's equity of -0.5 after the shock is within the band
        # around zero at liabilities of 1e12 + 1, so the clear would see no
        # default
        doc = SystemDocument(
            liabilities=((0.0, 1e12, 1.0), (1e12, 0.0, 1.0), (0.0, 0.0, 0.0)),
            pre_shock_assets=(1.0, 1.0, 1.0),
        )
        path = tmp_path / "ring.json"
        cn.save_document(doc, path)
        assert cli_main(command + ["--m", "0.5", "--input", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "solvency band" in captured.err

    def test_gen_then_verify_pipeline(self, tmp_path, capsys):
        out = tmp_path / "gen.json"
        code = cli_main(
            ["gen", "--seed", "11", "--n", "6", "--density", "0.5", "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        code = cli_main(["verify", "--input", str(out), "--r", "0.9", "--m", "0.3"])
        assert code == 0

    def test_gen_output_satisfies_invariants(self, tmp_path):
        out = tmp_path / "gen.json"
        cli_main(["gen", "--seed", "2", "--n", "9", "--density", "0.7", "--out", str(out)])
        system = cn.load_document(out).to_system()
        l = system.total_liabilities
        cl = csr_array(system.claims_csr) @ l
        assert np.all(cl[system.banks] < l[system.banks])

    def test_spectral_report(self, sys_a_path, capsys):
        code = cli_main(["spectral", "--input", str(sys_a_path), "--r", "1.0"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        spec = report["spectral"]
        assert spec["radius_estimate"] < 1
        assert spec["invertible_for_r"] == "[0, 1]"
        assert spec["invertible_at_checked_r"] is True

    def test_missing_file_exits_1(self, capsys):
        assert cli_main(["clear", "--input", "/nonexistent.json"]) == 1
        assert "error" in capsys.readouterr().err

    def test_parse_error_exits_1(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert cli_main(["clear", "--input", str(path)]) == 1

    def test_overflowing_liabilities_exit_1(self, tmp_path, capsys):
        path = tmp_path / "overflow.json"
        path.write_text(
            '{"liabilities": [[0, 1e308, 1e308], [0, 0, 1], [0, 0, 0]], '
            '"pre_shock_assets": [1, 1, 1]}'
        )
        assert cli_main(["clear", "--input", str(path), "--r", "0.8"]) == 1
        assert "finite" in capsys.readouterr().err

    def test_invalid_m_exits_3(self, sys_a_path, capsys):
        code = cli_main(
            ["shock", "--input", str(sys_a_path), "--kind", "full", "--m", "1.5"]
        )
        assert code == 3

    def test_search_exhausted_exits_2(self, tmp_path, capsys):
        doc = SystemDocument(
            liabilities=((0.0, 0.0, 0.0), (5.0, 0.0, 5.0), (0.0, 0.0, 0.0)),
            pre_shock_assets=(4.0, 3.0, 1.0),
        )
        path = tmp_path / "pure_creditor.json"
        cn.save_document(doc, path)
        code = cli_main(
            ["shock", "--input", str(path), "--kind", "relaxed", "--max-steps", "10"]
        )
        assert code == 2

    def test_pretty_outputs(self, sys_a_path, capsys):
        for argv in (
            ["clear", "--input", str(sys_a_path), "--r", "0.8", "--pretty"],
            ["katz", "--input", str(sys_a_path), "--r", "0.8", "--m", "0.5", "--pretty"],
            ["verify", "--input", str(sys_a_path), "--r", "0.8", "--m", "0.5", "--pretty"],
            ["spectral", "--input", str(sys_a_path), "--pretty"],
            ["shock", "--input", str(sys_a_path), "--kind", "full", "--m", "0.5", "--pretty"],
        ):
            assert cli_main(argv) == 0
            out = capsys.readouterr().out
            assert out.strip()
            with pytest.raises(json.JSONDecodeError):
                json.loads(out)

    def test_reports_echo_the_document_names(self, tmp_path, sys_a, capsys, monkeypatch):
        names = ["Alpha", "Beta", "SINK"]
        path = tmp_path / "named.json"
        cn.save_document(
            SystemDocument(sys_a.liabilities, sys_a.pre_shock_assets, names=names), path
        )
        parses = []
        real_parse = clearnet.io_cli.parse_document

        def counting_parse(text):
            parses.append(text)
            return real_parse(text)

        monkeypatch.setattr(clearnet.io_cli, "parse_document", counting_parse)
        for argv in (
            ["clear", "--r", "0.8"],
            ["shock", "--kind", "full", "--m", "0.5", "--r", "0.8"],
            ["shock", "--kind", "relaxed", "--r", "0.8", "--max-steps", "100"],
            ["katz", "--r", "0.8", "--m", "0.5"],
            ["verify", "--r", "0.8", "--m", "0.5"],
            ["spectral"],
        ):
            parses.clear()
            assert cli_main(argv + ["--input", str(path)]) == 0
            assert json.loads(capsys.readouterr().out)["input"]["names"] == names
            assert len(parses) == 1
        assert cli_main(["clear", "--input", str(path), "--pretty"]) == 0
        assert "Alpha" in capsys.readouterr().out

    def test_usage_error_exit_code(self, capsys):
        assert cli_main(["clear"]) == 1  # missing --input
        assert cli_main(["--help"]) == 0


class TestReportPipeline:
    @pytest.mark.parametrize(
        "argv",
        [
            ["clear", "--input", "SYS_A", "--r", "1.5"],
            ["clear", "--input", "SYS_A", "--r", "nan"],
            ["clear", "--input", "SYS_A", "--ra", "2"],
            ["shock", "--input", "SYS_A", "--kind", "relaxed", "--max-steps", "0"],
            ["katz", "--input", "SYS_A", "--r", "1.5", "--m", "0.5"],
            ["gen", "--seed", "1", "--n", "0", "--density", "0.5", "--out", "OUT"],
            ["gen", "--seed", "1", "--n", "3", "--density", "0", "--out", "OUT"],
            ["clear", "--input", "RAGGED"],
            ["spectral", "--input", "SYS_A", "--r", "nan"],
            ["spectral", "--input", "SYS_A", "--r", "-1"],
            ["verify", "--input", "SYS_A", "--r", "0.8", "--m", "0.5", "--tol", "nan"],
            ["verify", "--input", "SYS_A", "--r", "0.8", "--m", "0.5", "--tol", "-1"],
        ],
        ids=" ".join,
    )
    def test_bad_parameters_exit_1(self, argv, sys_a_path, tmp_path, capsys):
        ragged = tmp_path / "ragged.json"
        ragged.write_text('{"liabilities": [[0, 1], [0]], "pre_shock_assets": [1, 1]}')
        paths = {"SYS_A": sys_a_path, "RAGGED": ragged, "OUT": tmp_path / "gen.json"}
        assert cli_main([str(paths.get(a, a)) for a in argv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_tolerance_is_checked_by_the_library(self, tol, sys_a_path, capsys):
        argv = ["verify", "--input", str(sys_a_path), "--r", "0.8", "--m", "0.5", "--tol", tol]
        assert cli_main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: tol must be finite and nonnegative, got {float(tol)}\n"
        )

    @pytest.mark.parametrize(
        "document",
        [
            '{"liabilities": [[0, null], [0, 0]], "pre_shock_assets": [1, 1]}',
            '{"liabilities": [[0, 1], [0, 0]], "pre_shock_assets": [null, 1]}',
            '{"liabilities": [1, 2], "pre_shock_assets": [1, 1]}',
            '{"liabilities": 5, "pre_shock_assets": [1]}',
            '{"liabilities": [[0, 1], [0, 0]], "pre_shock_assets": [[1], [1]]}',
            '{"liabilities": [[0, {}], [0, 0]], "pre_shock_assets": [1, 1]}',
            '{"liabilities": [[0, 1], [0]], "pre_shock_assets": [1, 1]}',
            '{"liabilities": [], "pre_shock_assets": []}',
        ],
        ids=["null liability", "null asset", "scalar rows", "scalar field",
             "nested assets", "object entry", "ragged rows", "no nodes"],
    )
    def test_malformed_document_exits_1(self, document, tmp_path, capsys):
        path = tmp_path / "malformed.json"
        path.write_text(document)
        assert cli_main(["clear", "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        if "null" in document:
            assert "non-numeric entry" in captured.err

    @pytest.mark.parametrize("argv", REPORT_COMMANDS, ids=" ".join)
    def test_input_echo_is_the_document_bit_for_bit(self, argv, tmp_path, capsys):
        path = tmp_path / "gen.json"
        assert cli_main(
            ["gen", "--seed", "3", "--n", "30", "--density", "0.2", "--out", str(path)]
        ) == 0
        capsys.readouterr()
        document = json.loads(path.read_text())
        assert cli_main(argv + ["--input", str(path)]) == 0
        echo = json.loads(capsys.readouterr().out)["input"]
        for field in ("liabilities", "pre_shock_assets", "external_assets"):
            got = np.array(echo[field], dtype=float)
            want = np.array(document[field], dtype=float)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_negative_zero_liability_echoes_as_minus_zero(self, fmt, tmp_path, capsys):
        path = tmp_path / f"net.{fmt}"
        if fmt == "json":
            path.write_text('{"liabilities": [[0, -0.0, 8], [3, 0, 7], [0, 0, 0]], '
                            '"pre_shock_assets": [8, 9, 1]}')
            argv = ["clear", "--input", str(path)]
        else:
            path.write_text("0,-0.0,8\n3,0,7\n0,0,0\n")
            assets = tmp_path / "assets.csv"
            assets.write_text("8\n9\n1\n")
            argv = ["clear", "--input", str(path), "--assets", str(assets)]
        assert cli_main(argv) == 0
        out = capsys.readouterr().out
        assert '"liabilities": [[0, -0, 8], [3, 0, 7], [0, 0, 0]]' in out

    @pytest.mark.parametrize("argv", REPORT_COMMANDS, ids=" ".join)
    def test_reports_never_densify_the_stored_liabilities(
        self, argv, sys_a_path, capsys, monkeypatch
    ):
        # the echo prints the document's own array
        assert cli_main(argv + ["--input", str(sys_a_path)]) == 0
        want = capsys.readouterr().out

        def refuse(self):
            raise AssertionError("the dense liabilities were built")

        monkeypatch.setattr(cn.FinancialSystem, "liabilities", property(refuse))
        assert cli_main(argv + ["--input", str(sys_a_path)]) == 0
        assert capsys.readouterr().out == want

    def test_gen_writes_the_canonical_document(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        assert cli_main(
            ["gen", "--seed", "3", "--n", "30", "--density", "0.2", "--out", str(path)]
        ) == 0
        system = cn.generate_random_system(3, 30, 0.2)
        doc = SystemDocument.from_system(system)
        assert path.read_text() == dumps_canonical(doc.to_dict()) + "\n"

    @pytest.mark.parametrize("argv", REPORT_COMMANDS, ids=" ".join)
    def test_pretty_is_a_view_of_the_json_report(self, argv, sys_a_path, capsys):
        argv = argv + ["--input", str(sys_a_path)]
        assert cli_main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert cli_main(argv + ["--pretty"]) == 0
        pretty = capsys.readouterr().out
        assert clearnet.io_cli._pretty(report) + "\n" == pretty

    @pytest.mark.parametrize("document", ["sys_a", "named", "gen"])
    @pytest.mark.parametrize("argv", REPORT_COMMANDS, ids=" ".join)
    def test_pretty_shows_every_field_of_the_report(
        self, argv, document, tmp_path, sys_a, capsys
    ):
        path = tmp_path / "net.json"
        if document == "gen":
            assert cli_main(["gen", "--seed", "5", "--n", "30", "--density", "0.2",
                             "--out", str(path)]) == 0
        else:
            names = ["Alpha", "Beta", "SINK"] if document == "named" else None
            cn.save_document(
                SystemDocument(sys_a.liabilities, sys_a.pre_shock_assets, names=names), path
            )
        argv = argv + ["--input", str(path)]
        capsys.readouterr()
        assert cli_main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert cli_main(argv + ["--pretty"]) == 0
        names = report["input"]["names"]
        n = len(names)
        table, lines = parse_pretty(capsys.readouterr().out, n)
        assert [row["node"] for row in table] == names
        for key, value in report_leaves(report):
            if key == "input.names":
                continue
            if isinstance(value, list) and isinstance(value[0], list):
                assert lines.pop(key) == str(np.shape(value)), key
            elif isinstance(value, list):
                # a per-node list: N entries, or N - 1 for the banks alone
                assert len(value) in (n, n - 1), key
                assert [row[key] for row in table] == (
                    [pretty_value(x) for x in value] + [""] * (n - len(value))
                ), key
            else:
                assert lines.pop(key) == pretty_value(value), key
        assert lines == {}

    @pytest.mark.parametrize(
        "argv, code",
        [(["spectral"], 0), (["clear", "--r", "1.5"], 1)],
        ids=["spectral", "clear --r 1.5"],
    )
    def test_module_entry_point(self, argv, code, sys_a_path):
        src = str(Path(clearnet.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "clearnet", *argv, "--input", str(sys_a_path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == code
        assert "Traceback" not in proc.stderr
        if code == 0:
            assert json.loads(proc.stdout)["command"] == argv[0]
        else:
            assert proc.stderr.startswith("error: ")
