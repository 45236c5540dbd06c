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
        loaded = cn.load_system(sys_a_path)
        np.testing.assert_array_equal(loaded.liabilities, sys_a.liabilities)
        np.testing.assert_array_equal(loaded.external_assets, sys_a.external_assets)

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
            ).validate()

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
        system = cn.load_system(matrix, assets_path=assets)
        np.testing.assert_array_equal(
            system.liabilities, [[0, 2, 8], [3, 0, 7], [0, 0, 0]]
        )
        np.testing.assert_array_equal(system.pre_shock_assets, [8, 9, 1])

    def test_ragged_row_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,2,8\n3,0\n0,0,0\n")
        with pytest.raises(cn.ParseError, match="line 2"):
            cn.load_system(path, assets_path=path)

    def test_non_numeric_cell_names_position(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0,2,8\n3,zero,7\n0,0,0\n")
        with pytest.raises(cn.ParseError, match="line 2, column 2"):
            cn.load_system(path, assets_path=path)

    def test_missing_sidecar(self, tmp_path):
        path = tmp_path / "net.csv"
        path.write_text("0,1\n0,0\n")
        with pytest.raises(cn.ValidationError, match="pre_shock_assets required"):
            cn.load_system(path)


class TestGenerator:
    def test_seed_determinism(self):
        a = cn.generate_random_system(7, 12, 0.5)
        b = cn.generate_random_system(7, 12, 0.5)
        np.testing.assert_array_equal(a.liabilities, b.liabilities)
        np.testing.assert_array_equal(a.pre_shock_assets, b.pre_shock_assets)

    def test_full_default_precondition_holds(self):
        for seed in range(30):
            system = cn.generate_random_system(seed, 2 + seed % 20, 0.4)
            l = cn.total_liabilities(system)
            cl = cn.relative_claims(system).matrix @ l
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
        assert report["relaxed"]["printed_form_gap"] > 0.0

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
        system = cn.load_system(out)
        l = cn.total_liabilities(system)
        cl = cn.relative_claims(system).matrix @ l
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
        cn.save_document(SystemDocument.from_system(sys_a, names=names), path)
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["clear", "--r", "0.8"],
            ["shock", "--kind", "full", "--m", "0.5", "--r", "0.8"],
            ["shock", "--kind", "relaxed", "--r", "0.8", "--max-steps", "100"],
            ["katz", "--r", "0.8", "--m", "0.5"],
            ["verify", "--r", "0.8", "--m", "0.5"],
            ["spectral"],
            ["spectral", "--r", "1"],
        ],
        ids=" ".join,
    )
    def test_pretty_is_a_view_of_the_json_report(self, argv, sys_a_path, capsys):
        argv = argv + ["--input", str(sys_a_path)]
        assert cli_main(argv) == 0
        report = json.loads(capsys.readouterr().out)
        assert cli_main(argv + ["--pretty"]) == 0
        pretty = capsys.readouterr().out
        render = clearnet.io_cli._REPORTS[argv[0]][1]
        assert render(report) + "\n" == pretty

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
