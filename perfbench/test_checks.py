"""The benchmark's checks accept the program's outputs and reject perturbed
ones. Run from the repository root:

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import json

import numpy as np
import pytest

import clearnet as cn

import checks
import tracer
import worker

R, M = 0.8, 0.5


@pytest.fixture(scope="module")
def system():
    return cn.generate_random_system(seed=11, n_banks=40, density=0.2)


@pytest.fixture(scope="module")
def full_shock(system):
    l, C = checks.claims(system.liabilities)
    scenario = cn.full_default_shock(system, M)
    solution = cn.fictitious_default_sequence(
        cn.shocked_system(system, scenario), cn.ClearingParams(r=R)
    )
    sigma = cn.generalized_katz(C, R, cn.beta_vector(system, R, M)).sigma
    return l, checks.katz_reference(l, C, R, M), solution, sigma


@pytest.fixture(scope="module")
def contagion(system):
    assets = system.external_assets.copy()
    assets[:8] *= 0.05
    shocked = system.with_external_assets(assets)
    solution = cn.fictitious_default_sequence(shocked, cn.ClearingParams(r=R))
    assert 0 < solution.defaults.count - 1 < system.n_banks
    return checks.claims(system.liabilities) + (assets, solution)


def full_shock_args(full_shock):
    l, reference, solution, sigma = full_shock
    return dict(l=l, reference=reference, payments=solution.payments.copy(),
                sigma=sigma.copy(), iterations=solution.iterations,
                flags=solution.defaults.flags.copy())


def test_full_shock_check_accepts_the_program(full_shock):
    checks.check_full_shock(**full_shock_args(full_shock))


@pytest.mark.parametrize("field", ["payments", "sigma", "flags", "iterations"])
def test_full_shock_check_rejects_perturbation(full_shock, field):
    args = full_shock_args(full_shock)
    if field == "flags":
        args["flags"][3] = False
    elif field == "iterations":
        args["iterations"] = 2
    else:
        args[field][3] += 1e-6 * args["l"].max()
    with pytest.raises(checks.CheckFailed):
        checks.check_full_shock(**args)


def clearing_args(contagion):
    l, C, assets, solution = contagion
    return dict(l=l, C=C, assets=assets, r=R, payments=solution.payments.copy(),
                flags=solution.defaults.flags.copy(),
                history=[d.flags.copy() for d in solution.default_history])


def test_clearing_check_accepts_the_program(contagion):
    checks.check_clearing(**clearing_args(contagion))


@pytest.mark.parametrize("change", ["payment", "flag", "history", "above_l"])
def test_clearing_check_rejects_perturbation(contagion, change):
    args = clearing_args(contagion)
    l = args["l"]
    defaulted = np.flatnonzero(args["flags"][:-1])
    solvent = np.flatnonzero(~args["flags"][:-1])
    if change == "payment":
        args["payments"][defaulted[0]] *= 0.999
    elif change == "flag":
        args["flags"][solvent[0]] = True
    elif change == "history":
        args["history"] = [args["history"][-1], args["history"][0]]
    else:
        args["payments"][solvent[0]] = l[solvent[0]] * (1 + 1e-9)
    with pytest.raises(checks.CheckFailed):
        checks.check_clearing(**args)


def test_spectral_check(system):
    _, C = checks.claims(system.liabilities)
    radius = cn.spectral_radius(C)
    checks.check_spectral(C, radius, 0.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_spectral(C, radius + 1e-6, 0.0)
    with pytest.raises(checks.CheckFailed):
        checks.check_spectral(C, radius, radius + 1e-6)


@pytest.fixture
def cli(monkeypatch):
    monkeypatch.setattr(worker.CliReports, "BANKS", 30)
    workload = worker.CliReports(seed=3, inprocess=True)
    workload.setup()
    yield workload
    workload.cleanup()


@pytest.mark.parametrize("command", worker.CliReports.COMMANDS, ids=" ".join)
def test_cli_checks(cli, command):
    out = cli.run(command)
    cli.check(command, out)
    report = json.loads(out["stdout"])
    if "clearing" in report:
        report["clearing"]["payments"][0] *= 0.5
    elif "sigma" in report:
        report["sigma"][0] += 1.0
    elif command[0] == "verify":
        report["passed"] = False
    else:
        report["spectral"]["radius_estimate"] += 1e-6
    with pytest.raises(checks.CheckFailed):
        cli.check(command, {"code": out["code"], "stdout": json.dumps(report).encode()})


def test_changed_cli_output_counts_as_wrong(cli):
    """The second pass reports the same content with other bytes."""
    first = {command: cli.run(command) for command in cli.ops}
    calls = []

    def run(command):
        calls.append(command)
        out = first[command]
        if len(calls) > len(cli.ops):
            return {"code": 0, "stdout": json.dumps(json.loads(out["stdout"])).encode()}
        return out

    cli.run = run
    errors = []
    measured = worker.measure(cli, 0.0, None, errors)
    wrong = worker.verify(cli, measured["done"], measured["outputs"], errors)
    assert measured["passes"] == 2
    assert wrong == set(range(len(cli.ops), 2 * len(cli.ops)))


def test_unreadable_output_counts_as_wrong(cli):
    errors = []
    cli.run = lambda command: {"code": 0, "stdout": b"not json"}
    measured = worker.measure(cli, 0.0, None, errors)
    wrong = worker.verify(cli, measured["done"], measured["outputs"], errors)
    assert len(wrong) == measured["attempted"] == 2 * len(cli.ops)
    assert "check failed" in errors[0]


def test_tracer_units_name_every_figure():
    assert set(tracer.Tracer().metrics(set())) == set(tracer.UNITS)
