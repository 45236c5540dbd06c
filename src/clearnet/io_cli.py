"""File formats, the random-system generator, and the command-line surface.

JSON documents are the canonical interchange format (the sink is stored
explicitly as the last row/column so files are self-contained); CSV is a
convenience importer for a bare liability matrix plus a one-column asset
sidecar. All reports are emitted as JSON with a fixed key order and floats
rendered to 17 significant digits, so identical invocations produce
byte-identical output.

Each report command loads its input once, echoes it, adds its own sections
and prints the report as JSON or as its ``--pretty`` view, a function of the
report alone. Exit codes go by error family (see :func:`cli_main`).
"""
from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from .clearing import (
    fictitious_default_sequence,
    picard_clearing_oracle,
    systemic_loss,
)
from .equivalence import (
    default_tolerance,
    verify_full_shock_equivalence,
    verify_relaxed_equivalence,
)
from .errors import (
    ClearnetError,
    InvalidInterpolation,
    ParseError,
    PreconditionViolated,
    ValidationError,
)
from .net_model import ClearingParams, FinancialSystem, build_system
from .centrality import beta_vector, generalized_katz
from .shocks import full_default_shock, relaxed_shock_search, shocked_system
from .spectral import check_invertibility

__all__ = [
    "SystemDocument",
    "dumps_canonical",
    "load_system",
    "load_document",
    "save_document",
    "generate_random_system",
    "cli_main",
    "main",
]

SINK_LABEL = "SINK"


# --------------------------------------------------------------------------
# canonical JSON
# --------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x}")
    return "%.17g" % x


def _fmt_floats(row) -> str:
    """A row of floats in one pass. A non-finite item makes the sum
    non-finite, so only then (or on an overflowing sum) are items checked
    one by one, and the first non-finite one raises."""
    if not math.isfinite(sum(row)):
        for x in row:
            _fmt_float(x)
    return ", ".join(["%.17g" % x for x in row])


def _emit(value, out: list) -> None:
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, dict):
        out.append("{")
        for i, (k, v) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(k)))
            out.append(": ")
            _emit(v, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        if value and set(map(type, value)) == {float}:
            out.append(_fmt_floats(value))
        else:
            for i, v in enumerate(value):
                if i:
                    out.append(", ")
                _emit(v, out)
        out.append("]")
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        out.append(_fmt_float(float(value)))
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif value is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps_canonical(value) -> str:
    """Deterministic JSON: fixed key order, 17-significant-digit floats."""
    out: list = []
    _emit(value, out)
    return "".join(out)


# --------------------------------------------------------------------------
# documents
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class SystemDocument:
    """On-disk representation of a financial system.

    ``liabilities`` is row-major with the sink last; ``names`` labels all
    nodes and always ends with ``"SINK"``. Documents round-trip losslessly
    through JSON (floats keep 17 significant digits).
    """

    liabilities: tuple
    pre_shock_assets: tuple
    external_assets: tuple | None = None
    names: tuple | None = None

    @classmethod
    def from_system(
        cls, system: FinancialSystem, names=None
    ) -> "SystemDocument":
        if names is None:
            names = tuple(f"B{i + 1}" for i in range(system.n_banks)) + (SINK_LABEL,)
        else:
            names = tuple(str(n) for n in names)
        doc = cls(
            liabilities=tuple(map(tuple, system.liabilities.tolist())),
            pre_shock_assets=tuple(system.pre_shock_assets.tolist()),
            external_assets=tuple(system.external_assets.tolist()),
            names=names,
        )
        doc.validate()
        return doc

    def validate(self) -> None:
        n = len(self.liabilities)
        if self.names is not None:
            if len(self.names) != n:
                raise ValidationError(
                    f"names has {len(self.names)} entries for {n} nodes"
                )
            if self.names[-1] != SINK_LABEL:
                raise ValidationError(
                    f'last label must be "{SINK_LABEL}", got "{self.names[-1]}"'
                )
        for i, row in enumerate(self.liabilities):
            if len(row) != len(self.liabilities[0]):
                raise ValidationError(
                    f"liabilities row {i} has {len(row)} entries, "
                    f"row 0 has {len(self.liabilities[0])}"
                )

    def to_system(self) -> FinancialSystem:
        return build_system(
            np.asarray(self.liabilities, dtype=float),
            np.asarray(self.pre_shock_assets, dtype=float),
            None
            if self.external_assets is None
            else np.asarray(self.external_assets, dtype=float),
        )

    def to_dict(self) -> dict:
        d: dict = {}
        if self.names is not None:
            d["names"] = list(self.names)
        d["liabilities"] = [list(row) for row in self.liabilities]
        d["pre_shock_assets"] = list(self.pre_shock_assets)
        if self.external_assets is not None:
            d["external_assets"] = list(self.external_assets)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "SystemDocument":
        if not isinstance(data, dict):
            raise ValidationError("document root must be a JSON object")
        if "liabilities" not in data:
            raise ValidationError("liabilities required")
        if "pre_shock_assets" not in data:
            raise ValidationError("pre_shock_assets required")
        try:
            liabilities = tuple(tuple(map(float, row)) for row in data["liabilities"])
            assets = tuple(map(float, data["pre_shock_assets"]))
            external = data.get("external_assets")
            if external is not None:
                external = tuple(map(float, external))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"non-numeric entry in document: {exc}") from exc
        names = data.get("names")
        doc = cls(
            liabilities=liabilities,
            pre_shock_assets=assets,
            external_assets=external,
            names=None if names is None else tuple(str(x) for x in names),
        )
        doc.validate()
        return doc


def parse_document(text: str) -> SystemDocument:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}",
            line=exc.lineno,
            column=exc.colno,
        ) from exc
    return SystemDocument.from_dict(data)


def serialize_document(doc: SystemDocument) -> str:
    return dumps_canonical(doc.to_dict())


def load_document(path) -> SystemDocument:
    return parse_document(Path(path).read_text())


def save_document(doc: SystemDocument, path) -> None:
    Path(path).write_text(serialize_document(doc) + "\n")


# --------------------------------------------------------------------------
# CSV import
# --------------------------------------------------------------------------

def _read_csv(path, sidecar: bool = False) -> NDArray:
    """A CSV file of numbers as a float matrix, or as a vector for an asset
    ``sidecar`` (one value per line). A matrix's first row is a header when
    any of its cells is not a number; a sidecar's when its first cell is not."""
    rows = [
        (lineno, [cell.strip() for cell in line.split(",")])
        for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1)
        if line.strip()
    ]
    if not rows:
        raise ParseError(f"{path}: file is empty")
    try:
        [float(c) for c in rows[0][1][: 1 if sidecar else None]]
    except ValueError:
        rows = rows[1:]   # header
        if not rows:
            raise ParseError(f"{path}: header but no data rows")
    width = 1 if sidecar else len(rows[0][1])
    matrix = []
    for lineno, cells in rows:
        if len(cells) != width:
            raise ParseError(
                f"{path}: line {lineno} has {len(cells)} fields, expected {width}"
                + (" (one asset value per line)" if sidecar else ""),
                line=lineno,
            )
        values = []
        for column, cell in enumerate(cells, start=1):
            try:
                values.append(float(cell))
            except ValueError:
                raise ParseError(
                    f"{path}: line {lineno}, column {column}: {cell!r} is not a number",
                    line=lineno,
                    column=column,
                ) from None
        matrix.append(values)
    matrix = np.asarray(matrix, dtype=float)
    return matrix.ravel() if sidecar else matrix


def load_system(path, format: str | None = None, assets_path=None) -> FinancialSystem:
    """Load a :class:`FinancialSystem` from a JSON document or CSV matrix.

    CSV requires the asset sidecar (one value per line); JSON documents are
    self-contained. ``format`` is inferred from the file suffix when not
    given. Parse failures raise :class:`ParseError` with the offending
    location; semantic failures raise :class:`ValidationError`, of which the
    model-validation errors from :func:`build_system` are subclasses.
    """
    return _load_input(path, format, assets_path)[0]


def _load_input(path, format, assets_path) -> tuple[FinancialSystem, tuple | None]:
    """:func:`load_system` plus the document's node names (None for CSV)."""
    fmt = format or ("csv" if str(path).lower().endswith(".csv") else "json")
    if fmt == "json":
        doc = load_document(path)
        return doc.to_system(), doc.names
    if fmt == "csv":
        matrix = _read_csv(path)
        if assets_path is None:
            raise ValidationError(
                "pre_shock_assets required: CSV input needs an asset sidecar "
                "(--assets FILE)"
            )
        assets = _read_csv(assets_path, sidecar=True)
        return build_system(matrix, assets), None
    raise ValidationError(f"unknown format {fmt!r} (expected 'csv' or 'json')")


# --------------------------------------------------------------------------
# random systems
# --------------------------------------------------------------------------

def generate_random_system(
    seed: int, n_banks: int, density: float, weight_scale: float = 1.0
) -> FinancialSystem:
    """Seeded random obligation network satisfying every model invariant.

    The bank block is a directed Erdos-Renyi graph with log-normal weights.
    Each bank's liability to the sink is set to its total in-system claims
    plus ``u * (1 + interbank liabilities)`` with ``u ~ U(0.1, 1)``, which
    keeps every bank's claims strictly below its liabilities (the
    precondition of the full-default shock). Pre-shock assets are drawn so
    every bank starts solvent; the sink holds one unit.
    """
    if n_banks < 1:
        raise ValidationError(f"n_banks must be at least 1, got {n_banks}")
    if not 0.0 < density <= 1.0:
        raise ValidationError(f"density must lie in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    n = n_banks
    N = n + 1

    L = np.zeros((N, N))
    edges = rng.random((n, n)) < density
    np.fill_diagonal(edges, False)
    weights = weight_scale * rng.lognormal(mean=0.0, sigma=1.0, size=(n, n))
    L[:n, :n] = np.where(edges, weights, 0.0)
    del edges, weights   # two n x n temporaries, not kept through build_system

    claims = L[:n, :n].sum(axis=0)
    interbank = L[:n, :n].sum(axis=1)
    u = rng.uniform(0.1, 1.0, size=n)
    L[:n, N - 1] = claims + u * (1.0 + interbank)

    l = L.sum(axis=1)
    o = np.empty(N)
    o[:n] = (l[:n] - claims) + rng.uniform(0.0, 1.0, size=n) * l[:n]
    o[N - 1] = 1.0
    return build_system(L, o)


# --------------------------------------------------------------------------
# report sections: one builder per command, each a function of the parsed
# arguments and the loaded system
# --------------------------------------------------------------------------

def _input_echo(path, system: FinancialSystem, names) -> dict:
    doc = SystemDocument.from_system(system, names=names)
    echo = {"path": None if path is None else str(path)}
    echo.update(doc.to_dict())
    return echo


def _clearing_sections(system: FinancialSystem, params: ClearingParams) -> dict:
    solution = fictitious_default_sequence(system, params)
    oracle = picard_clearing_oracle(system, params)
    oracle_gap = float(np.abs(oracle - solution.payments)[system.banks].max(initial=0.0))
    return {
        "total_liabilities": system.total_liabilities,
        "clearing": {
            "payments": solution.payments,
            "defaults": [bool(f) for f in solution.defaults.flags],
            "iterations": solution.iterations,
            "residual": solution.residual,
            "oracle_gap": oracle_gap,
            "uniqueness_ok": solution.uniqueness_ok,
        },
        "systemic_loss": systemic_loss(solution, system.total_liabilities),
    }


def _spectral_dict(system: FinancialSystem, r: float | None) -> dict:
    params = ClearingParams(r=1.0 if r is None else r)
    ok, report = check_invertibility(system.claims, params.r)
    return {
        "radius_estimate": report.radius_estimate,
        "collatz_wielandt_lower": report.collatz_wielandt_lower,
        "invertible_for_r": report.invertible_for_r,
        "checked_r": r,
        "invertible_at_checked_r": None if r is None else ok,
    }


def _clear_sections(args, system: FinancialSystem) -> dict:
    params = ClearingParams(r=args.r, r_a=args.ra)
    return {
        "parameters": {"r": args.r, "r_a": args.ra},
        **_clearing_sections(system, params),
        "spectral": _spectral_dict(system, args.r),
    }


def _shock_sections(args, system: FinancialSystem) -> dict:
    params = ClearingParams(r=args.r, r_a=args.ra)
    if args.kind == "full":
        if args.m is None:
            raise ValidationError("--m is required for --kind full")
        scenario = full_default_shock(system, args.m)
    else:
        scenario = relaxed_shock_search(system, params, max_steps=args.max_steps)
    kind = scenario.kind.value
    return {
        "parameters": {"r": args.r, "r_a": args.ra, "m": args.m, "kind": kind},
        "scenario": {
            "kind": kind,
            "interpolation": scenario.interpolation,
            "shock": scenario.shock,
            "post_shock_assets": scenario.post_shock_assets,
            "search_steps": scenario.search_steps,
            "max_steps": scenario.max_steps,
        },
        **_clearing_sections(shocked_system(system, scenario), params),
    }


def _katz_sections(args, system: FinancialSystem) -> dict:
    params = ClearingParams(r=args.r)
    beta = beta_vector(system, params.r, args.m)
    result = generalized_katz(system.claims, params.r, beta, m=args.m)
    return {
        "parameters": {"r": args.r, "m": args.m},
        "beta": beta,
        "sigma": result.sigma,
        "residual": result.residual,
    }


def _verify_sections(args, system: FinancialSystem) -> dict:
    params = ClearingParams(r=args.r)
    if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
        raise ValidationError(f"--tol must be finite and nonnegative, got {args.tol}")
    tol = args.tol if args.tol is not None else default_tolerance(system)
    full = verify_full_shock_equivalence(system, params, args.m, tol=tol)
    try:
        relaxed = verify_relaxed_equivalence(system, params, args.m)
    except ClearnetError as exc:
        relaxed_dict = {"error": f"{type(exc).__name__}: {exc}"}
    else:
        relaxed_dict = {
            "max_abs_gap": relaxed.max_abs_gap,
            "printed_form_gap": relaxed.printed_form_gap,
            "all_defaulted": relaxed.all_defaulted,
            "passed": relaxed.passed,
        }
        if relaxed.printed_form_gap is not None and relaxed.printed_form_gap > tol:
            print(
                "warning: alternative relaxed closed form differs from the "
                f"certified solution by {relaxed.printed_form_gap:.6g} "
                "(informational)",
                file=sys.stderr,
            )
    return {
        "parameters": {"r": args.r, "m": args.m, "tol": tol},
        "full_shock": {
            "max_abs_gap": full.max_abs_gap,
            "one_step": full.one_step,
            "all_defaulted": full.all_defaulted,
            "details": full.details,
            "passed": full.passed,
        },
        "relaxed": relaxed_dict,
        "passed": full.passed,
    }


def _spectral_sections(args, system: FinancialSystem) -> dict:
    return {"spectral": _spectral_dict(system, args.r)}


# --------------------------------------------------------------------------
# pretty views: each a function of the report dict alone, so the same
# rendering follows from the JSON a command prints
# --------------------------------------------------------------------------

def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [
        max(len(h), *(len(r[i]) for r in rows)) if rows else len(h)
        for i, h in enumerate(headers)
    ]
    def render(cells):
        return "  ".join(c.rjust(w) for c, w in zip(cells, widths))
    lines = [render(headers), render(["-" * w for w in widths])]
    lines.extend(render(r) for r in rows)
    return "\n".join(lines)


def _num(x) -> str:
    return f"{float(x):.6g}"


def _pretty_kv(pairs: list[tuple[str, str]]) -> str:
    width = max(len(k) for k, _ in pairs)
    return "\n".join(f"{k.ljust(width)}  {v}" for k, v in pairs)


def _pretty_clearing(report: dict, assets) -> str:
    clearing = report["clearing"]
    rows = [
        [name, _num(owes), _num(a), _num(pays), "yes" if default else "no", _num(loss)]
        for name, owes, a, pays, default, loss in zip(
            report["input"]["names"],
            report["total_liabilities"],
            assets,
            clearing["payments"],
            clearing["defaults"],
            report["systemic_loss"],
        )
    ]
    head = _table(["node", "owes", "assets", "pays", "default", "loss"], rows)
    tail = (
        f"iterations={clearing['iterations']}  residual={clearing['residual']:.3e}  "
        f"oracle_gap={clearing['oracle_gap']:.3e}"
    )
    return head + "\n" + tail


def _pretty_katz(report: dict) -> str:
    rows = [
        [name, _num(b), _num(s)]
        for name, b, s in zip(report["input"]["names"], report["beta"], report["sigma"])
    ]
    return _table(["node", "beta", "sigma"], rows)


def _pretty_verify(report: dict) -> str:
    full, relaxed = report["full_shock"], report["relaxed"]
    pairs = [
        ("full-shock max gap", _num(full["max_abs_gap"])),
        ("one-step convergence", str(full["one_step"])),
        ("all nodes defaulted", str(full["all_defaulted"])),
        ("tolerance", _num(report["parameters"]["tol"])),
        ("passed", str(full["passed"])),
    ]
    if "error" in relaxed:
        pairs.append(("relaxed", relaxed["error"]))
    else:
        pairs.append(("relaxed candidate gap", _num(relaxed["max_abs_gap"])))
        pairs.append(("relaxed printed-form gap", _num(relaxed["printed_form_gap"])))
    return _pretty_kv(pairs)


def _pretty_spectral(report: dict) -> str:
    section = report["spectral"]
    pairs = [
        ("radius estimate", _num(section["radius_estimate"])),
        ("certified lower bound", _num(section["collatz_wielandt_lower"])),
        ("invertible for r in", section["invertible_for_r"]),
    ]
    if section["checked_r"] is not None:
        # float(): JSON prints 1.0 as 1, and the label shows the rate as parsed
        pairs.append(
            (f"invertible at r={float(section['checked_r'])}",
             str(section["invertible_at_checked_r"]))
        )
    return _pretty_kv(pairs)


# --------------------------------------------------------------------------
# CLI commands
# --------------------------------------------------------------------------

# the section builder and the --pretty view of each report command
_REPORTS = {
    "clear": (
        _clear_sections,
        lambda report: _pretty_clearing(report, report["input"]["external_assets"]),
    ),
    "shock": (
        _shock_sections,
        lambda report: _pretty_clearing(report, report["scenario"]["post_shock_assets"]),
    ),
    "katz": (_katz_sections, _pretty_katz),
    "verify": (_verify_sections, _pretty_verify),
    "spectral": (_spectral_sections, _pretty_spectral),
}


def _cmd_report(args) -> int:
    """Load the input once, echo it, add the command's sections and print
    the report as canonical JSON or its --pretty view. A report that
    carries ``passed`` exits 2 when it is false."""
    build, pretty = _REPORTS[args.command]
    system, names = _load_input(args.input, args.format, args.assets)
    report = {"command": args.command, "input": _input_echo(args.input, system, names)}
    report.update(build(args, system))
    print(pretty(report) if args.pretty else dumps_canonical(report))
    return 0 if report.get("passed", True) else 2


def _cmd_gen(args) -> int:
    system = generate_random_system(
        args.seed, args.n, args.density, weight_scale=args.weight_scale
    )
    doc = SystemDocument.from_system(system)
    save_document(doc, args.out)
    report = {
        "command": "gen",
        "out": str(args.out),
        "seed": args.seed,
        "n_banks": args.n,
        "density": args.density,
        "weight_scale": args.weight_scale,
        "node_count": system.node_count,
    }
    print(dumps_canonical(report))
    return 0


def _add_io_args(sub) -> None:
    sub.add_argument("--input", required=True, help="system file (JSON or CSV)")
    sub.add_argument("--format", choices=["csv", "json"], default=None)
    sub.add_argument("--assets", default=None, help="asset sidecar CSV (one value per line)")
    sub.add_argument("--pretty", action="store_true", help="human-readable table output")
    sub.set_defaults(func=_cmd_report)


def _build_parser():
    import argparse

    parser = argparse.ArgumentParser(
        prog="clearnet",
        description="Clearing payment vectors and Katz-type centrality for "
        "financial obligation networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("clear", help="solve the clearing model")
    _add_io_args(p)
    p.add_argument("--r", type=float, default=1.0, help="interbank recovery rate")
    p.add_argument("--ra", type=float, default=1.0, help="external-asset recovery rate")

    p = sub.add_parser("shock", help="build a shock scenario and clear under it")
    _add_io_args(p)
    p.add_argument("--kind", choices=["full", "relaxed"], required=True)
    p.add_argument("--m", type=float, default=None, help="interpolation coefficient")
    p.add_argument("--r", type=float, default=1.0)
    p.add_argument("--ra", type=float, default=1.0)
    p.add_argument("--max-steps", type=int, default=1000, dest="max_steps")

    p = sub.add_parser("katz", help="generalized Katz centrality")
    _add_io_args(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--m", type=float, required=True)

    p = sub.add_parser("verify", help="clearing-vs-centrality equivalence check")
    _add_io_args(p)
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--m", type=float, required=True)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("gen", help="generate a seeded random system")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True, help="number of banks")
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--weight-scale", type=float, default=1.0, dest="weight_scale")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("spectral", help="radius and invertibility report")
    _add_io_args(p)
    p.add_argument("--r", type=float, default=None)

    return parser


def cli_main(argv=None) -> int:
    """Run the CLI; returns the process exit code.

    0 success / equivalence passed; 1 I/O, parse, or validation problems,
    out-of-range parameters included; 2 equivalence failure or a numerical
    failure (singular system, search exhausted); 3 violated shock
    preconditions.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        return args.func(args)
    except (ParseError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (PreconditionViolated, InvalidInterpolation) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ClearnetError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main())
