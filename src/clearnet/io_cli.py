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
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from numpy.typing import NDArray

from ._linalg import Csr
from .clearing import (
    fictitious_default_sequence,
    picard_clearing_oracle,
    systemic_loss,
)
from .equivalence import verify_full_shock_equivalence
from .errors import (
    ClearnetError,
    InvalidInterpolation,
    ParseError,
    PreconditionViolated,
    ValidationError,
)
from .net_model import (
    ROW_BLOCK, ClearingParams, FinancialSystem, _validated_assets, build_system,
)
from .centrality import beta_vector, generalized_katz
from .shocks import (
    full_default_shock,
    relaxed_interpolated_shock,
    relaxed_shock_search,
    shocked_system,
)
from .spectral import check_invertibility

__all__ = [
    "SystemDocument",
    "dumps_canonical",
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


def _fmt_floats(row: NDArray) -> str:
    """A 1-D float array in one pass. Only its nonzero entries are
    formatted; a zero prints as ``0``, or ``-0`` with its sign bit set, as
    ``%.17g`` prints it. A non-finite entry fails the one check of the row,
    and then the entries are checked one by one and the first non-finite
    one raises."""
    if not np.isfinite(row).all():
        for x in row.tolist():
            _fmt_float(x)
    zero = row == 0.0
    out = ["0"] * row.size
    for i in np.flatnonzero(zero & np.signbit(row)).tolist():
        out[i] = "-0"
    nonzero = np.flatnonzero(~zero)
    for i, x in zip(nonzero.tolist(), row[nonzero].tolist()):
        out[i] = "%.17g" % x
    return ", ".join(out)


def _emit(value, out: list) -> None:
    if isinstance(value, np.ndarray):
        if value.ndim == 0 or value.dtype.kind != "f":
            value = value.tolist()
        elif value.ndim == 1:
            out.append("[" + _fmt_floats(np.asarray(value, dtype=float)) + "]")
            return
        else:
            value = list(value)   # its rows, each a 1-D array
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

_ARRAY_FIELDS = ("liabilities", "pre_shock_assets", "external_assets")


def _document_array(values, name: str) -> NDArray:
    """A document field as a read-only float array: a system's own array is
    kept, anything else is converted once. ``null``, which numpy reads as
    NaN, and non-numbers raise."""
    frozen = isinstance(values, np.ndarray) and not values.flags.writeable
    if frozen and values.dtype == float:
        return values
    try:
        a = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"non-numeric entry in document: {exc}") from exc
    if np.isnan(a).any():
        raise ValidationError(f"non-numeric entry in document: {name} holds null or NaN")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class SystemDocument:
    """On-disk representation of a financial system.

    ``liabilities`` is row-major with the sink last; ``names`` labels all
    nodes and always ends with ``"SINK"``. The numeric fields are read-only
    float arrays, compared and hashed by value, and a document is validated
    when it is built: it holds at least the sink row and one label per node,
    the last ``"SINK"``. A document is always complete: ``external_assets``
    defaults to ``pre_shock_assets`` (no shock yet) and ``names`` to
    ``B1 ... Bn, SINK``.
    Documents round-trip losslessly through JSON (floats keep 17
    significant digits).
    """

    liabilities: NDArray
    pre_shock_assets: NDArray
    external_assets: NDArray | None = None
    names: tuple | None = None

    def __post_init__(self):
        if self.external_assets is None:
            object.__setattr__(self, "external_assets", self.pre_shock_assets)
        for name in _ARRAY_FIELDS:
            object.__setattr__(self, name, _document_array(getattr(self, name), name))
        names = self.names
        if names is None:
            names = [f"B{i}" for i in range(1, len(self.liabilities))] + [SINK_LABEL]
        object.__setattr__(self, "names", tuple(str(x) for x in names))
        n = len(self.liabilities)
        if n == 0:
            raise ValidationError("liabilities must hold at least the sink row")
        if len(self.names) != n:
            raise ValidationError(f"names has {len(self.names)} entries for {n} nodes")
        if self.names[-1] != SINK_LABEL:
            raise ValidationError(f'last label must be "{SINK_LABEL}", got "{self.names[-1]}"')

    def __eq__(self, other) -> bool:
        if not isinstance(other, SystemDocument):
            return NotImplemented
        return self.names == other.names and all(
            np.array_equal(getattr(self, f), getattr(other, f)) for f in _ARRAY_FIELDS
        )

    def __hash__(self) -> int:
        # adding 0.0 turns -0.0 into 0.0, which it equals; no field holds NaN
        arrays = (getattr(self, f) + 0.0 for f in _ARRAY_FIELDS)
        return hash((self.names, *((a.shape, a.tobytes()) for a in arrays)))

    @classmethod
    def from_system(cls, system: FinancialSystem) -> "SystemDocument":
        """The document of ``system``, referring to its asset arrays; the
        liability matrix is the dense copy of the system's sparse ``L``."""
        return cls(system.liabilities, system.pre_shock_assets, system.external_assets)

    def to_system(self) -> FinancialSystem:
        return build_system(self.liabilities, self.pre_shock_assets, self.external_assets)

    def to_dict(self) -> dict:
        """The fields in file order, for :func:`dumps_canonical`."""
        return {f: getattr(self, f) for f in ("names",) + _ARRAY_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "SystemDocument":
        if not isinstance(data, dict):
            raise ValidationError("document root must be a JSON object")
        for required in ("liabilities", "pre_shock_assets"):
            if required not in data:
                raise ValidationError(f"{required} required")
        try:   # a scalar field or row has no length
            widths = [len(row) for row in data["liabilities"]]
        except TypeError as exc:
            raise ValidationError(f"non-numeric entry in document: {exc}") from exc
        for i, width in enumerate(widths):
            if width != widths[0]:
                raise ValidationError(
                    f"liabilities row {i} has {width} entries, row 0 has {widths[0]}"
                )
        if not isinstance(data.get("names"), (list, type(None))):
            raise ValidationError("names must be a list of labels")
        return cls(
            liabilities=data["liabilities"],
            pre_shock_assets=data["pre_shock_assets"],
            external_assets=data.get("external_assets"),
            names=data.get("names"),
        )


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


def load_document(path, format: str | None = None, assets_path=None) -> SystemDocument:
    """The document a JSON file holds, or the one a CSV matrix and its
    asset sidecar (one value per line, ``assets_path``) make; a report
    echoes it as read, and ``.to_system()`` builds its system.

    ``format`` ("json" or "csv") is inferred from the file suffix when not
    given. Parse failures raise :class:`ParseError` with the offending
    location; semantic failures raise :class:`ValidationError`, of which the
    model-validation errors from :func:`build_system` are subclasses.
    """
    fmt = format or ("csv" if str(path).lower().endswith(".csv") else "json")
    if fmt == "json":
        return parse_document(Path(path).read_text())
    if fmt == "csv":
        matrix = _read_csv(path)
        if assets_path is None:
            raise ValidationError(
                "pre_shock_assets required: CSV input needs an asset sidecar "
                "(--assets FILE)"
            )
        return SystemDocument(matrix, _read_csv(assets_path, sidecar=True))
    raise ValidationError(f"unknown format {fmt!r} (expected 'csv' or 'json')")


# --------------------------------------------------------------------------
# random systems
# --------------------------------------------------------------------------

def _weight_block(rng, shape, weight_scale, positions) -> tuple[NDArray, NDArray]:
    """One block of the weight stream: its weights at the flat ``positions``
    of the edges, and the block's row sums as numpy forms them on the dense
    block. The drawn array is reused as that block, so one array of
    ``shape`` is live at a time."""
    drawn = rng.lognormal(mean=0.0, sigma=1.0, size=shape)
    drawn *= weight_scale
    kept = drawn.ravel()[positions]
    drawn.fill(0.0)
    np.put(drawn, positions, kept)
    return kept, drawn.sum(axis=1)


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

    The edge and weight streams are drawn ``ROW_BLOCK`` rows of the bank
    block at a time, which yields the numbers of one n x n draw of each,
    and only the edges are kept: memory is O(nnz + ROW_BLOCK * n). Sums
    are formed as numpy forms them on the dense matrix, so every seeded
    network is the same bit for bit as one built densely.
    """
    if n_banks < 1:
        raise ValidationError(f"n_banks must be at least 1, got {n_banks}")
    if not 0.0 < density <= 1.0:
        raise ValidationError(f"density must lie in (0, 1], got {density}")
    rng = np.random.default_rng(seed)
    n = n_banks
    N = n + 1
    blocks = [(start, min(start + ROW_BLOCK, n)) for start in range(0, n, ROW_BLOCK)]

    edges = []   # per block, the flat positions of its edges, in row-major order
    for start, stop in blocks:
        drawn = rng.random((stop - start, n)) < density
        drawn[np.arange(stop - start), np.arange(start, stop)] = False
        edges.append(np.flatnonzero(drawn))
    weights = []
    interbank = np.empty(n)
    for (start, stop), positions in zip(blocks, edges):
        kept, interbank[start:stop] = _weight_block(
            rng, (stop - start, n), weight_scale, positions
        )
        weights.append(kept)
    positions = np.concatenate([p + start * n for (start, _), p in zip(blocks, edges)])
    weights = np.concatenate(weights)
    cols = positions % n
    # bincount adds each column's entries in row order, as numpy's column
    # sum of the dense block does
    claims = np.bincount(cols, weights=weights, minlength=n)
    u = rng.uniform(0.1, 1.0, size=n)

    # each bank row ends with its (positive) liability to the sink, so bank
    # row i starts i entries later than in the bank block; the sink row is empty
    bank_ptr = np.searchsorted(positions, np.arange(n + 1) * n)
    L = Csr(
        np.append(bank_ptr + np.arange(N), n + weights.size),
        np.insert(cols, bank_ptr[1:], N - 1),
        np.insert(weights, bank_ptr[1:], claims + u * (1.0 + interbank)),
        (N, N),
    )
    # the assets are drawn from l, so the system is built first and its l,
    # the one row-sum pass, reused
    system = build_system(L, np.ones(N))
    l = system.total_liabilities
    o = np.empty(N)
    o[:n] = (l[:n] - claims) + rng.uniform(0.0, 1.0, size=n) * l[:n]
    o[N - 1] = 1.0
    o = _validated_assets(o, "pre_shock_assets", N)
    return replace(system, external_assets=o, pre_shock_assets=o)


# --------------------------------------------------------------------------
# report sections: one builder per command, each a function of the parsed
# arguments and the loaded system
# --------------------------------------------------------------------------

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
    ok, report = check_invertibility(system.claims_csr, 1.0 if r is None else r)
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
    beta = beta_vector(system, args.r, args.m)
    result = generalized_katz(system.claims_csr, args.r, beta, m=args.m)
    return {
        "parameters": {"r": args.r, "m": args.m},
        "beta": beta,
        "sigma": result.sigma,
        "residual": result.residual,
    }


def _verify_sections(args, system: FinancialSystem) -> dict:
    params = ClearingParams(r=args.r)
    full = verify_full_shock_equivalence(system, params, args.m, tol=args.tol)
    # the construction raises unless its candidate is certified, so the
    # section carries the two gaps or the error
    try:
        cert = relaxed_interpolated_shock(system, params, args.m)
    except ClearnetError as exc:
        relaxed = {"error": f"{type(exc).__name__}: {exc}"}
    else:
        relaxed = {"max_abs_gap": cert.candidate_gap, "printed_form_gap": cert.printed_gap}
        if cert.printed_gap > full.tolerance:
            print(
                "warning: alternative relaxed closed form differs from the "
                f"certified solution by {cert.printed_gap:.6g} (informational)",
                file=sys.stderr,
            )
    return {
        "parameters": {"r": args.r, "m": args.m, "tol": full.tolerance},
        "full_shock": {
            "max_abs_gap": full.max_abs_gap,
            "one_step": full.one_step,
            "all_defaulted": full.all_defaulted,
            "details": full.details,
            "passed": full.passed,
        },
        "relaxed": relaxed,
        "passed": full.passed,
    }


def _spectral_sections(args, system: FinancialSystem) -> dict:
    return {"spectral": _spectral_dict(system, args.r)}


# --------------------------------------------------------------------------
# the --pretty view: a function of the report dict alone, so the same
# rendering follows from the JSON a command prints
# --------------------------------------------------------------------------

def _leaves(value, key: str = ""):
    """The ``(dotted.key, value)`` pairs of a report's non-dict values, in
    report order."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _leaves(v, f"{key}.{k}" if key else k)
    else:
        yield key, value


def _cell(x) -> str:
    """A number to 6 significant digits (a zero of either sign as ``0``, as
    the JSON reads back); any other scalar as the JSON writes it."""
    if isinstance(x, bool) or not isinstance(x, (int, float, np.number)):
        return dumps_canonical(x)
    return "%.6g" % (x + 0.0)


def _pretty(report: dict) -> str:
    """Every per-node list of the report as a column of one node table,
    then every other value as a ``dotted.key  value`` line: a scalar as
    itself and an array as its shape. A list is per node when it has N
    entries, N the longest list, or N - 1 (the banks alone, their rows
    first). Rows are labelled by ``input.names``, or by node index."""
    leaves = list(_leaves(report))
    lists = {k: v for k, v in leaves if np.ndim(v) == 1}
    n = max(map(len, lists.values()), default=0)
    columns = {k: v for k, v in lists.items() if len(v) >= n - 1}
    labels = columns.pop("input.names", range(n))
    rows = [
        [str(label), *(_cell(c[i]) if i < len(c) else "" for c in columns.values())]
        for i, label in enumerate(labels)
    ]
    headers = ["node", *columns]
    widths = [max([len(h), *(len(row[j]) for row in rows)]) for j, h in enumerate(headers)]
    lines = [
        "  ".join(cell.rjust(w) for cell, w in zip(cells, widths))
        for cells in [headers, ["-" * w for w in widths], *rows]
    ]
    pairs = [
        (k, _cell(v) if np.ndim(v) == 0 else str(np.shape(v)))
        for k, v in leaves
        if k not in columns and k != "input.names"
    ]
    width = max(len(k) for k, _ in pairs)
    lines.extend(f"{k.ljust(width)}  {v}" for k, v in pairs)
    return "\n".join(lines)


# --------------------------------------------------------------------------
# CLI commands
# --------------------------------------------------------------------------

# the section builder of each report command
_REPORTS = {
    "clear": _clear_sections,
    "shock": _shock_sections,
    "katz": _katz_sections,
    "verify": _verify_sections,
    "spectral": _spectral_sections,
}


def _cmd_report(args) -> int:
    """Read the input once, echo the document as read (a -0.0 entry stays
    -0, and the system's sparse ``L`` is never densified), add the
    command's sections and print the report as canonical JSON or its
    --pretty view. A report that carries ``passed`` exits 2 when it is
    false."""
    doc = load_document(args.input, args.format, args.assets)
    report = {"command": args.command, "input": {"path": str(args.input), **doc.to_dict()}}
    report.update(_REPORTS[args.command](args, doc.to_system()))
    print(_pretty(report) if args.pretty else dumps_canonical(report))
    return 0 if report.get("passed", True) else 2


def _cmd_gen(args) -> int:
    system = generate_random_system(
        args.seed, args.n, args.density, weight_scale=args.weight_scale
    )
    save_document(SystemDocument.from_system(system), args.out)
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
