"""Span tracing of clearnet's layers from outside the package.

Each traced function is replaced by a wrapper that records a span (name,
start, end, parent span, op id) and, for a few functions, one number read
from its arguments or result. Modules import names with ``from .x import
y``, so a wrapper is bound in every ``clearnet`` namespace that holds the
original object, not only in the defining module. Spans stay in memory
until :meth:`Tracer.metrics` or :meth:`Tracer.dump` is called.
"""
from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


# (module, attribute, probe). A layer is named "<module>.<attribute>", with
# the leading underscore of a private module dropped because metric names
# start with a letter; a probe reads one number from (args, kwargs, result).
TRACED = (
    ("io_cli", "load_system", None),
    ("io_cli", "SystemDocument.from_system", None),
    ("io_cli", "dumps_canonical", lambda args, kwargs, out: len(out.encode())),
    ("io_cli", "generate_random_system", None),
    ("net_model", "build_system", None),
    ("net_model", "relative_claims", None),
    ("net_model", "default_indicator", None),
    ("clearing", "fictitious_default_sequence", lambda args, kwargs, out: out.iterations),
    ("clearing", "solve_given_defaults",
     lambda args, kwargs, out: int(_arg(args, kwargs, 2, "defaults").flags.sum())),
    ("clearing", "picard_clearing_oracle", None),
    ("clearing", "apply_clearing_map", None),
    ("_linalg", "lu_factor_checked",
     lambda args, kwargs, out: _arg(args, kwargs, 0, "A").shape[0]),
    ("_linalg", "solve_checked", None),
    ("spectral", "spectral_radius", None),
    ("spectral", "check_invertibility", None),
    ("centrality", "generalized_katz", None),
    ("centrality", "beta_vector", None),
    ("shocks", "full_default_shock", None),
    ("shocks", "relaxed_shock_search", None),
    ("shocks", "relaxed_interpolated_shock", None),
    ("equivalence", "verify_full_shock_equivalence", None),
    ("equivalence", "verify_relaxed_equivalence", None),
)
LAYERS = tuple(f"{module.lstrip('_')}.{attr}" for module, attr, _ in TRACED)

# Figures that Tracer.metrics derives from the probes and the span tree,
# beside the "<layer>.self_s" (s) and "<layer>.calls" (count) of every layer.
DERIVED = {
    "net_model.relative_claims.per_op": "builds/op",
    "clearing.fictitious_default_sequence.rounds": "count",
    "clearing.solve_given_defaults.block_nodes": "nodes",
    "linalg.lu_factor_checked.flops": "flop",
    "io_cli.dumps_canonical.bytes": "bytes",
    "shocks.relaxed_shock_search.clears": "count",
}

# Unit of every figure Tracer.metrics returns.
UNITS = {
    **{f"{name}.{figure}": unit for name in LAYERS
       for figure, unit in (("self_s", "s"), ("calls", "count"))},
    **DERIVED,
}

WARMUP = "warmup"  # op id of the untimed warm-up op, whose spans are not counted

NAME, START, END, PARENT, OP, INFO = range(6)


class Tracer:
    """Collects spans of the wrapped functions; one instance per process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = "setup"
        self.missing: list[str] = []

    def _wrap(self, name: str, fn, probe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                self._stack.pop()
            if probe is not None:
                span[INFO] = probe(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        """Bind a wrapper for every entry of ``TRACED`` wherever clearnet
        code looks the name up. A name the package no longer has is
        recorded in ``missing`` and reported with zero spans."""
        for (module, attr, probe), name in zip(TRACED, LAYERS):
            mod = importlib.import_module(f"clearnet.{module}")
            owner_name, _, func_name = attr.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            original = getattr(owner, func_name, None)
            if original is None:
                self.missing.append(name)
                continue
            if owner_name:  # a classmethod: wrap the function, rebind on the class
                setattr(owner, func_name,
                        classmethod(self._wrap(name, original.__func__, probe)))
                continue
            wrapper = self._wrap(name, original, probe)
            for key, loaded in list(sys.modules.items()):
                if key == "clearnet" or key.startswith("clearnet."):
                    for binding, value in list(vars(loaded).items()):
                        if value is original:
                            setattr(loaded, binding, wrapper)

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its child spans cover."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def metrics(self, op_ids: set) -> dict:
        """Per-layer totals over every span outside the warm-up op (set-up
        spans included); ``op_ids`` are the measured ops (for per-op
        ratios). ``UNITS`` names every figure it returns."""
        own = self.self_times()
        self_s: dict = defaultdict(float)
        calls: dict = defaultdict(int)
        info: dict = defaultdict(list)
        claims_in_ops = search_clears = 0
        for i, s in enumerate(self.spans):
            if s[OP] == WARMUP:
                continue
            name = s[NAME]
            self_s[name] += own[i]
            calls[name] += 1
            if s[INFO] is not None:
                info[name].append(s[INFO])
            if name == "net_model.relative_claims" and s[OP] in op_ids:
                claims_in_ops += 1
            if name == "clearing.fictitious_default_sequence":
                parent = s[PARENT]
                while parent >= 0 and self.spans[parent][NAME] != "shocks.relaxed_shock_search":
                    parent = self.spans[parent][PARENT]
                search_clears += parent >= 0

        ops = max(1, len(op_ids))
        out: dict = {}
        for name in LAYERS:
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.calls"] = calls[name]
        blocks = info["clearing.solve_given_defaults"]
        out.update({
            "net_model.relative_claims.per_op": claims_in_ops / ops,
            "clearing.fictitious_default_sequence.rounds":
                sum(info["clearing.fictitious_default_sequence"]),
            "clearing.solve_given_defaults.block_nodes":
                sum(blocks) / len(blocks) if blocks else 0.0,
            "linalg.lu_factor_checked.flops":
                sum(2.0 * n ** 3 / 3.0 for n in info["linalg.lu_factor_checked"]),
            "io_cli.dumps_canonical.bytes": sum(info["io_cli.dumps_canonical"]),
            "shocks.relaxed_shock_search.clears": search_clears,
        })
        return out

    def dump(self, path) -> None:
        """Write every span, with its self time, as JSON."""
        own = self.self_times()
        rows = [
            {"name": s[NAME], "start": s[START], "end": s[END], "parent": s[PARENT],
             "op": s[OP], "info": s[INFO], "self_s": own[i]}
            for i, s in enumerate(self.spans)
        ]
        with open(path, "w") as f:
            json.dump({"missing": self.missing, "spans": rows}, f)
