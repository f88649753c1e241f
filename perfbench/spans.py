"""Span recording around dsrep's module boundaries, and per-layer metrics.

The benchmark wraps each public function at a module boundary with a
recorder.  A function is patched under every name its callers use
(``dsrep.solver.assemble`` as well as ``dsrep.representation.assemble``),
because a ``from ... import`` caller holds its own reference and would
miss a patch on the defining module alone.

Spans stay in memory while the benchmark runs: name, start, end, parent
span and op id, plus a few counts taken at the same boundary.  A layer is
the module a span's name starts with.  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import statistics
import time

# Dense complex products one call makes, for the flop count: 27
# commutators of two products each; the ladder form of C1 has 10
# products, the Cartesian form 10 squares; the shipped C2 reading builds
# K.J and V.J (3 each), the auxiliary vector (9), their squares (2) and
# Q.Q (3).
DENSE_PRODUCTS = {
    "verify.check_all_crs": 54,
    "verify.casimir1_matrix": 10,
    "verify.casimir1_cartesian": 10,
    "verify.casimir2_matrix": 20,
}

# assemble allocates ten generator matrices plus four ladder matrices,
# all dense complex128 dim x dim.
ASSEMBLE_DENSE_ARRAYS = 14


# Count hooks: called with the positional arguments and the result of a
# traced call, as dsrep's callers pass them.


def _flops(name):
    products = DENSE_PRODUCTS[name]

    def count(args, result):
        return {"flops": products * 8 * args[0].dim ** 3}

    return count


def _assemble_bytes(args, result):
    return {"dense_bytes": ASSEMBLE_DENSE_ARRAYS * 16 * result.dim**2}


def _unknowns(args, result):
    return {"unknowns": len(args[0][0]) if args[0] else 0}


def _saved_bytes(args, result):
    return {"doc_bytes": os.path.getsize(args[1])}


def _loaded_bytes(args, result):
    return {"doc_bytes": os.path.getsize(args[0])}


def _solver_outcome(args, result):
    stage = result.verdict.value if result.witness is None else result.witness.kind.value
    # An attempt succeeded when its assembled matrices verified; the
    # loop stops there, with a valid verdict or the non-canonical witness.
    verified = result.verdict.value == "valid" or stage == "non-canonical-component"
    return {"stage": stage, "useful": int(verified)}


# (span name, defining module, caller modules, count hook).  The span
# name is "<layer>.<function>".
BOUNDARIES = (
    ("cli.main", "dsrep.cli", ("dsrep.cli",), None),
    ("io.load_json", "dsrep.io", ("dsrep.cli",), _loaded_bytes),
    ("io.save_json", "dsrep.io", ("dsrep.cli",), _saved_bytes),
    ("io.generators_to_doc", "dsrep.io", ("dsrep.cli",), None),
    ("io.generators_from_doc", "dsrep.io", ("dsrep.cli",), None),
    ("io.backbone_from_doc", "dsrep.io", ("dsrep.cli", "dsrep.io"), None),
    ("representation.assemble", "dsrep.representation",
     ("dsrep.representation", "dsrep.solver"), _assemble_bytes),
    ("blocks.hla_cartesian", "dsrep.blocks", ("dsrep.representation",), None),
    ("coupling.u_blocks", "dsrep.coupling", ("dsrep.representation",), None),
    ("coupling.cartesian_from_ladders", "dsrep.coupling", ("dsrep.representation",), None),
    ("verify.build_report", "dsrep.verify", ("dsrep.cli",), None),
    ("verify.check_all_crs", "dsrep.verify", ("dsrep.verify", "dsrep.solver"),
     _flops("verify.check_all_crs")),
    ("verify.check_hermiticity", "dsrep.verify", ("dsrep.verify", "dsrep.solver"), None),
    ("verify.casimir1_matrix", "dsrep.verify", ("dsrep.verify",),
     _flops("verify.casimir1_matrix")),
    ("verify.casimir1_cartesian", "dsrep.verify", ("dsrep.verify",),
     _flops("verify.casimir1_cartesian")),
    ("verify.casimir2_matrix", "dsrep.verify", ("dsrep.verify",),
     _flops("verify.casimir2_matrix")),
    ("verify.scalar_check", "dsrep.verify", ("dsrep.verify",), None),
    ("numeric.commutator", "dsrep.numeric", ("dsrep.verify",), None),
    ("numeric.solve_rational_linear", "dsrep.numeric", ("dsrep.solver",), _unknowns),
    ("solver.solve_and_verify", "dsrep.solver", ("dsrep.cli", "dsrep.solver"), _solver_outcome),
    ("solver.structural_checks", "dsrep.solver", ("dsrep.solver",), None),
    ("solver.unique_nonmonotonic_paths", "dsrep.solver", ("dsrep.solver",), None),
    ("solver.build_onbd_system", "dsrep.solver", ("dsrep.solver",), None),
    ("solver.decompose", "dsrep.solver", ("dsrep.solver",), None),
)

LAYERS = ("cli", "io", "representation", "blocks", "coupling", "verify", "numeric", "solver")

# Per-op time metrics: span name and whether the metric is its self time
# ("self_ms") or its whole duration ("ms").
TIME_METRICS = (
    ("cli.main", "self_ms"),
    ("io.load_json", "ms"),
    ("io.save_json", "ms"),
    ("io.generators_to_doc", "ms"),
    ("io.generators_from_doc", "ms"),
    ("io.backbone_from_doc", "ms"),
    ("representation.assemble", "self_ms"),
    ("blocks.hla_cartesian", "ms"),
    ("coupling.u_blocks", "ms"),
    ("coupling.cartesian_from_ladders", "ms"),
    ("verify.build_report", "self_ms"),
    ("verify.check_all_crs", "ms"),
    ("verify.check_hermiticity", "ms"),
    ("verify.casimir1_matrix", "ms"),
    ("verify.casimir1_cartesian", "ms"),
    ("verify.casimir2_matrix", "ms"),
    ("verify.scalar_check", "ms"),
    ("numeric.commutator", "ms"),
    ("numeric.solve_rational_linear", "ms"),
    ("solver.solve_and_verify", "self_ms"),
    ("solver.structural_checks", "ms"),
    ("solver.unique_nonmonotonic_paths", "ms"),
    ("solver.build_onbd_system", "ms"),
    ("solver.decompose", "ms"),
)

# Per-op counts: metric name, span name, and the attribute summed within
# an op (None counts the calls).
COUNT_METRICS = (
    ("io.doc_bytes", ("io.load_json", "io.save_json"), "doc_bytes", "bytes"),
    ("representation.assemble.calls", ("representation.assemble",), None, "count"),
    ("representation.assemble.dense_bytes_computed", ("representation.assemble",),
     "dense_bytes", "bytes"),
    ("blocks.hla_cartesian.calls", ("blocks.hla_cartesian",), None, "count"),
    ("coupling.u_blocks.calls", ("coupling.u_blocks",), None, "count"),
    ("verify.flops_computed", tuple(DENSE_PRODUCTS), "flops", "flop"),
    ("numeric.commutator.calls", ("numeric.commutator",), None, "count"),
    ("numeric.solve_rational_linear.unknowns", ("numeric.solve_rational_linear",),
     "unknowns", "count"),
)

# Every way solve_and_verify can end: a witness kind, or a verdict
# reached without one.
DECIDING_STAGES = (
    "one-block",
    "dangling-end",
    "incompatible-edge",
    "boundary-violation",
    "unique-nonmonotonic-path",
    "linear-system-inconsistent",
    "sign-constraint-violated",
    "dead-edge",
    "numeric-cr-failure",
    "non-canonical-component",
    "valid",
    "underdetermined",
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "attrs")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.start = self.end = 0.0
        self.attrs = None


class Tracer:
    """Records spans in memory while an op is open; passes through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = None
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = Span(name, tracer._stack[-1] if tracer._stack else None, tracer._op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                span.attrs = count(args, result)
            return result

        return traced

    def install(self):
        """Patch every boundary function under each name its callers use."""
        for name, home, callers, count in BOUNDARIES:
            attr = name.split(".", 1)[1]
            wrapped = self.wrap(name, getattr(importlib.import_module(home), attr), count)
            for caller in callers:
                module = importlib.import_module(caller)
                self._undo.append((module, attr, getattr(module, attr)))
                setattr(module, attr, wrapped)

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def run_op(self, op_id, fn):
        """Run one op under a root span named "op"; return (result, seconds)."""
        self._op = op_id
        root = len(self.spans)
        try:
            result = self.wrap("op", fn)()
        finally:
            self._op = None
        return result, self.spans[root].end - self.spans[root].start

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent index, op id."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, s in enumerate(self.spans):
                record = {"i": index, "name": s.name, "start": s.start, "end": s.end,
                          "parent": s.parent, "op": s.op}
                if s.attrs:
                    record["attrs"] = s.attrs
                handle.write(json.dumps(record) + "\n")


def _median_nonzero(values):
    present = [v for v in values if v]
    return statistics.median(present) if present else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from recorded spans: {name: (value, unit)}.

    Each time metric is the span's time summed within an op, as the
    median over the ops where the span ran, and as its share of the
    summed op time.  Counts are likewise summed within an op and given as
    the median over the ops where they occur.
    """
    durations = [s.end - s.start for s in spans]
    child_time = [0.0] * len(spans)
    for index, s in enumerate(spans):
        if s.parent is not None:
            child_time[s.parent] += durations[index]

    ops: dict[object, dict[str, float]] = {}
    op_time = 0.0
    for index, s in enumerate(spans):
        per_op = ops.setdefault(s.op, {})
        self_time = durations[index] - child_time[index]
        if s.name == "op":
            op_time += durations[index]
            per_op["op.self"] = per_op.get("op.self", 0.0) + self_time
            continue
        for key, value in (
            (s.name + ".ms", durations[index]),
            (s.name + ".self_ms", self_time),
            (s.name.split(".", 1)[0] + ".layer_self", self_time),
            (s.name + ".calls", 1),
        ):
            per_op[key] = per_op.get(key, 0.0) + value
        for key, value in (s.attrs or {}).items():
            if isinstance(value, (int, float)):
                per_op[s.name + "." + key] = per_op.get(s.name + "." + key, 0.0) + value

    def total(key):
        return sum(p.get(key, 0.0) for p in ops.values())

    share_base = op_time or 1.0
    out: dict[str, tuple[float, str]] = {}
    for name, kind in TIME_METRICS:
        key = f"{name}.{kind}"
        out[key] = (1e3 * _median_nonzero([p.get(key, 0.0) for p in ops.values()]), "ms")
        share = f"{name}.share" if kind == "ms" else f"{name}.self_share"
        out[share] = (total(key) / share_base, "frac")
    for metric, names, attr, unit in COUNT_METRICS:
        suffix = attr or "calls"
        values = [sum(p.get(f"{n}.{suffix}", 0.0) for n in names) for p in ops.values()]
        out[metric] = (_median_nonzero(values), unit)

    solver_spans = [s for s in spans if s.name == "solver.solve_and_verify"]
    attempts = {i: 0 for i, s in enumerate(spans) if s.name == "solver.solve_and_verify"}
    for s in spans:
        if s.name == "representation.assemble" and s.parent in attempts:
            attempts[s.parent] += 1
    out["solver.assemble_attempts"] = (_median_nonzero(list(attempts.values())), "count")
    useful = sum(s.attrs["useful"] for s in solver_spans)
    tried = sum(attempts.values())
    out["solver.gauge_useful_ratio"] = (useful / tried if tried else 0.0, "frac")
    for stage in DECIDING_STAGES:
        hits = sum(1 for s in solver_spans if s.attrs["stage"] == stage)
        out[f"solver.deciding_stage.{stage}"] = (hits, "count")
    for layer in LAYERS:
        out[f"layer.{layer}.self_share"] = (total(f"{layer}.layer_self") / share_base, "frac")
    out["trace.attributed_frac"] = (1.0 - total("op.self") / share_base, "frac")
    return out


def metric_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    return [(name, unit) for name, (_, unit) in layer_metrics([]).items()] + [
        ("trace.overhead_frac", "frac")
    ]
