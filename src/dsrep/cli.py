"""Command-line interface.

Subcommands:
    generate  build a canonical irrep and write its generator document
    verify    check a generator document (commutators, Hermiticity, Casimirs)
    tables    print the computed reference tables
    validate  run the backbone validation pipeline on a backbone document

Exit codes: 0 success/valid, 1 invalid or verification failure, 2 usage or
document errors, or a reader that closed stdout early.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from .io import (
    DocumentError,
    backbone_from_doc,
    generators_from_doc,
    generators_to_doc,
    load_json,
    save_json,
    write_json,
)
from .representation import Algebra, CanonicalSpec, Family, assemble_canonical
from .solver import Verdict, solve_and_verify
from .tables import all_tables
from .verify import CR_TOLERANCE, build_report

__all__ = ["main"]


def _algebra(value: str) -> Algebra:
    return Algebra.ANTI_DE_SITTER if value == "ads" else Algebra.DE_SITTER


def _tolerance(text: str) -> float:
    """A --tolerance value: a finite number above zero.  NaN, infinities,
    zero and negative values would fail every residual or pass any."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number above zero, got {text!r}")
    return value


def _spelled(value):
    """value with each non-finite float written as the string "NaN",
    "Infinity" or "-Infinity": JSON (RFC 8259) has no number for them."""
    if isinstance(value, dict):
        return {key: _spelled(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_spelled(item) for item in value]
    if isinstance(value, float) and not math.isfinite(value):
        return json.dumps(value)  # Python's spelling of the bare token
    return value


def _dumps(payload) -> str:
    """The indented, strictly valid JSON text of a report payload."""
    return json.dumps(_spelled(payload), indent=1, allow_nan=False)


def _cmd_generate(args) -> int:
    try:
        gens = assemble_canonical(CanonicalSpec(Family(args.family), args.n),
                                  _algebra(args.algebra))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    doc = generators_to_doc(gens)
    if args.out:
        try:
            save_json(doc, args.out)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {gens.dim}-dimensional representation to {args.out}")
    else:
        write_json(doc, sys.stdout)
    return 0


def _render_report(report, fmt: str) -> str:
    if fmt == "json":
        payload = {
            "algebra": report.algebra.value,
            "passed": report.passed,
            "cr_residuals": report.cr_residuals,
            "hermiticity_residuals": report.hermiticity_residuals,
            "jz_residual": report.jz_residual,
            "failing_invariants": report.failing_invariants,
            "casimir1_scalar": None
            if report.casimir1_scalar is None
            else [report.casimir1_scalar.real, report.casimir1_scalar.imag],
            "casimir2_scalar": None
            if report.casimir2_scalar is None
            else [report.casimir2_scalar.real, report.casimir2_scalar.imag],
            "p": None if report.p is None else str(report.p),
            "q": None if report.q is None else str(report.q),
            "casimir_closed_form": None
            if report.casimir_closed_form is None
            else [float(c) for c in report.casimir_closed_form],
            "duplicates_present": report.duplicates_present,
            "cr_tolerance": report.cr_tolerance,
            "hermiticity_tolerance": report.hermiticity_tolerance,
        }
        return _dumps(payload)
    lines = [f"algebra: {report.algebra.value}"]
    lines.append(f"max commutator residual:  {report.max_cr_residual:.3e}"
                 f"  (tolerance {report.cr_tolerance:g})")
    lines.append(f"max Hermiticity residual: {report.max_hermiticity_residual:.3e}"
                 f"  (tolerance {report.hermiticity_tolerance:g})")
    for name in report.failing_crs:
        lines.append(f"  FAIL {name}: residual {report.cr_residuals[name]:.3e}")
    for name in report.failing_hermiticity:
        lines.append(f"  FAIL Hermiticity of {name}: "
                     f"{report.hermiticity_residuals[name]:.3e}")
    failing = report.failing_invariants
    if "Jz" in failing:
        lines.append(f"  FAIL Jz is not the diagonal a + b of the blocks: "
                     f"residual {report.jz_residual:.3e}")
    if report.casimir1_scalar is not None:
        lines.append(f"-C1 = {-report.casimir1_scalar.real:.12g}")
    else:
        lines.append("C1 is not a multiple of the identity (reducible or broken)")
    if report.casimir2_scalar is not None:
        lines.append(f"-C2 = {-report.casimir2_scalar.real:.12g}")
    else:
        lines.append("C2 is not a multiple of the identity (reducible or broken)")
    if report.p is not None:
        lines.append(f"p = {report.p}, q = {report.q}")
        for name, closed in zip(("C1", "C2"), report.casimir_closed_form):
            if name in failing:
                lines.append(f"  FAIL {name}: the closed form for this p, q is "
                             f"-{name} = {-closed}")
    lines.append(f"duplicate blocks present: {report.duplicates_present}")
    lines.append("verdict: " + ("PASS" if report.passed else "FAIL"))
    return "\n".join(lines)


def _cmd_verify(args) -> int:
    gens = generators_from_doc(load_json(args.input))
    report = build_report(gens, cr_tolerance=args.tolerance)
    print(_render_report(report, args.format))
    return 0 if report.passed else 1


def _cmd_tables(_args) -> int:
    print(all_tables(), end="")
    return 0


def _cmd_validate(args) -> int:
    graph, algebra = backbone_from_doc(load_json(args.input))
    outcome = solve_and_verify(graph, algebra)
    duplicates = sorted(
        (label, count) for label, count in graph.label_multiplicities().items() if count > 1
    )
    if args.format == "json":
        payload = {
            "verdict": outcome.verdict.value,
            "witness": None if outcome.witness is None else {
                "kind": outcome.witness.kind.value,
                "message": outcome.witness.message,
            },
            "dof": outcome.dof,
            "components": [
                {
                    "blocks": list(c.indices),
                    "family": None if c.family is None else c.family.value,
                    "n": c.n,
                }
                for c in outcome.components
            ],
            "t": None if outcome.t_values is None else [
                {"edge": list(k), "value": v} for k, v in sorted(outcome.t_values.items())
            ],
            "duplicates": [
                {"A": str(label.a), "B": str(label.b), "count": count} for label, count in duplicates
            ],
        }
        print(_dumps(payload))
    else:
        print(f"verdict: {outcome.verdict.value}")
        if outcome.witness is not None:
            print(f"witness: {outcome.witness}")
        if outcome.dof is not None:
            print(f"degrees of freedom: {outcome.dof}")
        print("components:")
        for c in outcome.components:
            print(f"  {c.describe(graph)}")
        if duplicates:
            rendered = ", ".join(f"{label} x{count}" for label, count in duplicates)
            print(f"duplicate blocks: {rendered}")
        if outcome.t_values:
            print("couplings:")
            for (i, j), v in sorted(outcome.t_values.items()):
                print(f"  t[{i}->{j}] = {v:.15g}")
    return 0 if outcome.verdict is Verdict.VALID else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    parse_args keeps no state between calls, and building the parser costs
    over ten times as much as parsing: a large share of a short in-process
    `validate`.
    """
    parser = argparse.ArgumentParser(
        prog="dsrep",
        description="Finite Hermitian/anti-Hermitian representations of the "
        "de Sitter and anti-de Sitter algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="build a canonical irrep")
    p_gen.add_argument("family", choices=["a", "b"], help="canonical chain family")
    p_gen.add_argument("n", type=int, help="number of blocks (>= 2)")
    p_gen.add_argument("--algebra", choices=["ds", "ads"], default="ds")
    p_gen.add_argument("--out", help="output path (default: stdout)")
    p_gen.set_defaults(func=_cmd_generate)

    p_ver = sub.add_parser("verify", help="verify a generator document")
    p_ver.add_argument("input", help="generator document path")
    p_ver.add_argument("--tolerance", type=_tolerance, default=CR_TOLERANCE,
                       help=f"commutator residual tolerance (default {CR_TOLERANCE:g})")
    p_ver.add_argument("--format", choices=["pretty", "json"], default="pretty")
    p_ver.set_defaults(func=_cmd_verify)

    p_tab = sub.add_parser("tables", help="print the computed reference tables")
    p_tab.set_defaults(func=_cmd_tables)

    p_val = sub.add_parser("validate", help="validate a backbone document")
    p_val.add_argument("input", help="backbone document path")
    p_val.add_argument("--format", choices=["pretty", "json"], default="pretty")
    p_val.set_defaults(func=_cmd_validate)
    return parser


def main(argv=None) -> int:
    """Run one command; a malformed document or a closed stdout exits 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
    except BrokenPipeError:
        # The reader went away.  Point the descriptor at devnull, so that
        # the interpreter's last flush of what is buffered cannot fail
        # again; an in-memory stdout has no descriptor to point.
        try:
            fd = sys.stdout.fileno()
        except OSError:
            return 2
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
    return 2


if __name__ == "__main__":
    sys.exit(main())
