"""The bytes the CLI prints stay the same: SHA-256 digests of `generate`,
`validate` and `verify --format json` output, pinned in
tests/golden/output_digests.json.  The same file pins the solver's
answers: the verdict, witness and couplings of `solve_and_verify` on the
gauge-search weights and the fixtures, and the Casimir scalars
`build_report` finds on the weights' generators.

`verify`'s residual digits follow the relation kernel's summation order,
so its digest covers every field but those: `cr_residuals` and
`hermiticity_residuals` keep only their keys, and `jz_residual` only its
name.  A change to the summation order then cannot move a verdict or a
Casimir scalar unseen.  `tables` is pinned whole by
tests/golden/tables.txt.  No fixture ends in a numeric relation failure,
so no pinned `validate` output prints a residual.

After a change that is meant to alter these outputs, rewrite the file with
    PYTHONPATH=src python tests/test_output_digests.py > tests/golden/output_digests.json
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from conftest import gelfand_tsetlin_backbone
from dsrep.cli import main
from dsrep.io import backbone_from_doc
from dsrep.representation import Algebra
from dsrep.solver import solve_and_verify
from dsrep.verify import build_report

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DIGESTS = Path(__file__).resolve().parent / "golden" / "output_digests.json"

CHAINS = [("a", n) for n in range(2, 11)] + [("b", n) for n in range(2, 13)]
# twice (m1, m2) of the so(5) weights the gauge-search benchmark solves
GAUGE_WEIGHTS = [(3, 1), (4, 2), (5, 1), (5, 3), (6, 2), (7, 1), (7, 3), (9, 3), (9, 5), (11, 5), (11, 7)]


def _runs():
    """(name, argv) of every pinned output."""
    for family, n in CHAINS:
        for algebra in ("ds", "ads"):
            yield (f"generate {family}{n} {algebra}",
                   ["generate", family, str(n), "--algebra", algebra])
    for path in sorted(FIXTURES.glob("*.json")):
        for fmt in ("pretty", "json"):
            yield f"validate {path.name} {fmt}", ["validate", str(path), "--format", fmt]


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _stdout(argv) -> tuple[int, str]:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def _verify_digest(document: Path) -> str:
    """The digest of `verify --format json` on a document, with its exit
    code, residual values left out."""
    code, text = _stdout(["verify", str(document), "--format", "json"])
    report = json.loads(text)
    for field in ("cr_residuals", "hermiticity_residuals"):
        report[field] = list(report[field])
    del report["jz_residual"]
    return _sha(json.dumps({"exit": code, "report": report}))


def _answer_digest(outcome) -> str:
    """The digest of a solver outcome's verdict, witness and couplings."""
    t_values = None if outcome.t_values is None else sorted(outcome.t_values.items())
    return _sha(repr((outcome.verdict, outcome.witness, t_values)))


def _solver_digests() -> dict[str, str]:
    out = {}
    for twice_m1, twice_m2 in GAUGE_WEIGHTS:
        graph = gelfand_tsetlin_backbone(twice_m1, twice_m2)
        for algebra in Algebra:
            outcome = solve_and_verify(graph, algebra, allow_noncanonical=True)
            name = f"gt{twice_m1}-{twice_m2} {algebra.value}"
            out[f"solve {name} noncanonical"] = _answer_digest(outcome)
            report = build_report(outcome.generators)
            out[f"casimirs {name}"] = _sha(repr((report.casimir1_scalar, report.casimir2_scalar)))
    for path in sorted(FIXTURES.glob("*.json")):
        graph, algebra = backbone_from_doc(json.loads(path.read_text()))
        for mode, allow in (("default", False), ("noncanonical", True)):
            out[f"solve {path.name} {mode}"] = _answer_digest(
                solve_and_verify(graph, algebra, allow_noncanonical=allow)
            )
    return out


def _cli_digests() -> dict[str, str]:
    out = {name: _sha(_stdout(argv)[1]) for name, argv in _runs()}
    with tempfile.TemporaryDirectory() as scratch:
        for family, n in CHAINS:
            for algebra in ("ds", "ads"):
                document = Path(scratch) / f"{family}{n}-{algebra}.json"
                _stdout(["generate", family, str(n), "--algebra", algebra, "--out", str(document)])
                out[f"verify {family}{n} {algebra} json"] = _verify_digest(document)
    return out


def _digests() -> dict[str, str]:
    return {**_cli_digests(), **_solver_digests()}


SOLVER_PREFIXES = ("solve ", "casimirs ")


def _differing(got: dict[str, str]) -> list[str]:
    """The names whose digests differ from the pinned ones, after checking
    that `got` names every pinned output of its kind."""
    solver = next(iter(got)).startswith(SOLVER_PREFIXES)
    pinned = json.loads(DIGESTS.read_text())
    pinned = {name: d for name, d in pinned.items() if name.startswith(SOLVER_PREFIXES) == solver}
    assert sorted(got) == sorted(pinned)
    return [name for name in got if got[name] != pinned[name]]


def test_outputs_match_pinned_digests():
    differing = _differing(_cli_digests())
    assert not differing, f"outputs differ from the pinned digests: {differing}"


def test_solver_answers_match_pinned_digests():
    differing = _differing(_solver_digests())
    assert not differing, f"solver answers differ from the pinned digests: {differing}"


if __name__ == "__main__":
    json.dump(_digests(), sys.stdout, indent=1)
    print()
