"""The bytes the CLI prints stay the same: SHA-256 digests of `generate`,
`validate` and `verify --format json` output, pinned in
tests/golden/output_digests.json.

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

from dsrep.cli import main

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
DIGESTS = Path(__file__).resolve().parent / "golden" / "output_digests.json"

CHAINS = [("a", n) for n in range(2, 11)] + [("b", n) for n in range(2, 13)]


def _runs():
    """(name, argv) of every pinned output."""
    for family, n in CHAINS:
        for algebra in ("ds", "ads"):
            yield (f"generate {family}{n} {algebra}",
                   ["generate", family, str(n), "--algebra", algebra])
    for path in sorted(FIXTURES.glob("*.json")):
        for fmt in ("pretty", "json"):
            yield f"validate {path.name} {fmt}", ["validate", str(path), "--format", fmt]


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
    pinned = json.dumps({"exit": code, "report": report})
    return hashlib.sha256(pinned.encode()).hexdigest()


def _digests() -> dict[str, str]:
    out = {name: hashlib.sha256(_stdout(argv)[1].encode()).hexdigest() for name, argv in _runs()}
    with tempfile.TemporaryDirectory() as scratch:
        for family, n in CHAINS:
            for algebra in ("ds", "ads"):
                document = Path(scratch) / f"{family}{n}-{algebra}.json"
                _stdout(["generate", family, str(n), "--algebra", algebra, "--out", str(document)])
                out[f"verify {family}{n} {algebra} json"] = _verify_digest(document)
    return out


def test_outputs_match_pinned_digests():
    pinned = json.loads(DIGESTS.read_text())
    got = _digests()
    assert sorted(got) == sorted(pinned)
    differing = [name for name in got if got[name] != pinned[name]]
    assert not differing, f"outputs differ from the pinned digests: {differing}"


if __name__ == "__main__":
    json.dump(_digests(), sys.stdout, indent=1)
    print()
