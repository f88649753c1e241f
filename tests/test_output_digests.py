"""The bytes the CLI prints stay the same: SHA-256 digests of `generate`
and `validate` output, pinned in tests/golden/output_digests.json.

`verify` is left out, since its residual digits follow the relation
kernel's summation order, and `tables` is pinned whole by
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


def _digests() -> dict[str, str]:
    out = {}
    for name, argv in _runs():
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            main(argv)
        out[name] = hashlib.sha256(buffer.getvalue().encode()).hexdigest()
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
