"""The benchmark's span boundaries still name functions of dsrep, and dsrep
calls each of them by that name.

`perfbench/spans.py` patches each boundary function under its name in
its defining module and in every caller module; a name that no longer
resolves stops the benchmark with an AttributeError, and a name the
callers no longer call leaves its span reading 0.
"""

import functools
import importlib
from pathlib import Path

import pytest
from conftest import benchmark_boundaries, benchmark_spans

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

# Spans no CLI path runs: the names stay in src/dsrep only for these
# spans, and go with them at the next change to the benchmark.
IDLE = ("verify.casimir1_cartesian", "numeric.commutator")


@pytest.mark.parametrize(
    "name,home,callers", [pytest.param(*b[:3], id=b[0]) for b in benchmark_boundaries()]
)
def test_boundary_resolves_in_home_and_callers(name, home, callers):
    attr = name.split(".", 1)[1]
    function = getattr(importlib.import_module(home), attr)
    assert callable(function)
    for caller in callers:
        assert getattr(importlib.import_module(caller), attr) is function, caller


def test_every_span_fires_on_generate_verify_validate(tmp_path, capsys):
    """`generate --out`, `verify` on its document and `validate` on a valid
    fixture run every span but the idle ones, under the benchmark's own
    tracer."""
    spans = benchmark_spans()
    tracer = spans.Tracer()
    cli = importlib.import_module("dsrep.cli")
    path = tmp_path / "rep.json"
    runs = (
        ["generate", "a", "3", "--out", str(path)],
        ["verify", str(path)],
        ["validate", str(FIXTURES / "valid_three_chain_crossing.json")],
    )
    tracer.install()
    try:
        for op, argv in enumerate(runs):
            # cli.main is looked up after install, so the op runs the patched one
            code, _ = tracer.run_op(op, functools.partial(cli.main, argv))
            assert code == 0, argv
    finally:
        tracer.uninstall()
    capsys.readouterr()
    fired = {span.name for span in tracer.spans}
    assert [name for name, *_ in spans.BOUNDARIES if name not in fired] == list(IDLE)
