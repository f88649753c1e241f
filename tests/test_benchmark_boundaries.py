"""The benchmark's span boundaries still name functions of dsrep.

`perfbench/spans.py` patches each boundary function under its name in
its defining module and in every caller module; a name that no longer
resolves stops the benchmark with an AttributeError.  The module is read
and executed in memory here, so nothing is written under `perfbench/`.
"""

import importlib
import types
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _boundaries():
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module.BOUNDARIES


@pytest.mark.parametrize(
    "name,home,callers", [pytest.param(*b[:3], id=b[0]) for b in _boundaries()]
)
def test_boundary_resolves_in_home_and_callers(name, home, callers):
    attr = name.split(".", 1)[1]
    function = getattr(importlib.import_module(home), attr)
    assert callable(function)
    for caller in callers:
        assert getattr(importlib.import_module(caller), attr) is function, caller
