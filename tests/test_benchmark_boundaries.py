"""The benchmark's span boundaries still name functions of dsrep.

`perfbench/spans.py` patches each boundary function under its name in
its defining module and in every caller module; a name that no longer
resolves stops the benchmark with an AttributeError.
"""

import importlib

import pytest
from conftest import benchmark_boundaries


@pytest.mark.parametrize(
    "name,home,callers", [pytest.param(*b[:3], id=b[0]) for b in benchmark_boundaries()]
)
def test_boundary_resolves_in_home_and_callers(name, home, callers):
    attr = name.split(".", 1)[1]
    function = getattr(importlib.import_module(home), attr)
    assert callable(function)
    for caller in callers:
        assert getattr(importlib.import_module(caller), attr) is function, caller
