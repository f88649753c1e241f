"""Self-tests of the benchmark, on its smoke mode.

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection: they start benchmark processes and belong to the benchmark.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def test_benchmark_file_names_what_run_reports():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["per_layer"]] == [n for n, _ in spans.metric_names()]
    assert [m["unit"] for m in SPEC["per_layer"]] == [u for _, u in spans.metric_names()]


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_end_to_end(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "0", "--smoke"))
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_trace(workload):
    result = _result(_run("--workload", workload, "--seed", "3", "--seconds", "1",
                          "--trace", "1", "--smoke"))
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # Self times partition the op: the benchmark's own share is small.
    assert metrics["trace.attributed_frac"] > 0.9
    if workload == "chain-verify":
        assert metrics["numeric.solve_rational_linear.ms"] == 0
    else:
        assert metrics["numeric.solve_rational_linear.ms"] > 0


def test_refuses_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_inputs_follow_the_seed():
    first = workloads.validate_corpus(5)
    assert [p.doc for p in first] == [p.doc for p in workloads.validate_corpus(5)]
    assert [p.doc for p in first] != [p.doc for p in workloads.validate_corpus(6)]
    kinds = {p.label.rstrip("0123456789") for p in first}
    assert set(workloads.MUTATIONS) <= kinds


def test_corpus_stays_small():
    for proposal in workloads.validate_corpus(11):
        dim = sum(
            (int(Fraction(b["A"]) * 2) + 1) * (int(Fraction(b["B"]) * 2) + 1)
            for b in proposal.doc["blocks"]
        )
        assert dim <= workloads.MAX_CORPUS_DIM + 30, proposal.label


@pytest.mark.parametrize("m1, m2", workloads.GT_WEIGHTS)
def test_gelfand_tsetlin_dimension_is_weyl(m1, m2):
    labels, edges = workloads.gelfand_tsetlin(m1, m2)
    assert sum(workloads.block_dim(label) for label in labels) == workloads.weyl_dimension(m1, m2)
    assert 1 <= workloads.independent_cycles(labels, edges) <= workloads.MAX_CHORDS


def test_self_time_subtracts_children():
    def span(name, start, end, parent, op=0):
        s = spans.Span(name, parent, op)
        s.start, s.end = start, end
        return s

    tree = [
        span("op", 0.0, 1.0, None),
        span("cli.main", 0.0, 0.9, 0),
        span("verify.build_report", 0.1, 0.8, 1),
        span("verify.check_all_crs", 0.2, 0.6, 2),
        span("numeric.commutator", 0.2, 0.5, 3),
    ]
    tree[3].attrs = {"flops": 100}
    metrics = spans.layer_metrics(tree)
    assert metrics["verify.build_report.self_ms"][0] == pytest.approx(300.0)
    assert metrics["verify.check_all_crs.ms"][0] == pytest.approx(400.0)
    assert metrics["layer.numeric.self_share"][0] == pytest.approx(0.3)
    assert metrics["layer.verify.self_share"][0] == pytest.approx(0.4)
    assert metrics["trace.attributed_frac"][0] == pytest.approx(0.9)
    assert metrics["verify.flops_computed"][0] == 100
