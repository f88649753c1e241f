"""The benchmark's three workloads: seeded inputs, ops and per-op checks.

Each workload builds its inputs from the seed, writes them as the JSON
documents dsrep reads, and exposes one cycle of ops in a seeded order.
An op is what a user waits for: generate -> verify, one validate, or one
solve_and_verify.  Every op has a check that runs outside the timed
region and does not take the program's own pass/fail flag on trust.

Input generation uses plain tuples of twice-valued labels, not dsrep's
own types, so the documents do not depend on the code they test.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Optional

import numpy as np

import dsrep.cli as cli
import dsrep.io as dsio
import dsrep.solver as solver
from dsrep.representation import CanonicalSpec, Family, assemble, canonical_dimension
from dsrep.verify import casimir_invariants_closed_form, check_all_crs, check_hermiticity

CR_TOLERANCE = 1e-10      # `dsrep verify` default
HERMITICITY_TOLERANCE = 1e-11  # build_report default
SCALAR_TOLERANCE = 1e-8
SOLVER_TOLERANCE = 1e-10  # solve_and_verify default, for CRs and Hermiticity
MAX_CHORDS = 15  # the gauge search builds 2**chords patterns up front

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"


class CheckFailed(Exception):
    """An op's output is wrong."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], None]


def _captured(argv: list[str]) -> tuple[int, str]:
    """Run `dsrep <argv>` in-process; return its exit code and stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _finite_below(values: dict, tolerance: float, what: str) -> None:
    for name, value in values.items():
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{what} {name} is not a finite number: {value!r}")
        expect(value < tolerance, f"{what} {name} = {value:.3e} >= {tolerance:g}")


def _write(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Labels and backbones as plain data: (twice A, twice B) per block
# ---------------------------------------------------------------------------


def _half(twice: int) -> str:
    return str(twice // 2) if twice % 2 == 0 else f"{twice}/2"


def block_dim(label: tuple[int, int]) -> int:
    return (label[0] + 1) * (label[1] + 1)


def compatible(p: tuple[int, int], q: tuple[int, int]) -> bool:
    """Blocks are joinable when A and B each differ by exactly 1/2."""
    return abs(p[0] - q[0]) == 1 and abs(p[1] - q[1]) == 1


def chain(family: str, n: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Canonical chain: type A (k,k) ... (0,0); type B (A,0) ... (0,A)."""
    if family == "a":
        labels = [(t, t) for t in range(n - 1, -1, -1)]
    else:
        labels = [(n - 1 - m, m) for m in range(n)]
    return labels, [(i, i + 1) for i in range(n - 1)]


def chain_dim(family: str, n: int) -> int:
    return sum(block_dim(label) for label in chain(family, n)[0])


def direct_sum(parts):
    labels, edges = [], []
    for part_labels, part_edges in parts:
        offset = len(labels)
        labels += part_labels
        edges += [(i + offset, j + offset) for i, j in part_edges]
    return labels, edges


def shuffled(rng: random.Random, labels, edges):
    """Relabel blocks in a random order; the structure is unchanged."""
    order = list(range(len(labels)))
    rng.shuffle(order)
    new_index = {old: new for new, old in enumerate(order)}
    new_edges = [tuple(sorted((new_index[i], new_index[j]))) for i, j in edges]
    rng.shuffle(new_edges)
    return [labels[old] for old in order], new_edges


def backbone_doc(labels, edges, algebra: str = "ds") -> dict:
    return {
        "blocks": [{"A": _half(a), "B": _half(b)} for a, b in labels],
        "edges": [list(e) for e in edges],
        "algebra": algebra,
    }


def gelfand_tsetlin(m1: Fraction, m2: Fraction):
    """so(5) irrep (m1, m2) restricted to so(4): one block per branching.

    Blocks are ((k1+k2)/2, (k1-k2)/2) for m1 >= k1 >= m2 >= |k2|, with k1
    and k2 stepping by one from m2 and -m2, and every compatible pair of
    blocks is joined.
    """
    t1, t2 = int(2 * m1), int(2 * m2)
    labels = [
        ((k1 + k2) // 2, (k1 - k2) // 2)
        for k1 in range(t2, t1 + 1, 2)
        for k2 in range(-t2, t2 + 1, 2)
    ]
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(labels)), 2)
        if compatible(labels[i], labels[j])
    ]
    return labels, edges


def weyl_dimension(m1: Fraction, m2: Fraction) -> Fraction:
    return (2 * m1 + 3) * (2 * m2 + 1) * (m1 + m2 + 2) * (m1 - m2 + 1) / 6


def independent_cycles(labels, edges) -> int:
    parent = list(range(len(labels)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chords = 0
    for i, j in edges:
        ri, rj = find(i), find(j)
        if ri == rj:
            chords += 1
        else:
            parent[ri] = rj
    return chords


# ---------------------------------------------------------------------------
# chain-verify
# ---------------------------------------------------------------------------


class ChainVerify:
    """`dsrep generate` -> `dsrep verify --format json` on canonical chains."""

    name = "chain-verify"
    # Eleven inputs, one repetition each per cycle: the median is the
    # middle repetition of the sixth-largest, and p77 that of the third.
    tail_pct = 77
    # (family, N, algebra): dims 91-385 for A, 84-364 for B, each family
    # in both algebras.
    TRIPLES = (
        ("a", 6, "ds"), ("a", 7, "ads"), ("a", 8, "ds"), ("a", 9, "ads"), ("a", 10, "ds"),
        ("b", 7, "ds"), ("b", 8, "ads"), ("b", 9, "ds"), ("b", 10, "ads"), ("b", 11, "ds"),
        ("b", 12, "ads"),
    )
    SMOKE_TRIPLES = (("a", 2, "ds"), ("b", 3, "ads"), ("a", 3, "ads"), ("b", 2, "ds"))

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        triples = list(self.SMOKE_TRIPLES if smoke else self.TRIPLES)
        self.warmup = self._op(workdir, *triples[0])
        random.Random(seed).shuffle(triples)
        self.cycle = [self._op(workdir, *t) for t in triples]

    @staticmethod
    def _op(workdir: Path, family: str, n: int, algebra: str) -> Op:
        label = f"{family}{n}-{algebra}"
        path = str(workdir / f"{label}.json")
        spec = CanonicalSpec(Family(family), n)

        def run():
            gen_code, gen_out = _captured(["generate", family, str(n), "--algebra", algebra,
                                           "--out", path])
            ver_code, ver_out = _captured(["verify", path, "--format", "json"])
            return gen_code, gen_out, ver_code, ver_out

        def check(result):
            gen_code, gen_out, ver_code, ver_out = result
            expect(gen_code == 0, f"generate exited {gen_code}")
            expect(ver_code == 0, f"verify exited {ver_code}")
            match = re.match(r"wrote (\d+)-dimensional", gen_out)
            expect(match is not None, f"unexpected generate output {gen_out[:80]!r}")
            expect(int(match.group(1)) == canonical_dimension(spec),
                   f"dim {match.group(1)} != {canonical_dimension(spec)}")
            report = json.loads(ver_out)
            expect(report["passed"] is True, "verify did not pass")
            expect(len(report["cr_residuals"]) == 27, "expected 27 commutation relations")
            expect(len(report["hermiticity_residuals"]) == 10, "expected 10 generators")
            _finite_below(report["cr_residuals"], CR_TOLERANCE, "CR residual")
            _finite_below(report["hermiticity_residuals"], HERMITICITY_TOLERANCE,
                          "Hermiticity residual")
            neg_c1, neg_c2, p, q = casimir_invariants_closed_form(spec)
            expect((report["p"], report["q"]) == (str(p), str(q)),
                   f"(p, q) = ({report['p']}, {report['q']}), expected ({p}, {q})")
            if algebra == "ds":
                # The report evaluates the de Sitter Casimir expressions,
                # so the closed form is checked on de Sitter chains.
                for key, want in (("casimir1_scalar", neg_c1), ("casimir2_scalar", neg_c2)):
                    got = report[key]
                    expect(got is not None, f"{key} missing")
                    expect(all(math.isfinite(x) for x in got), f"{key} not finite")
                    scale = max(1.0, abs(float(want)))
                    expect(abs(-got[0] - float(want)) < SCALAR_TOLERANCE * scale
                           and abs(got[1]) < SCALAR_TOLERANCE * scale,
                           f"-{key} = {-got[0]} + {-got[1]}i, expected {want}")

        return Op(label, run, check)


# ---------------------------------------------------------------------------
# validate-corpus
# ---------------------------------------------------------------------------


@dataclass
class Proposal:
    label: str
    doc: dict
    verdict: Optional[str] = None          # known by construction, else None
    kinds: Optional[tuple[str, ...]] = None  # allowed witness kinds, else any
    components: Optional[list] = None      # sorted [family, n] pairs


# Small structures reached by no simple mutation, for the witness kinds
# and verdicts that need them: (name, labels, edges, verdict, kinds).
SPECIMENS = (
    ("one-block", [(2, 0)], [], "invalid", ("one-block",)),
    ("duplicate-origins", [(0, 0), (1, 1), (0, 0)], [(0, 1), (1, 2)],
     "underdetermined", None),
    ("doubled-middle", [(0, 0), (0, 2), (1, 1), (1, 1)], [(0, 2), (0, 3), (1, 2), (1, 3)],
     "invalid", None),
    ("diamond", [(1, 0), (2, 1), (1, 2), (0, 1)], [(0, 1), (1, 2), (2, 3), (0, 3)],
     "invalid", ("numeric-cr-failure", "non-canonical-component")),
    ("doubled-square", [(0, 1), (1, 0), (1, 2), (2, 1), (1, 2), (2, 1)],
     [(0, 1), (0, 2), (0, 4), (1, 3), (1, 5), (2, 3), (2, 5), (4, 5)], "invalid", None),
    ("origin-fork", [(1, 0), (0, 1), (0, 1)], [(0, 1), (0, 2)], "invalid", None),
)

MAX_CORPUS_DIM = 150


def _random_sum(rng: random.Random, parts: int):
    """Random direct sum of canonical chains with total dim <= MAX_CORPUS_DIM."""
    while True:
        specs = [(rng.choice("ab"), rng.randint(2, 6)) for _ in range(parts)]
        if sum(chain_dim(f, n) for f, n in specs) <= MAX_CORPUS_DIM:
            return specs


def _crossing_sum(rng: random.Random):
    """Type A N=n plus type B N=m (m odd, m <= 2n-1): they share a block."""
    while True:
        n = rng.randint(3, 5)
        m = rng.choice([k for k in range(3, 2 * n, 2)])
        if chain_dim("a", n) + chain_dim("b", m) <= MAX_CORPUS_DIM:
            return [("a", n), ("b", m)]


def _mutate(rng: random.Random, recipe: str, labels, edges):
    """Apply one mutation; return (labels, edges, verdict, kinds)."""
    labels, edges = list(labels), list(edges)
    if recipe == "drop-edge":
        edges.pop(rng.randrange(len(edges)))
        return labels, edges, "invalid", None
    if recipe == "dangling-block":
        labels.append((rng.randint(0, 4), rng.randint(0, 4)))
        return labels, edges, "invalid", ("dangling-end",)
    if recipe == "shifted-label":
        # Moving one coordinate by 1/2 breaks compatibility with every
        # neighbour, so the first structural failure is that edge.
        i = rng.randrange(len(labels))
        a, b = labels[i]
        axis = rng.randrange(2)
        step = 1 if (a, b)[axis] == 0 or rng.random() < 0.5 else -1
        labels[i] = (a + step, b) if axis == 0 else (a, b + step)
        return labels, edges, "invalid", ("incompatible-edge",)
    if recipe == "added-chord":
        present = {tuple(sorted(e)) for e in edges}
        candidates = [
            (i, j) for i, j in itertools.combinations(range(len(labels)), 2)
            if (i, j) not in present and compatible(labels[i], labels[j])
        ]
        if candidates:
            edges.append(rng.choice(candidates))
        return labels, edges, None, None
    if recipe == "attached-block":
        i = rng.randrange(len(labels))
        a, b = labels[i]
        options = [(a + da, b + db) for da in (1, -1) for db in (1, -1)
                   if a + da >= 0 and b + db >= 0]
        labels.append(rng.choice(options))
        edges.append((i, len(labels) - 1))
        return labels, edges, None, None
    raise ValueError(recipe)


# Proposals per mutation.  These counts are not a measured traffic mix:
# they are set so that over half of the stream is a structural rejection
# (1-3 ms, decided before anything is assembled), which puts the median
# op inside that tight cluster rather than at its edge, where run-to-run
# noise would move it.  So argparse and rendering, not assembly, set the
# median; assembly shows in ops_per_s and the p99 tail.
MUTATIONS = {
    "drop-edge": 12,
    "dangling-block": 12,
    "shifted-label": 12,
    "added-chord": 6,
    "attached-block": 6,
}


# The structures (which chains are summed, where a mutation lands) come
# from this fixed seed, so every run submits the same mix of work; the
# run's seed relabels the blocks of every proposal and sets their order.
STRUCTURE_SEED = 2024


def validate_corpus(seed: int, smoke: bool = False) -> list[Proposal]:
    """The seeded stream of backbone proposals, before the order shuffle."""
    shape = random.Random(STRUCTURE_SEED)
    rng = random.Random(seed)
    out: list[Proposal] = []
    for path in sorted(FIXTURES.glob("*.json")):
        verdict = "invalid" if path.stem.startswith("invalid") else "valid"
        out.append(Proposal(f"fixture-{path.stem}", json.loads(path.read_text()), verdict))
    if smoke:
        out = out[:3]

    def components(specs):
        return sorted([f, n] for f, n in specs)

    chains = [("a", n) for n in range(2, 8)] + [("b", n) for n in range(2, 9)]
    sums = [_random_sum(shape, shape.choice((2, 3))) for _ in range(12)]
    sums += [_crossing_sum(shape) for _ in range(4)]
    if smoke:
        chains, sums = chains[:2], sums[-1:]
    for family, n in chains:
        labels, edges = shuffled(rng, *chain(family, n))
        algebra = shape.choice(("ds", "ads"))
        out.append(Proposal(f"chain-{family}{n}-{algebra}", backbone_doc(labels, edges, algebra),
                            "valid", None, [[family, n]]))
    for index, specs in enumerate(sums):
        labels, edges = shuffled(rng, *direct_sum([chain(f, n) for f, n in specs]))
        name = "+".join(f"{f}{n}" for f, n in specs)
        out.append(Proposal(f"sum{index}-{name}", backbone_doc(labels, edges), "valid", None,
                            components(specs)))
    for recipe, count in MUTATIONS.items():
        for index in range(1 if smoke else count):
            specs = _random_sum(shape, shape.choice((1, 2)))
            base = direct_sum([chain(f, n) for f, n in specs])
            labels, edges, verdict, kinds = _mutate(shape, recipe, *base)
            labels, edges = shuffled(rng, labels, edges)
            out.append(Proposal(f"{recipe}{index}", backbone_doc(labels, edges), verdict, kinds))
    for name, labels, edges, verdict, kinds in SPECIMENS[: 2 if smoke else None]:
        labels, edges = shuffled(rng, labels, edges)
        out.append(Proposal(f"specimen-{name}", backbone_doc(labels, edges), verdict, kinds))
    return out


class ValidateCorpus:
    """`dsrep validate --format json` over a seeded stream of proposals."""

    name = "validate-corpus"
    tail_pct = 99

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        proposals = validate_corpus(seed, smoke)
        ops = [
            self._op(p, _write(workdir / f"{index:03d}-{p.label}.json", p.doc))
            for index, p in enumerate(proposals)
        ]
        self.warmup = ops[0]
        random.Random(seed + 1).shuffle(ops)
        self.cycle = ops

    @staticmethod
    def _op(proposal: Proposal, path: Path) -> Op:
        first_output: list[str] = []

        def run():
            return _captured(["validate", str(path), "--format", "json"])

        def check(result):
            code, text = result
            expect(code in (0, 1), f"validate exited {code}")
            if first_output:
                # Same document, same process: the answer must not change.
                expect(text == first_output[0], "output differs from the first run")
                return
            payload = json.loads(text)
            verdict = payload["verdict"]
            expect((code == 0) == (verdict == "valid"), f"exit {code} with verdict {verdict}")
            if proposal.verdict is not None:
                expect(verdict == proposal.verdict, f"verdict {verdict}, expected {proposal.verdict}")
            witness = payload["witness"]
            expect((witness is None) == (verdict != "invalid"),
                   f"verdict {verdict} with witness {witness}")
            if proposal.kinds is not None:
                expect(witness["kind"] in proposal.kinds,
                       f"witness {witness['kind']}, expected one of {proposal.kinds}")
            if proposal.components is not None:
                got = sorted([c["family"], c["n"]] for c in payload["components"])
                expect(got == proposal.components, f"components {got}, expected {proposal.components}")
            if verdict == "valid":
                _reverify(proposal.doc, payload["t"])
            first_output.append(text)

        return Op(proposal.label, run, check)


def _reverify(doc: dict, t_entries: list) -> None:
    """Re-assemble a valid answer from its couplings and check it again."""
    graph, algebra = dsio.backbone_from_doc(doc)
    t = {tuple(e["edge"]): e["value"] for e in t_entries}
    expect(all(math.isfinite(v) and v != 0 for v in t.values()), "non-finite or zero coupling")
    gens = assemble(graph, t, algebra)
    _finite_below(check_all_crs(gens), CR_TOLERANCE, "re-verified CR residual")
    _finite_below(check_hermiticity(gens), HERMITICITY_TOLERANCE,
                  "re-verified Hermiticity residual")


# ---------------------------------------------------------------------------
# gauge-search
# ---------------------------------------------------------------------------


F = Fraction
# ROADMAP item 4's weights that carry at least one independent cycle.
GT_WEIGHTS = (
    (F(3, 2), F(1, 2)), (F(2), F(1)), (F(5, 2), F(1, 2)), (F(5, 2), F(3, 2)),
    (F(3), F(1)), (F(7, 2), F(1, 2)), (F(7, 2), F(3, 2)), (F(9, 2), F(3, 2)),
    (F(9, 2), F(5, 2)), (F(11, 2), F(5, 2)), (F(11, 2), F(7, 2)),
)
SMOKE_GT_WEIGHTS = GT_WEIGHTS[:3]


class GaugeSearch:
    """`solve_and_verify(graph, allow_noncanonical=True)` on so(5) irreps."""

    name = "gauge-search"
    # Eleven inputs, one repetition each per cycle: p77 is the middle
    # repetition of the third-largest weight, with ten or more samples
    # beyond it from four cycles on.
    tail_pct = 77

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        ops = []
        for m1, m2 in SMOKE_GT_WEIGHTS if smoke else GT_WEIGHTS:
            labels, edges = gelfand_tsetlin(m1, m2)
            if independent_cycles(labels, edges) > MAX_CHORDS:
                raise ValueError(f"weight ({m1}, {m2}) exceeds {MAX_CHORDS} chords")
            path = _write(workdir / f"gt-{m1}-{m2}.json".replace("/", "_"),
                          backbone_doc(labels, edges))
            graph, _ = dsio.backbone_from_doc(json.loads(path.read_text()))
            ops.append(self._op(m1, m2, graph))
        self.warmup = ops[0]
        random.Random(seed).shuffle(ops)
        self.cycle = ops

    @staticmethod
    def _op(m1: Fraction, m2: Fraction, graph) -> Op:
        weyl = weyl_dimension(m1, m2)
        first_couplings: list[dict] = []

        def run():
            return solver.solve_and_verify(graph, allow_noncanonical=True)

        def check(outcome):
            expect(outcome.verdict is solver.Verdict.VALID,
                   f"verdict {outcome.verdict.value}, witness {outcome.witness}")
            gens = outcome.generators
            expect(gens.dim == weyl, f"dim {gens.dim} != Weyl {weyl}")
            expect(all(math.isfinite(v) and v != 0 for v in outcome.t_values.values()),
                   "non-finite or zero coupling")
            for name, matrix in gens.generators().items():
                expect(bool(np.isfinite(matrix).all()), f"generator {name} is not finite")
            if first_couplings:
                # Same backbone, same process: the answer must not change.
                expect(outcome.t_values == first_couplings[0], "couplings differ from the first run")
                return
            # The solver's own residual lets NaN through, so the first
            # answer for each input is verified again.
            _finite_below(check_all_crs(gens), SOLVER_TOLERANCE, "re-verified CR residual")
            _finite_below(check_hermiticity(gens), SOLVER_TOLERANCE,
                          "re-verified Hermiticity residual")
            first_couplings.append(outcome.t_values)

        return Op(f"so5({m1},{m2})", run, check)


WORKLOADS = {w.name: w for w in (ChainVerify, ValidateCorpus, GaugeSearch)}
