"""Finite Hermitian/anti-Hermitian representations of the de Sitter and
anti-de Sitter Lie algebras.

Construct every canonical irrep, verify the commutation relations,
Hermiticity pattern and Casimir invariants, and validate or decompose
arbitrary proposed backbone structures.  The names below are the stable
API; each submodule keeps its own.
"""

from .blocks import BlockLabel
from .representation import (
    Algebra,
    BackboneGraph,
    CanonicalSpec,
    Family,
    GeneratorSet,
    assemble,
    assemble_canonical,
)
from .solver import SolverOutcome, Verdict, Witness, WitnessKind, solve_and_verify
from .verify import (
    VerificationReport,
    build_report,
    casimir1_matrix,
    casimir2_matrix,
    check_all_crs,
    check_hermiticity,
)

__all__ = [
    "CanonicalSpec",
    "Family",
    "Algebra",
    "assemble_canonical",
    "assemble",
    "check_all_crs",
    "check_hermiticity",
    "casimir1_matrix",
    "casimir2_matrix",
    "build_report",
    "VerificationReport",
    "GeneratorSet",
    "BackboneGraph",
    "BlockLabel",
    "solve_and_verify",
    "SolverOutcome",
    "Verdict",
    "Witness",
    "WitnessKind",
]

__version__ = "0.1.0"
