"""gbott: exact cohomology computations for generalized Bott towers.

A tower of projective-space bundles is encoded by an integer matrix (one
twist row per line-bundle summand per stage).  This package computes the
integral/rational cohomology ring of the tower, the Chern classes of
each stage bundle, decides whether the ring is isomorphic to that of the
matching product of projective spaces over Q and over Z, reorders
Q-trivial towers into bundle-over-Bott-tower form, and searches for
explicit degree-2 ring isomorphisms between two towers by exhaustive
bounded enumeration.

All arithmetic is exact (arbitrary-precision integers and rationals),
in pure Python.
"""

from .backend import KERNEL_NAME as kernel_backend
from .cohomology import ChernData, CohomRing, build_ring, chern_classes, poincare_ranks
from .census import EnumerationConfig, enumerate_towers, expected_count
from .isosearch import (
    Degree2Map,
    check_hom,
    is_iso,
    relation_residues,
    search_iso,
    z_trivial_oracle,
)
from .poly import Polynomial, default_names, parse_polynomial
from .tower import (
    Permutation,
    StageSpec,
    TowerSpec,
    load_tower,
    matrix_line,
    parse_tower,
    permute,
    product_tower,
    reduced_characteristic_matrix,
    save_tower,
    serialize_tower,
    vector_matrix_transpose,
)
from .triviality import (
    Decomposition,
    Degree2Class,
    GeneratorCandidate,
    StageDiagnostic,
    TrivialityReport,
    bott_q_trivial,
    decompose,
    full_report,
    generator_candidates,
    is_q_trivial,
    is_total_chern_trivial,
    is_z_trivial,
    stage_diagnostics,
)

__version__ = "0.1.0"

__all__ = [
    "ChernData",
    "CohomRing",
    "Decomposition",
    "Degree2Class",
    "Degree2Map",
    "EnumerationConfig",
    "GeneratorCandidate",
    "Permutation",
    "Polynomial",
    "StageDiagnostic",
    "StageSpec",
    "TowerSpec",
    "TrivialityReport",
    "bott_q_trivial",
    "build_ring",
    "check_hom",
    "chern_classes",
    "decompose",
    "default_names",
    "enumerate_towers",
    "expected_count",
    "full_report",
    "generator_candidates",
    "is_iso",
    "is_q_trivial",
    "is_total_chern_trivial",
    "is_z_trivial",
    "kernel_backend",
    "load_tower",
    "matrix_line",
    "parse_polynomial",
    "parse_tower",
    "permute",
    "poincare_ranks",
    "product_tower",
    "reduced_characteristic_matrix",
    "relation_residues",
    "save_tower",
    "search_iso",
    "serialize_tower",
    "stage_diagnostics",
    "vector_matrix_transpose",
    "z_trivial_oracle",
]
