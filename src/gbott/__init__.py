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

`import gbott` loads no submodule.  Each public name is imported from
its home module on first access (`_HOME` below) and kept in the
package namespace from then on, so a program, or a `gbott` command,
loads only the modules it uses.
"""

__version__ = "0.1.0"

# public name -> "module" or "module:attribute" within this package
_HOME = {
    "ChernData": "cohomology",
    "CohomRing": "cohomology",
    "Decomposition": "triviality",
    "Degree2Class": "triviality",
    "Degree2Map": "isosearch",
    "EnumerationConfig": "census",
    "GeneratorCandidate": "triviality",
    "Permutation": "tower",
    "Polynomial": "poly",
    "StageDiagnostic": "triviality",
    "StageSpec": "tower",
    "TowerSpec": "tower",
    "TrivialityReport": "triviality",
    "bott_q_trivial": "triviality",
    "check_hom": "isosearch",
    "chern_classes": "cohomology",
    "decompose": "triviality",
    "default_names": "_base",
    "enumerate_towers": "census",
    "expected_count": "census",
    "full_report": "triviality",
    "generator_candidates": "triviality",
    "is_iso": "isosearch",
    "is_q_trivial": "triviality",
    "is_total_chern_trivial": "triviality",
    "is_z_trivial": "triviality",
    "kernel_backend": "backend:KERNEL_NAME",
    "load_tower": "tower",
    "matrix_line": "tower",
    "parse_polynomial": "poly",
    "parse_tower": "tower",
    "permute": "tower",
    "poincare_ranks": "cohomology",
    "product_tower": "tower",
    "reduced_characteristic_matrix": "tower",
    "relation_residues": "isosearch",
    "save_tower": "tower",
    "search_iso": "isosearch",
    "serialize_tower": "tower",
    "stage_diagnostics": "triviality",
    "vector_matrix_transpose": "tower",
    "z_trivial_oracle": "isosearch",
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, _, attr = home.partition(":")
    attr = attr or name
    # `from .module import attr`, with the module named at run time
    value = getattr(__import__(module, globals(), None, (attr,), 1), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
