"""Edge cases and error paths across the public API."""

import pathlib

import pytest

from gbott import (
    CohomRing,
    Degree2Map,
    Permutation,
    Polynomial,
    StageSpec,
    TowerSpec,
    chern_classes,
    load_tower,
    matrix_line,
    parse_polynomial,
    permute,
    product_tower,
    relation_residues,
    save_tower,
    z_trivial_oracle,
)
from gbott.errors import DimensionMismatch, InternalConsistencyError
from gbott.triviality import TrivialityReport

from conftest import hirzebruch


# -- polynomial constructors -----------------------------------------------------

def test_constant_constructors():
    assert Polynomial.constant(0, 3).is_zero
    assert Polynomial.constant(5, 2).coefficient((0, 0)) == 5
    assert Polynomial.one(2) == Polynomial.constant(1, 2)


def test_linear_drops_zero_entries():
    p = Polynomial.linear((0, 2, 0))
    assert p.terms == {(0, 1, 0): 2}


def test_variable_index_range():
    with pytest.raises(IndexError):
        Polynomial.variable(0, 2)
    with pytest.raises(IndexError):
        Polynomial.variable(3, 2)


def test_extended_cannot_shrink():
    p = Polynomial.variable(1, 3)
    with pytest.raises(DimensionMismatch):
        p.extended(2)
    assert p.extended(3) is p


def test_serialize_needs_matching_names():
    with pytest.raises(DimensionMismatch):
        Polynomial.variable(1, 2).serialize(("only_one",))


def test_mul_with_unsupported_type():
    with pytest.raises(TypeError):
        Polynomial.variable(1, 1) * 0.5


def test_parse_polynomial_argument_validation():
    with pytest.raises(TypeError):
        parse_polynomial("x1")
    with pytest.raises(DimensionMismatch):
        parse_polynomial("x1", nvars=2, names=("x1",))


def test_degree_helpers():
    p = Polynomial(2, {(1, 2): 1, (3, 0): 1})
    assert p.total_degree() == 3
    assert p.homogeneous_degree() == 3
    q = p + Polynomial.one(2)
    assert q.homogeneous_degree() is None
    assert Polynomial.zero(2).total_degree() == 0
    assert Polynomial.zero(2).homogeneous_degree() is None


# -- permutations -----------------------------------------------------------------

def test_permutation_must_be_bijection():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_permutation_algebra():
    s = Permutation((2, 3, 1))
    assert s(1) == 2 and s(3) == 1
    assert s.inverse().images == (3, 1, 2)
    assert s.compose(s.inverse()).is_identity
    assert Permutation.transposition(3, 1, 3).images == (3, 2, 1)
    with pytest.raises(ValueError):
        s.compose(Permutation((1, 2)))


def test_permute_size_mismatch():
    with pytest.raises(ValueError):
        permute(product_tower((1, 1)), Permutation((1, 2, 3)))


# -- tower io -----------------------------------------------------------------------

def test_save_and_load_round_trip(tmp_path: pathlib.Path):
    t = hirzebruch(-7)
    path = tmp_path / "t.tower"
    save_tower(t, path)
    assert load_tower(path) == t


def test_matrix_line_format():
    assert matrix_line(hirzebruch(3)) == "1 0/3 1"
    assert matrix_line(TowerSpec((StageSpec(2),))) == "1/1"


# -- chern data ----------------------------------------------------------------------

def test_chern_zero_above_rank_and_negative_index():
    cd = chern_classes(hirzebruch(3), 2)
    assert cd.c(1) == Polynomial.linear((3, 0))
    assert cd.c(5).is_zero
    with pytest.raises(IndexError):
        cd.c(-1)


def test_two_column_stage_chern_classes():
    # twist rows (1,1) and (0,-1) over a height-2 base of lines:
    # c_1 = (x1+x2) + (-x2) = x1, c_2 = (x1+x2)(-x2) = -x1*x2 - x2^2
    t = TowerSpec(
        (StageSpec(1), StageSpec(1, ((0,),)), StageSpec(2, ((1, 1), (0, -1))))
    )
    cd = chern_classes(t, 3)
    assert cd.classes[1] == Polynomial.linear((1, 0, 0))
    assert cd.classes[2] == Polynomial(3, {(1, 1, 0): -1, (0, 2, 0): -1})


def test_basis_exponents_content():
    ring = CohomRing(hirzebruch(1))
    assert ring.basis_exponents() == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert ring.basis_exponents() is ring.basis_exponents()  # cached


# -- reports ------------------------------------------------------------------------

def test_inconsistent_report_rejected():
    with pytest.raises(InternalConsistencyError):
        TrivialityReport(
            q_trivial=False, z_trivial=True, total_chern_trivial=False,
            per_stage=(),
        )
    with pytest.raises(InternalConsistencyError):
        TrivialityReport(
            q_trivial=False, z_trivial=False, total_chern_trivial=True,
            per_stage=(),
        )


# -- degree-2 maps -----------------------------------------------------------------

def test_degree2map_must_be_square():
    with pytest.raises(DimensionMismatch):
        Degree2Map(((1, 0),))


def test_degree2map_helpers():
    M = Degree2Map(((1, 2), (3, 4)))
    assert M.column(1) == (1, 3)
    assert M.column(2) == (2, 4)
    assert M.det() == -2
    assert Degree2Map(((1, 2), (2, 4))).det() == 0
    assert M.is_integral


def test_relation_residues_rejects_size_mismatch():
    r1 = CohomRing(product_tower((1,)))
    r2 = CohomRing(product_tower((1, 1)))
    with pytest.raises(DimensionMismatch):
        relation_residues(Degree2Map(((1,),)), r1, r2)


# -- parallel oracle ----------------------------------------------------------------

def test_oracle_parallel_path(pool_from_start):
    assert z_trivial_oracle(hirzebruch(4), bound=4, workers=2)
    assert not z_trivial_oracle(hirzebruch(3), bound=4, workers=2)
