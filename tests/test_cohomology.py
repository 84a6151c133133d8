"""Chern classes, ring presentation, normal form, Poincare ranks."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gbott import (
    CohomRing,
    Polynomial,
    StageSpec,
    TowerSpec,
    chern_classes,
    poincare_ranks,
    product_tower,
)
from gbott.errors import DimensionMismatch

from conftest import hirzebruch
from oracle_impls import basis_rank_counts, mult_table_lowest_first, nf_lowest_first
from test_tower import towers


def random_tower(rng, max_height=3, max_dim=3, bound=3):
    h = rng.randrange(1, max_height + 1)
    stages = []
    for i in range(1, h + 1):
        n = rng.randrange(1, max_dim + 1)
        rows = tuple(
            tuple(rng.randrange(-bound, bound + 1) for _ in range(i - 1))
            for _ in range(n)
        )
        stages.append(StageSpec(n, rows))
    return TowerSpec(tuple(stages))


# -- Chern classes -------------------------------------------------------------

def test_twisted_stage_chern_classes(qtwin_a):
    cd = chern_classes(qtwin_a, 2)
    x = Polynomial.variable(1, 2)
    assert cd.classes[0] == Polynomial.one(2)
    assert cd.classes[1] == x
    assert cd.classes[2].is_zero
    assert cd.classes[3].is_zero


def test_untwisted_stage_has_unit_total_class():
    t = product_tower((2, 2))
    cd = chern_classes(t, 2)
    assert cd.total() == Polynomial.one(2)


def test_opposite_twists_cancel_in_degree_two():
    # rows (1) and (-1) over CP^2: c = (1 + x)(1 - x) = 1 - x^2
    t = TowerSpec((StageSpec(2), StageSpec(2, ((1,), (-1,)))))
    cd = chern_classes(t, 2)
    assert cd.classes[1].is_zero
    assert cd.classes[2] == Polynomial(2, {(2, 0): -1})


def test_stage_one_is_trivial(qtwin_a):
    cd = chern_classes(qtwin_a, 1)
    assert cd.total() == Polynomial.one(2)


def test_stage_index_out_of_range(qtwin_a):
    with pytest.raises(IndexError):
        chern_classes(qtwin_a, 3)
    with pytest.raises(IndexError):
        chern_classes(qtwin_a, 0)


@given(towers())
@settings(max_examples=50, deadline=None)
def test_chern_classes_are_homogeneous_in_lower_generators(t):
    for i in range(1, t.height + 1):
        cd = chern_classes(t, i)
        for k, c in enumerate(cd.classes):
            if c.is_zero:
                continue
            assert c.homogeneous_degree() == k
            for e in c.terms:
                assert all(e[j] == 0 for j in range(i - 1, t.height))


# -- presentation ---------------------------------------------------------------

def test_twisted_pair_relations(qtwin_a, qtwin_b):
    ra = CohomRing(qtwin_a)
    assert [r.serialize(("x", "y")) for r in ra.relations] == [
        "x^3",
        "y^4 + x*y^3",
    ]
    rb = CohomRing(qtwin_b)
    assert [r.serialize(("X", "Y")) for r in rb.relations] == [
        "X^3",
        "Y^4 + 2*X*Y^3",
    ]


def test_product_relations(cp2_x_cp3):
    ring = CohomRing(cp2_x_cp3)
    assert [str(r) for r in ring.relations] == ["x1^3", "x2^4"]


@given(towers())
@settings(max_examples=50, deadline=None)
def test_relation_equals_chern_expansion(t):
    # x_i^(n+1) + c_1 x_i^n + ... + c_n x_i must equal the product form
    ring = CohomRing(t)
    for i in range(1, t.height + 1):
        n = t.dims[i - 1]
        xi = Polynomial.variable(i, t.height)
        cd = ring.chern[i - 1]
        expansion = Polynomial.zero(t.height)
        for k in range(n + 1):
            expansion = expansion + cd.classes[k] * xi ** (n + 1 - k)
        assert expansion == ring.relations[i - 1]


# -- normal form -----------------------------------------------------------------

def test_relation_head_reduces_to_zero(qtwin_a):
    ring = CohomRing(qtwin_a)
    x = Polynomial.variable(1, 2)
    assert ring.normal_form(x**3).is_zero


def test_reduction_of_top_power(qtwin_a):
    # y^4 = -x*y^3 modulo the twisted relation, and x*y^3 is in the basis
    ring = CohomRing(qtwin_a)
    y = Polynomial.variable(2, 2)
    assert ring.normal_form(y**4) == Polynomial(2, {(1, 3): -1})


def test_basis_monomial_is_fixed(cp2_x_cp3):
    ring = CohomRing(cp2_x_cp3)
    p = Polynomial(2, {(1, 1): 1})
    assert ring.normal_form(p) == p


def test_square_of_candidate_vanishes_in_twisted_line_tower():
    ring = CohomRing(hirzebruch(3))
    z = Polynomial(2, {(0, 1): 2, (1, 0): 3})  # 2 x2 + 3 x1
    assert ring.is_zero(z * z)
    assert not ring.is_zero(Polynomial.variable(1, 2) * Polynomial.variable(2, 2))


def test_square_is_nonzero_in_cp2():
    ring = CohomRing(TowerSpec((StageSpec(2),)))
    x = Polynomial.variable(1, 1)
    assert not ring.is_zero(x * x)
    assert ring.is_zero(x**3)


def test_fourth_power_of_sum_survives(qtwin_a):
    ring = CohomRing(qtwin_a)
    x, y = Polynomial.variable(1, 2), Polynomial.variable(2, 2)
    nf = ring.normal_form((x + y) ** 4)
    assert not nf.is_zero
    assert nf.coefficient((1, 3)) == 3


def test_normal_form_embeds_lower_polynomials(qtwin_a):
    ring = CohomRing(qtwin_a)
    p = Polynomial.variable(1, 1) ** 3  # written in 1 generator
    assert ring.normal_form(p).is_zero
    with pytest.raises(DimensionMismatch):
        ring.normal_form(Polynomial.variable(3, 3))


@given(towers())
@settings(max_examples=40, deadline=None)
def test_relations_reduce_to_zero(t):
    ring = CohomRing(t)
    for rel in ring.relations:
        assert ring.normal_form(rel).is_zero


@given(towers(max_height=3, max_dim=2, bound=2), st.data())
@settings(max_examples=40, deadline=None)
def test_normal_form_is_idempotent_linear_multiplicative(t, data):
    ring = CohomRing(t)
    h = t.height
    strat = st.dictionaries(
        st.tuples(*([st.integers(0, 3)] * h)), st.integers(-6, 6), max_size=4
    )
    p = Polynomial(h, data.draw(strat))
    q = Polynomial(h, data.draw(strat))
    nf = ring.normal_form
    assert nf(nf(p)) == nf(p)
    assert nf(p + q) == nf(p) + nf(q)
    assert nf(p * q) == nf(nf(p) * nf(q))


@given(towers(max_height=3, max_dim=2, bound=2), st.data())
@settings(max_examples=30, deadline=None)
def test_normal_form_independent_of_rewrite_order(t, data):
    ring = CohomRing(t)
    h = t.height
    strat = st.dictionaries(
        st.tuples(*([st.integers(0, 4)] * h)), st.integers(-5, 5), max_size=4
    )
    p = Polynomial(h, data.draw(strat))
    assert ring.normal_form(p) == nf_lowest_first(p, ring)


@given(towers(max_height=3, max_dim=3, bound=2))
@settings(max_examples=40, deadline=None)
def test_mult_table_is_multiplication_by_each_generator(t):
    """Each entry is the normal form of X_i * x^b by lowest-index
    rewriting, computed apart from the table that normal_form reads."""
    ring = CohomRing(t)
    basis = ring.basis_exponents()
    table = ring.mult_table()
    assert ring.mult_table() is table
    assert len(table) == t.height
    for i, rows in enumerate(table, start=1):
        assert len(rows) == len(basis)
        x_i = Polynomial.variable(i, t.height)
        for e, row in zip(basis, rows):
            expected = nf_lowest_first(x_i * Polynomial(t.height, {e: 1}), ring)
            assert {basis[b]: c for b, c in row} == dict(expected.terms)


@given(towers(max_height=4, max_dim=3, bound=3))
@settings(max_examples=60, deadline=None)
def test_stage_built_table_matches_lowest_first_rewriting(t):
    """The table built stage by stage equals, entry by entry and in
    `basis_exponents()` order, the table of normal forms by rewriting."""
    table = CohomRing(t).mult_table()
    assert [[dict(row) for row in rows] for rows in table] == [
        list(rows) for rows in mult_table_lowest_first(t)
    ]


def test_integral_input_gives_integral_normal_form():
    rng = random.Random(11)
    for _ in range(50):
        t = random_tower(rng)
        ring = CohomRing(t)
        terms = {
            tuple(rng.randrange(5) for _ in range(t.height)): rng.randrange(-9, 10)
            for _ in range(4)
        }
        p = Polynomial(t.height, terms)
        assert ring.normal_form(p).is_integral()


def test_vectors_with_nonzero_top_coefficient_have_nonzero_power():
    # for any tower: if b_i != 0 then (sum b_j x_j)^(n_i) != 0
    rng = random.Random(4242)
    for _ in range(200):
        t = random_tower(rng)
        ring = CohomRing(t)
        i = rng.randrange(1, t.height + 1)
        b = [rng.randrange(-3, 4) for _ in range(t.height)]
        while b[i - 1] == 0:
            b[i - 1] = rng.randrange(-3, 4)
        z = Polynomial.linear(b)
        assert not ring.is_zero(z ** t.dims[i - 1])


# -- Poincare ranks -------------------------------------------------------------

def test_ranks_of_line():
    assert poincare_ranks(TowerSpec((StageSpec(1),))) == (1, 1)


def test_ranks_of_product(cp2_x_cp3):
    assert poincare_ranks(cp2_x_cp3) == (1, 2, 3, 3, 2, 1)


def test_ranks_ignore_twists(qtwin_a, cp2_x_cp3):
    assert poincare_ranks(qtwin_a) == poincare_ranks(cp2_x_cp3)


@given(towers())
@settings(max_examples=50, deadline=None)
def test_ranks_match_basis_counting(t):
    assert poincare_ranks(t) == basis_rank_counts(t)
    ring = CohomRing(t)
    assert len(ring.basis_exponents()) == sum(poincare_ranks(t))


@given(towers(max_height=3, max_dim=3, bound=0))
@settings(max_examples=25, deadline=None)
def test_ranks_for_zero_and_random_twists_agree(t):
    rng = random.Random(17)
    stages = []
    for i, stage in enumerate(t.stages, start=1):
        rows = tuple(
            tuple(rng.randrange(-3, 4) for _ in range(i - 1))
            for _ in range(stage.fiber_dim)
        )
        stages.append(StageSpec(stage.fiber_dim, rows))
    twisted = TowerSpec(tuple(stages))
    assert poincare_ranks(twisted) == poincare_ranks(t)


# -- report ----------------------------------------------------------------------

def test_ring_report_text(qtwin_a):
    ring = CohomRing(qtwin_a)
    report = ring.report(("x", "y"))
    assert "generators: x (degree 2), y (degree 2)" in report
    assert "  x^3" in report
    assert "  y^4 + x*y^3" in report
    assert "poincare ranks: 1 2 3 3 2 1" in report
