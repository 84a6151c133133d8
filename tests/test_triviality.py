"""Q/Z-triviality deciders, generator candidates, decomposition."""

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from gbott import (
    CohomRing,
    Polynomial,
    StageSpec,
    TowerSpec,
    bott_q_trivial,
    decompose,
    enumerate_towers,
    full_report,
    generator_candidates,
    is_q_trivial,
    is_total_chern_trivial,
    is_z_trivial,
    permute,
    product_tower,
)
from gbott.errors import PreconditionError

from conftest import hirzebruch
from oracle_impls import (
    adjacent_swap_order,
    chern_identity_violation,
    q_trivial_line_oracle,
    stage_chern_classes,
    total_chern_trivial_reference,
)
from test_cohomology import random_tower


# -- rational triviality --------------------------------------------------------

def test_product_towers_are_q_trivial():
    assert is_q_trivial(product_tower((1, 2, 3)))


def test_twisted_line_tower_is_q_trivial_for_any_twist():
    for a in range(-5, 6):
        assert is_q_trivial(hirzebruch(a))


def test_twisted_pair_is_not_q_trivial(qtwin_a):
    assert not is_q_trivial(qtwin_a)
    report = full_report(qtwin_a)
    diag = report.per_stage[1]
    assert (diag.stage, diag.violated_k) == (2, 2)


def test_q_triviality_matches_line_oracle_on_random_towers():
    rng = random.Random(2718)
    for _ in range(150):
        t = random_tower(rng, max_height=3, max_dim=3, bound=2)
        assert is_q_trivial(t) == q_trivial_line_oracle(t)


@st.composite
def sparse_towers(draw, max_height=4, max_dim=3, bound=3):
    """Towers whose twists are often zero, so that every outcome of a
    stage (fails, passes, all classes vanish) is drawn."""
    h = draw(st.integers(1, max_height))
    entry = st.one_of(st.just(0), st.integers(-bound, bound))
    stages = []
    for i in range(1, h + 1):
        n = draw(st.integers(1, max_dim))
        rows = tuple(tuple(draw(entry) for _ in range(i - 1)) for _ in range(n))
        stages.append(StageSpec(n, rows))
    return TowerSpec(tuple(stages))


@given(sparse_towers())
@settings(max_examples=80, deadline=None)
def test_table_decider_matches_normal_form_reference(t):
    from gbott import triviality

    ring = CohomRing(t)
    table = ring.mult_table()
    for i, stage in enumerate(t.stages, start=1):
        k, chern, _ = triviality._first_violated_k(table, stage.coeffs)
        assert k == chern_identity_violation(t, i)
        assert chern == all(ring.is_zero(c) for c in stage_chern_classes(t, i)[1:])
    rep = full_report(t)
    assert rep.total_chern_trivial == total_chern_trivial_reference(t)
    assert rep.q_trivial == q_trivial_line_oracle(t)
    divisible = all(
        sum(col) % (s.fiber_dim + 1) == 0 for s in t.stages for col in zip(*s.coeffs)
    )
    assert rep.z_trivial == (rep.q_trivial and divisible)


# -- total Chern triviality -------------------------------------------------------

def test_product_total_chern_trivial():
    assert is_total_chern_trivial(product_tower((2, 2)))


def test_vanishing_c1_does_not_imply_chern_trivial():
    t = TowerSpec((StageSpec(2), StageSpec(2, ((1,), (-1,)))))
    assert not is_total_chern_trivial(t)
    assert not is_q_trivial(t)


def test_twisted_line_tower_not_chern_trivial():
    assert not is_total_chern_trivial(hirzebruch(3))


# -- generator candidates ----------------------------------------------------------

def test_product_candidates_are_axes():
    cands = generator_candidates(product_tower((2, 3)))
    assert [c.vector.coeffs for c in cands] == [(1, 0), (0, 1)]
    assert all(c.scale == 1 for c in cands)


def test_odd_twist_gives_scale_two():
    (c1, c2) = generator_candidates(hirzebruch(3))
    assert c1.vector.coeffs == (1, 0) and c1.scale == 1
    assert c2.vector.coeffs == (3, 2) and c2.scale == 2
    assert c2.vector.is_primitive


def test_even_twist_gives_unit_scale():
    (_, c2) = generator_candidates(hirzebruch(4))
    assert c2.vector.coeffs == (2, 1) and c2.scale == 1


def test_candidates_require_q_trivial(qtwin_a):
    with pytest.raises(PreconditionError):
        generator_candidates(qtwin_a)


def test_candidate_powers_vanish_and_are_independent():
    rng = random.Random(5)
    found = 0
    while found < 25:
        t = random_tower(rng, max_height=3, max_dim=2, bound=2)
        if not is_q_trivial(t):
            continue
        found += 1
        ring = CohomRing(t)
        cands = generator_candidates(t, ring)
        for c, n in zip(cands, t.dims):
            assert ring.is_zero(c.vector.to_polynomial() ** (n + 1))
            assert not ring.is_zero(c.vector.to_polynomial() ** n)
            assert c.vector.is_primitive
        # triangular with nonzero diagonal entries => independent
        for c in cands:
            assert c.vector.coeffs[c.stage - 1] != 0
            assert all(b == 0 for b in c.vector.coeffs[c.stage:])


def test_bounded_vanishing_vectors_lie_on_candidate_lines():
    # any integer vector with top support m, entries within 3, whose
    # (n_m+1)-st power vanishes must be parallel to (n_m+1) x_m + c_1
    rng = random.Random(31)
    for _ in range(60):
        t = random_tower(rng, max_height=2, max_dim=3, bound=2)
        ring = CohomRing(t)
        h = t.height
        for b in itertools.product(range(-3, 4), repeat=h):
            if all(x == 0 for x in b):
                continue
            m = max(i for i in range(h) if b[i] != 0) + 1
            n = t.dims[m - 1]
            if not ring.is_zero(Polynomial.linear(b) ** (n + 1)):
                continue
            line = list(ring.chern[m - 1].classes[1].linear_coefficients())
            line[m - 1] += n + 1
            # parallel: all 2x2 minors with the line vanish
            assert all(
                b[i] * line[j] == b[j] * line[i]
                for i in range(h)
                for j in range(h)
            )


# -- integral triviality -------------------------------------------------------------

def test_product_is_z_trivial():
    assert is_z_trivial(product_tower((1, 2)))


def test_twist_parity_splits_z_triviality():
    assert not is_z_trivial(hirzebruch(3))
    assert is_z_trivial(hirzebruch(4))


def test_z_trivial_implies_q_trivial_on_enumeration():
    for t in enumerate_towers(2, (1, 2), 2):
        rep = full_report(t)
        if rep.z_trivial:
            assert rep.q_trivial
        if rep.total_chern_trivial:
            assert rep.q_trivial


def _assert_wide_equivalence(t):
    untwisted = all(
        all(all(x == 0 for x in row) for row in s.coeffs) for s in t.stages
    )
    q = is_q_trivial(t)
    assert q == untwisted == is_z_trivial(t) == is_total_chern_trivial(t)


def test_wide_towers_collapse_all_conditions():
    # with every fiber dimension >= 2 the four conditions coincide:
    # exhaustive at height 2, seeded sample at height 3
    for t in enumerate_towers(2, (2, 3), 2):
        _assert_wide_equivalence(t)
    rng = random.Random(99)
    for _ in range(300):
        h = 3
        stages = []
        for i in range(1, h + 1):
            n = rng.choice((2, 3))
            rows = tuple(
                tuple(rng.randrange(-2, 3) for _ in range(i - 1))
                for _ in range(n)
            )
            stages.append(StageSpec(n, rows))
        _assert_wide_equivalence(TowerSpec(tuple(stages)))


# -- all-lines towers ------------------------------------------------------------------

def test_two_stage_line_towers_always_q_trivial():
    for a in range(-4, 5):
        assert bott_q_trivial(hirzebruch(a))


def test_three_stage_line_tower_with_crossed_twists_fails():
    # c_1(xi_3) = x1 + x2 squares to 2 x1 x2 != 0
    t = TowerSpec(
        (StageSpec(1), StageSpec(1, ((0,),)), StageSpec(1, ((1, 1),)))
    )
    assert not bott_q_trivial(t)


def test_product_line_tower_trivial():
    assert bott_q_trivial(product_tower((1, 1, 1)))


def test_bott_q_trivial_requires_line_fibers(qtwin_a):
    with pytest.raises(PreconditionError):
        bott_q_trivial(qtwin_a)


def test_bott_criterion_agrees_with_general_decider():
    for height in (1, 2, 3, 4):
        for t in enumerate_towers(height, (1,), 2):
            assert bott_q_trivial(t) == is_q_trivial(t)


# -- decomposition -----------------------------------------------------------------------

def test_decompose_moves_line_stage_first():
    t = TowerSpec((StageSpec(2), StageSpec(1, ((0,),))))
    dec = decompose(t)
    assert dec.permutation.images == (2, 1)
    assert dec.bott_height == 1
    assert dec.base == TowerSpec((StageSpec(1),))
    assert dec.fiber_dims == (2,)
    assert dec.reordered.dims == (1, 2)


def test_decompose_product_sorts_dims():
    dec = decompose(product_tower((1, 2, 1)))
    assert dec.reordered.dims == (1, 1, 2)
    assert dec.bott_height == 2
    assert all(
        all(all(x == 0 for x in row) for row in s.coeffs)
        for s in dec.reordered.stages
    )


def test_decompose_line_tower_is_identity():
    dec = decompose(hirzebruch(3))
    assert dec.permutation.is_identity
    assert dec.base == hirzebruch(3)
    assert dec.fiber_dims == ()


def test_decompose_requires_q_trivial(qtwin_a):
    with pytest.raises(PreconditionError):
        decompose(qtwin_a)


def test_decompose_zero_blocks_and_swap_realization():
    rng = random.Random(77)
    checked = 0
    while checked < 30:
        t = random_tower(rng, max_height=3, max_dim=2, bound=2)
        if not is_q_trivial(t):
            continue
        checked += 1
        dec = decompose(t)
        # the permutation equals the stable adjacent-swap realization
        order = adjacent_swap_order(t.dims)
        expected = [0] * t.height
        for pos, old in enumerate(order, start=1):
            expected[old - 1] = pos
        assert dec.permutation.images == tuple(expected)
        # zero blocks: nothing is twisted over a wide stage
        for i, stage in enumerate(dec.reordered.stages, start=1):
            for k in range(1, i):
                if dec.reordered.dims[k - 1] > 1:
                    assert all(row[k - 1] == 0 for row in stage.coeffs)
        # the permutation is realized by the same tower conjugation
        assert permute(t, dec.permutation) == dec.reordered


# -- aggregate report -----------------------------------------------------------------------

def test_full_report_twisted_pair(qtwin_a):
    rep = full_report(qtwin_a)
    assert not rep.q_trivial and not rep.z_trivial
    assert not rep.total_chern_trivial
    assert rep.decomposition is None
    assert rep.per_stage[1].violated_k == 2


def test_full_report_product():
    rep = full_report(product_tower((2, 3)))
    assert rep.q_trivial and rep.z_trivial and rep.total_chern_trivial
    assert rep.decomposition is not None


def test_full_report_twisted_line_tower():
    rep = full_report(hirzebruch(3))
    assert rep.q_trivial and not rep.z_trivial
    assert not rep.total_chern_trivial
    assert rep.per_stage[1].candidate.scale == 2
    text = rep.to_text()
    assert "q_trivial: yes" in text
    assert "z_trivial: no" in text
    data = rep.to_dict()
    assert data["stages"][1]["scale"] == 2


def test_full_report_checks_each_stage_once(monkeypatch):
    """A Q-trivial tower's stages are decided once each: neither the
    total-Chern flag nor the decomposition decides a stage again."""
    from gbott import triviality

    calls = []
    check = triviality._first_violated_k

    def counted(table, rows):
        calls.append(len(rows[0]) + 1)  # stage i's rows have i-1 entries
        return check(table, rows)

    monkeypatch.setattr(triviality, "_first_violated_k", counted)
    t = TowerSpec((StageSpec(1), StageSpec(2, ((0,), (0,))), StageSpec(1, ((2, 0),))))
    rep = full_report(t)
    assert rep.q_trivial
    assert calls == [1, 2, 3]
    assert rep.decomposition == decompose(t)


def _record_extensions(monkeypatch) -> list[int]:
    """The number of generator maps of each table the deciders extend to."""
    from gbott import triviality

    built = []
    extend = triviality.extend_table

    def recorded(*args):
        table = extend(*args)
        built.append(len(table))
        return table

    monkeypatch.setattr(triviality, "extend_table", recorded)
    return built


def test_is_q_trivial_never_builds_the_last_map(monkeypatch, qtwin_a):
    """Stage i is decided on the height-(i-1) prefix's table, so a
    height-h tower needs maps 1..h-1 only, and a failing stage ends the
    walk before any table above it is built."""
    built = _record_extensions(monkeypatch)
    assert is_q_trivial(product_tower((1, 2, 1, 3)))
    assert built == [1, 2, 3]
    built.clear()
    failing = TowerSpec(qtwin_a.stages + (StageSpec(1, ((0, 0),)),))
    assert not is_q_trivial(failing)
    assert built == [1]
    built.clear()
    assert is_total_chern_trivial(product_tower((2, 2)))
    assert bott_q_trivial(hirzebruch(2))
    assert built == [1, 1]


def test_full_report_builds_the_last_map_only_for_the_debug_check(monkeypatch, qtwin_a):
    built = _record_extensions(monkeypatch)
    assert full_report(product_tower((1, 2, 1))).q_trivial
    assert built == ([1, 2, 3] if __debug__ else [1, 2])
    built.clear()
    assert not full_report(qtwin_a).q_trivial
    assert built == [1]
