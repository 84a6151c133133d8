"""Q/Z-triviality deciders, generator candidates, decomposition."""

import ast
import itertools
import math
import random
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gbott
from gbott import (
    CohomRing,
    Degree2Map,
    Polynomial,
    StageSpec,
    TowerSpec,
    bott_q_trivial,
    decompose,
    enumerate_towers,
    full_report,
    generator_candidates,
    is_iso,
    is_q_trivial,
    is_total_chern_trivial,
    is_z_trivial,
    permute,
    product_tower,
    stage_diagnostics,
)
from gbott.census import classify
from gbott.errors import PreconditionError
from gbott.triviality import Degree2Class, GeneratorCandidate, StageDiagnostic

from conftest import certify, hirzebruch, last_stage_decisions, twisted_over_wide
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


def _reference_diagnostic(t, i):
    """Stage i's diagnostic from the normal-form reference: its first
    violated Chern identity, or its candidate, the primitive vector on
    the line of (n+1) x_i + c_1(xi_i) with c_1 read off the Chern class."""
    n = t.dims[i - 1]
    k = chern_identity_violation(t, i)
    if k is not None:
        return StageDiagnostic(stage=i, fiber_dim=n, violated_k=k)
    line = [int(b) for b in stage_chern_classes(t, i)[1].linear_coefficients()]
    line[i - 1] += n + 1
    g = math.gcd(*line)
    candidate = GeneratorCandidate(i, (n + 1) // g, Degree2Class(b // g for b in line))
    return StageDiagnostic(stage=i, fiber_dim=n, candidate=candidate)


def _check_against_reference(t) -> int:
    """Assert that t's stage diagnostics equal the reference's, and that
    every stage twisted over a wide stage fails at k = 2 there; return
    the number of such stages."""
    reference = tuple(_reference_diagnostic(t, i) for i in range(1, t.height + 1))
    assert stage_diagnostics(t) == reference, t
    wide = [d for d in reference if twisted_over_wide(t, d.stage)]
    assert all(d.violated_k == 2 for d in wide), t
    return len(wide)


@given(sparse_towers())
@settings(max_examples=80, deadline=None)
def test_table_decider_matches_normal_form_reference(t):
    from gbott import triviality

    table = CohomRing(t).block_table()
    for i, stage in enumerate(t.stages, start=1):
        k = triviality._first_violated_k(table, stage.coeffs)
        assert k == chern_identity_violation(t, i)
    _check_against_reference(t)
    rep = full_report(t)
    assert rep.total_chern_trivial == total_chern_trivial_reference(t)
    assert rep.q_trivial == q_trivial_line_oracle(t)
    divisible = all(
        sum(col) % (s.fiber_dim + 1) == 0 for s in t.stages for col in zip(*s.coeffs)
    )
    assert rep.z_trivial == (rep.q_trivial and divisible)
    if rep.q_trivial:
        candidates = [d.candidate.vector.coeffs for d in rep.per_stage]
        assert certify(t, candidates) == (True, rep.z_trivial)


@given(st.one_of(sparse_towers(), sparse_towers(max_dim=1)))
@settings(max_examples=80, deadline=None)
def test_every_entry_point_agrees_with_full_report(t):
    rep = full_report(t)
    flags = (rep.q_trivial, rep.z_trivial, rep.total_chern_trivial)
    assert (is_q_trivial(t), is_z_trivial(t), is_total_chern_trivial(t)) == flags
    assert list(classify([t])) == [(t, flags)]
    if all(n == 1 for n in t.dims):
        assert bott_q_trivial(t) == rep.q_trivial


@pytest.mark.parametrize(
    "height, dims, bound, wide",
    [(2, (1, 2, 3), 1, 72), (3, (1, 2), 1, 2628), (2, (2, 3, 4), 1, 342)],
)
def test_stages_twisted_over_a_wide_stage_fail_at_k2(height, dims, bound, wide):
    """On every stage of these censuses the diagnostics equal the
    normal-form reference, and each stage with a non-zero entry in the
    column of a wide stage fails its k = 2 identity there."""
    found = sum(
        _check_against_reference(t) for t in enumerate_towers(height, dims, bound)
    )
    assert found == wide


def _walked_stages(t, decide):
    """Stage i of t for each i whose height-(i-1) prefix is Q-trivial,
    that is, each stage a walk decides in closed form, with its first
    violated k by `decide(t, i)`: up to and including the first failing
    stage."""
    for i in range(1, t.height + 1):
        k = decide(t, i)
        yield i, k
        if k is not None:
            return


@pytest.mark.parametrize(
    "height, dims, bound, stages",
    [(3, (1, 2), 1, 5580), (2, (1, 2, 3), 2, 930), (2, (2, 3, 4), 1, 702),
     (4, (1,), 1, 2484)],
)
def test_closed_form_matches_ring_decision(height, dims, bound, stages):
    """On every stage with a Q-trivial prefix, the closed form gives the
    first violated k that `_first_violated_k` finds on the prefix's ring."""
    from gbott import triviality

    tables = {}

    def on_ring(t, i):
        prefix = t.stages[: i - 1]
        if prefix not in tables:
            tables[prefix] = CohomRing(TowerSpec(prefix)).block_table()
        return triviality._first_violated_k(tables[prefix], t.stages[i - 1].coeffs)

    checked = 0
    for t in enumerate_towers(height, dims, bound):
        for i, k in _walked_stages(t, on_ring):
            assert triviality._closed_form_k(t, i) == k, (t, i)
            checked += 1
    assert checked == stages


@given(st.one_of(sparse_towers(), sparse_towers(max_height=5, max_dim=1)))
@settings(max_examples=80, deadline=None)
def test_closed_form_matches_normal_form_reference(t):
    from gbott import triviality

    for i, k in _walked_stages(t, chern_identity_violation):
        assert triviality._closed_form_k(t, i) == k, i


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
        cands = generator_candidates(t)
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


# Q-trivial towers of the acceptance censuses and of the benchmark census
CERTIFIED_CENSUSES = {
    (2, (1, 2, 3), 2): 161,
    (2, (1, 2), 2): 32,
    (1, (2,), 2): 1,
    (2, (2,), 2): 1,
    (3, (2,), 2): 1,
    (3, (1, 2), 1): 208,
    (3, (1, 2), 2): 1292,
}


@pytest.mark.parametrize("height, dims, bound", list(CERTIFIED_CENSUSES))
def test_candidate_matrix_certifies_q_trivial_towers(height, dims, bound):
    """On every Q-trivial tower of the census, the matrix whose columns
    are the candidates of `full_report` maps the product ring onto the
    tower's ring over Q, and over Z exactly when the tower is Z-trivial."""
    checked = 0
    for t, (q, _, _) in classify(enumerate_towers(height, dims, bound)):
        if not q:
            continue
        rep = full_report(t)
        candidates = [d.candidate.vector.coeffs for d in rep.per_stage]
        assert certify(t, candidates) == (True, rep.z_trivial), t
        checked += 1
    assert checked == CERTIFIED_CENSUSES[height, dims, bound]


@pytest.mark.parametrize("height, dims, bound", list(CERTIFIED_CENSUSES))
def test_q_trivial_towers_are_bundles_over_q_trivial_bott_towers(height, dims, bound):
    """The paper's theorem on every Q-trivial tower of a census: the
    lines-first reordering has a Q-trivial Bott tower as its base, and
    the stage permutation, as the matrix sending generator i of the
    reordered tower to generator images[i-1] of the tower, is a
    Z-isomorphism of their rings (its transpose is not, in general)."""
    checked = 0
    for t, (q, _, _) in classify(enumerate_towers(height, dims, bound)):
        if not q:
            continue
        dec = decompose(t)
        assert all(n == 1 for n in dec.base.dims)
        assert bott_q_trivial(dec.base)
        M = [[0] * t.height for _ in range(t.height)]
        for i, image in enumerate(dec.permutation.images, start=1):
            M[i - 1][image - 1] = 1
        assert is_iso(
            Degree2Map(M), CohomRing(dec.reordered), CohomRing(t), over_integers=True
        ), t
        checked += 1
    assert checked == CERTIFIED_CENSUSES[height, dims, bound]


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


def _record(monkeypatch, name, stage) -> list[int]:
    """The stage, `stage(*args)`, of each call of the per-stage decider
    `triviality.<name>`."""
    from gbott import triviality

    decided = []
    decide = getattr(triviality, name)

    def recorded(*args):
        decided.append(stage(*args))
        return decide(*args)

    monkeypatch.setattr(triviality, name, recorded)
    return decided


def _record_ring_decisions(monkeypatch) -> list[int]:
    """The stage of each `_first_violated_k` call the deciders make
    (stage i's rows have i-1 entries)."""
    return _record(
        monkeypatch, "_first_violated_k", lambda table, rows: len(rows[0]) + 1
    )


def _record_closed_forms(monkeypatch) -> list[int]:
    """The stage of each `_closed_form_k` call the deciders make."""
    return _record(monkeypatch, "_closed_form_k", lambda t, i: i)


def _record_extensions(monkeypatch) -> list[int]:
    """The number of generator maps of each table extended anywhere."""
    from gbott import cohomology

    built = []
    extend = cohomology.extend_table

    def recorded(*args):
        table = extend(*args)
        built.append(len(table))
        return table

    monkeypatch.setattr(cohomology, "extend_table", recorded)
    return built


def test_full_report_checks_each_stage_once(monkeypatch):
    """A Q-trivial tower's stages are decided once each, in closed form:
    neither the total-Chern flag nor the decomposition decides a stage
    again, and no stage is decided on a ring."""
    closed = _record_closed_forms(monkeypatch)
    decided = _record_ring_decisions(monkeypatch)
    built = _record_extensions(monkeypatch)
    t = TowerSpec((StageSpec(1), StageSpec(2, ((0,), (0,))), StageSpec(1, ((2, 0),))))
    rep = full_report(t)
    assert rep.q_trivial
    assert (closed, decided, built) == ([1, 2, 3], [], [])
    assert rep.decomposition == decompose(t)


def test_only_full_report_and_decompose_reorder(monkeypatch):
    """The walk never decomposes: classify and the single-flag deciders
    make no `_reorder` call, full_report and decompose one per Q-trivial
    tower, so the census-wide check of `_reorder`'s consistency is
    `test_classify_matches_full_report`."""
    from gbott import triviality

    calls = [0]
    reorder = triviality._reorder

    def counted(t):
        calls[0] += 1
        return reorder(t)

    monkeypatch.setattr(triviality, "_reorder", counted)
    towers = list(enumerate_towers(3, (1, 2), 1))
    flags = [f for _, f in classify(towers)]
    for t in towers:
        is_q_trivial(t), is_z_trivial(t), is_total_chern_trivial(t)
    assert calls[0] == 0
    q_trivial = [t for t, (q, _, _) in zip(towers, flags) if q]
    assert len(q_trivial) == 208
    assert [full_report(t).q_trivial for t in towers] == [q for q, _, _ in flags]
    assert calls[0] == 208
    for t in q_trivial:
        decompose(t)
    assert calls[0] == 2 * 208


def test_is_q_trivial_never_builds_the_last_map(monkeypatch, qtwin_a):
    """The deciders build no table and make no ring decision: each stage
    up to the first failing one is decided once in closed form, and no
    stage above it is decided at all."""
    closed = _record_closed_forms(monkeypatch)
    decided = _record_ring_decisions(monkeypatch)
    built = _record_extensions(monkeypatch)
    assert is_q_trivial(product_tower((1, 2, 1, 3)))
    assert closed == [1, 2, 3, 4]
    closed.clear()
    failing = TowerSpec(qtwin_a.stages + (StageSpec(1, ((0, 0),)),))
    assert not is_q_trivial(failing)
    assert not is_z_trivial(failing)
    assert closed == [1, 2, 1, 2]
    closed.clear()
    assert is_total_chern_trivial(product_tower((2, 2)))
    assert bott_q_trivial(hirzebruch(2))
    assert closed == [1, 2, 1, 2]
    closed.clear()
    chern_fails = TowerSpec(hirzebruch(2).stages + (StageSpec(1, ((0, 0),)),))
    assert not is_total_chern_trivial(chern_fails)
    assert closed == [1, 2, 3]
    assert (decided, built) == ([], [])


def _record_tables(monkeypatch) -> list[int]:
    """The height of each ring whose table `CohomRing.block_table` folds."""
    from gbott import cohomology

    heights = []
    block_table = cohomology.CohomRing.block_table

    def recorded(ring):
        if ring._blocks is None:
            heights.append(ring.nvars)
        return block_table(ring)

    monkeypatch.setattr(cohomology.CohomRing, "block_table", recorded)
    return heights


def test_full_report_never_builds_the_last_map(monkeypatch, qtwin_a):
    """`full_report` builds no table for a tower up to its first failing
    stage, and for the stages above it the one table of the height-(h-1)
    prefix, so never the last generator's map."""
    tables = _record_tables(monkeypatch)
    built = _record_extensions(monkeypatch)
    assert full_report(product_tower((1, 2, 1))).q_trivial
    assert not full_report(qtwin_a).q_trivial
    assert (tables, built) == ([], [])
    above = (StageSpec(1, ((0, 0),)), StageSpec(1, ((0, 0, 0),)),
             StageSpec(1, ((0, 0, 1, 1),)))
    t = TowerSpec(qtwin_a.stages + above)
    rep = full_report(t)
    assert [d.violated_k for d in rep.per_stage] == [None, 2, None, None, 2]
    assert (tables, built) == ([4], [1, 2, 3, 4])
    assert rep.per_stage == tuple(_reference_diagnostic(t, i) for i in range(1, 6))


def test_full_report_on_a_tower_twisted_over_a_wide_stage(monkeypatch):
    """Stage 2, a line twisted over CP^2, fails at k = 2 in closed form;
    stage 3, above it, is decided on the ring, on the one table of the
    height-2 prefix."""
    closed = _record_closed_forms(monkeypatch)
    decided = _record_ring_decisions(monkeypatch)
    tables = _record_tables(monkeypatch)
    t = TowerSpec((StageSpec(2), StageSpec(1, ((1,),)), StageSpec(1, ((0, 1),))))
    rep = full_report(t)
    assert rep.per_stage[1].violated_k == 2
    assert (closed, decided, tables) == ([1, 2], [3], [2])
    assert rep.per_stage[2] == _reference_diagnostic(t, 3)
    assert not rep.q_trivial and rep.decomposition is None


def test_census_extends_only_the_tables_a_stage_reads(monkeypatch):
    """The benchmark census decides every stage it reaches in closed
    form: it makes no ring decision, builds no ring and extends no
    table, and its flag histogram is unchanged.  It decides stages 1
    and 2 once per run of towers that share them as objects, and
    stage 3 once per stage object under each run of Q-trivial prefixes
    with an equal closed-form context."""
    from gbott import cohomology

    towers = list(enumerate_towers(3, (1, 2), 2))
    runs = sum(
        a is None or any(x is not y for x, y in zip(a.stages[:j], b.stages[:j]))
        for j in (1, 2)
        for a, b in zip([None] + towers, towers)
    )
    passing = {}
    for t in towers:
        if t.stages[:2] not in passing:
            passing[t.stages[:2]] = is_q_trivial(TowerSpec(t.stages[:2]))
    under_passing = sum(passing[t.stages[:2]] for t in towers)
    last = last_stage_decisions(towers, passing.__getitem__)
    assert (runs, under_passing, last) == (2 + 120, 20800, 5200)

    closed = _record_closed_forms(monkeypatch)
    decided = _record_ring_decisions(monkeypatch)
    built = _record_extensions(monkeypatch)
    rings = []
    monkeypatch.setattr(cohomology.CohomRing, "__init__", lambda *a: rings.append(a))
    counts = Counter(
        "".join("TF"[not f] for f in flags) for _, flags in classify(towers)
    )
    assert (len(decided), len(built), len(rings)) == (0, 0, 0)
    assert len(closed) == runs + last == 5322
    assert counts == {"FFF": 37708, "TFF": 1096, "TTF": 148, "TTT": 48}


def test_no_module_asserts_or_reads_debug():
    """`python -O` runs the same code as the default: no module of the
    package has an assert statement or names __debug__."""
    package = Path(gbott.__file__).resolve().parent
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or (
                isinstance(node, ast.Name) and node.id == "__debug__"
            ):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
