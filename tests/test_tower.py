"""Tower validation, matrix exports, permutation conjugation, file format."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gbott import (
    Permutation,
    StageSpec,
    TowerSpec,
    parse_tower,
    permute,
    product_tower,
    reduced_characteristic_matrix,
    serialize_tower,
    vector_matrix_transpose,
)
from gbott.errors import (
    InadmissiblePermutation,
    TowerFormatError,
    TowerValidationError,
)

from conftest import hirzebruch


# -- strategies ---------------------------------------------------------------

@st.composite
def towers(draw, max_height=3, max_dim=3, bound=3):
    h = draw(st.integers(1, max_height))
    dims = [draw(st.integers(1, max_dim)) for _ in range(h)]
    stages = []
    for i, n in enumerate(dims, start=1):
        rows = tuple(
            tuple(draw(st.integers(-bound, bound)) for _ in range(i - 1))
            for _ in range(n)
        )
        stages.append(StageSpec(n, rows))
    return TowerSpec(tuple(stages))


@st.composite
def permutations(draw, h):
    images = draw(st.permutations(list(range(1, h + 1))))
    return Permutation(tuple(images))


# -- validation ---------------------------------------------------------------

def test_twisted_pair_is_valid(qtwin_a):
    assert qtwin_a.height == 2
    assert qtwin_a.dims == (2, 3)


def test_single_stage_cp5_is_valid():
    t = TowerSpec((StageSpec(5),))
    assert t.dims == (5,)


# a malformed stage is built without complaint; the tower holding it
# raises, naming the stage and, for a row of the wrong length, the row
MALFORMED = {
    "dim-zero": (
        (StageSpec(0),),
        "stage 1: fiber dimension must be >= 1, got 0",
        1,
    ),
    "dim-negative": (
        (StageSpec(1), StageSpec(-2, ((0,), (0,)))),
        "stage 2: fiber dimension must be >= 1, got -2",
        2,
    ),
    "row-count": (
        (StageSpec(2), StageSpec(3, ((0,), (0,)))),
        "stage 2: expected 3 coefficient rows, got 2",
        2,
    ),
    "ragged-row": (
        (StageSpec(1), StageSpec(1, ((1,),)), StageSpec(3, ((0, 1), (2,), (0, 0)))),
        "stage 3, row 2: expected 2 entries, got 1",
        3,
    ),
    "row-width": (
        (StageSpec(1), StageSpec(1, ((1, 2),))),
        "stage 2, row 1: expected 1 entries, got 2",
        2,
    ),
    "stage-1-width": (
        (StageSpec(2, ((1,), (0,))),),
        "stage 1, row 1: expected 0 entries, got 1",
        1,
    ),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_stage_rejected(case):
    stages, message, stage = MALFORMED[case]
    with pytest.raises(TowerValidationError) as err:
        TowerSpec(stages)
    assert str(err.value) == message
    assert err.value.stage == stage


def test_stage_tuples_and_a_bare_first_stage_accepted():
    """Stages may be given as (n, rows) tuples, and stage 1 with no
    rows at all; both are checked as any other stage is."""
    t = TowerSpec([(2,), (1, [[3]]), StageSpec(2, ((1, 0), (0, 1)))])
    assert t.dims == (2, 1, 2)
    assert t.stages[0] == StageSpec(2, ((), ()))
    assert t == TowerSpec((StageSpec(2, ((), ())), StageSpec(1, ((3,),)), t.stages[2]))
    with pytest.raises(TowerValidationError) as err:
        TowerSpec([(2,), (1, [[3, 0]])])
    assert err.value.stage == 2


# -- matrix exports -----------------------------------------------------------

def test_block_matrix_of_product():
    t = product_tower((2, 3))
    assert vector_matrix_transpose(t) == (
        (1, 0),
        (1, 0),
        (0, 1),
        (0, 1),
        (0, 1),
    )


def test_block_matrix_of_twisted_pair(qtwin_a):
    # transcribed by hand from the block layout: ones column per stage,
    # twist column below the diagonal
    assert vector_matrix_transpose(qtwin_a) == (
        (1, 0),
        (1, 0),
        (0, 1),
        (0, 1),
        (1, 1),
    )


def test_block_matrix_of_hirzebruch():
    assert vector_matrix_transpose(hirzebruch(3)) == ((1, 0), (3, 1))


def test_reduced_characteristic_matrix_is_negation():
    assert reduced_characteristic_matrix(TowerSpec((StageSpec(1),))) == ((-1,),)
    assert reduced_characteristic_matrix(hirzebruch(3)) == ((-1, 0), (-3, -1))
    t = TowerSpec((StageSpec(2), StageSpec(3, ((0,), (0,), (1,)))))
    assert reduced_characteristic_matrix(t) == tuple(
        tuple(-x for x in row) for row in vector_matrix_transpose(t)
    )


@given(towers(), towers())
@settings(max_examples=60, deadline=None)
def test_block_matrix_is_injective(t1, t2):
    if vector_matrix_transpose(t1) == vector_matrix_transpose(t2):
        assert t1 == t2


# -- permutation conjugation ---------------------------------------------------

def test_identity_permutation_is_noop(qtwin_a):
    assert permute(qtwin_a, Permutation.identity(2)) == qtwin_a


def test_swap_product_stages():
    t = product_tower((2, 3))
    swapped = permute(t, Permutation((2, 1)))
    assert swapped == product_tower((3, 2))


def test_last_two_stage_swap_moves_twist_rows():
    # both upper stages twisted only over stage 1, so swapping the last
    # two stages is admissible and exchanges their twist rows
    t = TowerSpec(
        (StageSpec(1), StageSpec(1, ((2,),)), StageSpec(1, ((5, 0),)))
    )
    swapped = permute(t, Permutation((1, 3, 2)))
    assert swapped == TowerSpec(
        (StageSpec(1), StageSpec(1, ((5,),)), StageSpec(1, ((2, 0),)))
    )


def test_inadmissible_swap_raises():
    t = TowerSpec((StageSpec(1), StageSpec(1, ((1,),))))
    with pytest.raises(InadmissiblePermutation):
        permute(t, Permutation((2, 1)))


@given(towers(max_height=4))
@settings(max_examples=80, deadline=None)
def test_permute_round_trips_when_admissible(t):
    rng = random.Random(sum(t.dims))
    images = list(range(1, t.height + 1))
    rng.shuffle(images)
    s = Permutation(tuple(images))
    try:
        moved = permute(t, s)
    except InadmissiblePermutation:
        return
    assert permute(moved, s.inverse()) == t
    assert sorted(moved.dims) == sorted(t.dims)
    flat = sorted(
        x for st_ in t.stages for row in st_.coeffs for x in row if x != 0
    )
    flat_moved = sorted(
        x for st_ in moved.stages for row in st_.coeffs for x in row if x != 0
    )
    assert flat == flat_moved


# -- file format ----------------------------------------------------------------

def test_parse_documented_example(qtwin_b):
    text = "stage n=2\nstage n=3\n0\n0\n2\n"
    assert parse_tower(text) == qtwin_b


def test_parse_single_stage():
    assert parse_tower("stage n=1") == TowerSpec((StageSpec(1),))


def test_comments_and_blank_lines_ignored(qtwin_a, data_dir):
    text = (data_dir / "qtwin_a.tower").read_text()
    assert text.startswith("#")
    assert parse_tower(text) == qtwin_a


@given(towers(max_height=4))
@settings(max_examples=80, deadline=None)
def test_serialize_parse_round_trip(t):
    assert parse_tower(serialize_tower(t)) == t


def test_missing_row_reports_header_line():
    with pytest.raises(TowerFormatError) as err:
        parse_tower("stage n=2\nstage n=3\n0\n0\n")
    assert err.value.line == 2


def test_bad_row_width_reports_line():
    with pytest.raises(TowerFormatError) as err:
        parse_tower("stage n=1\nstage n=1\n1 2\n")
    assert err.value.line == 3


def test_row_before_header_rejected():
    with pytest.raises(TowerFormatError) as err:
        parse_tower("3\nstage n=1\n")
    assert err.value.line == 1


def test_extra_row_rejected():
    with pytest.raises(TowerFormatError) as err:
        parse_tower("stage n=1\nstage n=1\n1\n2\n")
    assert err.value.line == 4


def test_non_integer_row_rejected():
    with pytest.raises(TowerFormatError):
        parse_tower("stage n=1\nstage n=1\nx\n")


@pytest.mark.parametrize(
    "text, line",
    [
        ("stage n=0\n", 1),
        ("stage n=1\nstage n=-1\n", 2),
        ("# header comment\n\nstage n=2\nstage n=0\n0\n", 4),
    ],
)
def test_nonpositive_fiber_dimension_reports_header_line(text, line):
    with pytest.raises(TowerFormatError) as err:
        parse_tower(text)
    assert err.value.line == line
    assert "fiber dimension must be >= 1" in str(err.value)
