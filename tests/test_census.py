"""Enumeration harness: coverage, determinism, counts."""

import hashlib
import itertools
import random
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from gbott import (
    EnumerationConfig,
    TowerSpec,
    enumerate_towers,
    expected_count,
    full_report,
    is_z_trivial,
    serialize_tower,
)
from gbott.census import classify
from gbott.cli import main
from gbott.errors import GbottError
from gbott.tower import matrix_line

from test_tower import towers
from oracle_impls import enumerate_towers_flat, matrix_line_via_transpose


def test_config_validation():
    EnumerationConfig(height=2, dims=(1, 2), coeff_bound=1)
    with pytest.raises(GbottError):
        EnumerationConfig(height=0, dims=(1,), coeff_bound=1)
    with pytest.raises(GbottError):
        EnumerationConfig(height=1, dims=(), coeff_bound=1)
    with pytest.raises(GbottError):
        EnumerationConfig(height=1, dims=(1,), coeff_bound=-1)
    with pytest.raises(GbottError):
        EnumerationConfig(height=1, dims=(1,), coeff_bound=1, filters={"bogus"})


def test_count_matches_closed_form():
    cases = [
        (1, (3,), 0),
        (2, (1,), 1),
        (2, (1, 2), 2),
        (3, (1, 2), 1),
    ]
    for height, dims, bound in cases:
        towers = list(enumerate_towers(height, dims, bound))
        assert len(towers) == expected_count(height, dims, bound)
        assert len({serialize_tower(t) for t in towers}) == len(towers)


def test_enumeration_is_deterministic():
    first = [serialize_tower(t) for t in enumerate_towers(2, (1, 2), 1)]
    second = [serialize_tower(t) for t in enumerate_towers(2, (1, 2), 1)]
    assert first == second


def test_height_two_line_census():
    towers = list(enumerate_towers(2, (1,), 1))
    assert len(towers) == 3
    assert all(full_report(t).q_trivial for t in towers)
    z_flags = [is_z_trivial(t) for t in towers]
    # twists -1, 0, 1: only the untwisted tower is Z-trivial
    assert z_flags.count(True) == 1
    z_tower = towers[z_flags.index(True)]
    assert all(all(x == 0 for x in row) for s in z_tower.stages for row in s.coeffs)


def test_single_wide_stage_census():
    towers = list(enumerate_towers(1, (3,), 0))
    assert len(towers) == 1
    rep = full_report(towers[0])
    assert rep.q_trivial and rep.z_trivial and rep.total_chern_trivial


def test_wide_census_q_trivial_iff_untwisted():
    towers = list(enumerate_towers(2, (2,), 1))
    assert len(towers) == 9
    q_count = sum(1 for t in towers if full_report(t).q_trivial)
    zero_count = sum(
        1
        for t in towers
        if all(all(x == 0 for x in row) for s in t.stages for row in s.coeffs)
    )
    assert q_count == zero_count == 1


# -- the level-by-level walk against the flat reference ------------------------

REFERENCE_SHAPES = [
    (1, (3,), 0),
    (2, (1, 2, 3), 1),
    (3, (1, 2), 1),
    (4, (1,), 1),
    (3, (1, 2), 0),
    (0, (2,), 1),
]


def _assert_matches_flat_reference(height, dims, bound):
    stream = list(enumerate_towers(height, dims, bound))
    reference = list(enumerate_towers_flat(height, dims, bound))
    assert len(stream) == len(reference)
    for t, ref in zip(stream, reference):
        assert serialize_tower(t) == serialize_tower(ref)
        assert matrix_line(t) == matrix_line_via_transpose(ref)


@pytest.mark.parametrize("height, dims, bound", REFERENCE_SHAPES)
def test_stream_matches_flat_reference(height, dims, bound):
    _assert_matches_flat_reference(height, dims, bound)


@given(
    st.integers(1, 4),
    st.sets(st.integers(1, 3), min_size=1),
    st.integers(0, 2),
)
@settings(max_examples=25, deadline=None)
def test_stream_matches_flat_reference_on_random_shapes(height, dims, bound):
    assume(expected_count(height, tuple(dims), bound) <= 800)
    _assert_matches_flat_reference(height, tuple(dims), bound)


@given(towers())
@settings(max_examples=100, deadline=None)
def test_matrix_line_matches_block_matrix_reference(t):
    assert matrix_line(t) == matrix_line_via_transpose(t)


def test_enumeration_shares_each_stage_below_it():
    """Consecutive towers of one shape hold the same stage object at a
    level exactly when they agree up to that level."""
    towers_ = list(enumerate_towers(3, (1, 2), 1))
    for a, b in zip(towers_, towers_[1:]):
        if a.dims != b.dims:
            continue
        for k in range(3):
            same_prefix = a.stages[: k + 1] == b.stages[: k + 1]
            assert (a.stages[k] is b.stages[k]) == same_prefix


def test_enumeration_memory_does_not_grow_with_the_census():
    """The first towers of censuses of 7^10 and 7^12 towers come at once:
    nothing sized by the census is built before them."""
    start = time.perf_counter()
    first = next(enumerate_towers(2, (10,), 3))
    head = list(itertools.islice(enumerate_towers(3, (4,), 3), 1000))
    assert time.perf_counter() - start < 5.0
    assert first.stages[1].coeffs == ((-3,),) * 10
    assert head == list(itertools.islice(enumerate_towers_flat(3, (4,), 3), 1000))


# -- classification ------------------------------------------------------------

CLASSIFY_SHAPES = [(3, (1, 2), 1), (2, (1, 3), 2), (4, (1,), 1)]


def _report_flags(t):
    rep = full_report(t)
    return rep.q_trivial, rep.z_trivial, rep.total_chern_trivial


@pytest.mark.parametrize("height, dims, bound", CLASSIFY_SHAPES)
def test_classify_matches_full_report(height, dims, bound):
    towers = list(enumerate_towers(height, dims, bound))
    expected = [_report_flags(t) for t in towers]
    assert [flags for _, flags in classify(towers)] == expected
    order = list(range(len(towers)))
    random.Random(height).shuffle(order)
    shuffled = list(classify(towers[i] for i in order))
    assert [t for t, _ in shuffled] == [towers[i] for i in order]
    assert [flags for _, flags in shuffled] == [expected[i] for i in order]


def test_classify_mixed_heights_in_any_order():
    towers = [t for shape in CLASSIFY_SHAPES for t in enumerate_towers(*shape)]
    random.Random(7).shuffle(towers)
    towers = towers[:1500] + list(enumerate_towers(1, (1, 2, 3), 0))
    assert [f for _, f in classify(towers)] == [_report_flags(t) for t in towers]


def test_classify_decides_each_prefix_once(monkeypatch):
    """One decision per run of equal prefixes at each level, and one
    last-stage decision per tower whose prefix passes."""
    from gbott import triviality

    calls = [0]
    check = triviality._first_violated_k

    def counted(table, rows):
        calls[0] += 1
        return check(table, rows)

    towers = list(enumerate_towers(3, (1, 2), 1))
    runs = {
        j: sum(
            1
            for a, b in zip([None] + towers, towers)
            if a is None or a.stages[:j] != b.stages[:j]
        )
        for j in (1, 2)
    }
    passing = {}
    for t in towers:
        prefix = t.stages[:2]
        if prefix not in passing:
            passing[prefix] = full_report(TowerSpec(prefix)).q_trivial
    under_passing = sum(1 for t in towers if passing[t.stages[:2]])
    assert (runs[1], runs[2], under_passing) == (2, 48, 1260)

    monkeypatch.setattr(triviality, "_first_violated_k", counted)
    for _ in classify(towers):
        pass
    assert calls[0] == runs[1] + runs[2] + under_passing == 1310


def _enumerate(capsys, *extra):
    code = main(["enumerate", "--height", "3", "--dims", "1,2", "--bound", "1", *extra])
    assert code == 0
    return capsys.readouterr().out.splitlines()


def test_enumerate_histogram_is_pinned(capsys):
    """Flag histogram of this census as printed before the prefix
    classifier existed."""
    summary = [line for line in _enumerate(capsys) if line.startswith("#")]
    assert summary == [
        "# towers: 2160 emitted: 2160",
        "# q=1 z=1 chern=1: 24",
        "# q=1 z=0 chern=0: 184",
        "# q=0 z=0 chern=0: 1952",
    ]


@pytest.mark.parametrize(
    "filters", [("q",), ("z",), ("chern",), ("q", "z")], ids="+".join
)
def test_enumerate_filters_select_matching_lines(capsys, filters):
    full = _enumerate(capsys)
    towers = [line for line in full if not line.startswith("#")]
    args = [a for f in filters for a in ("--filter", f)]
    out = _enumerate(capsys, *args)
    wanted = [
        line for line in towers if all(f"{f}=1" in line.split("  ")[1] for f in filters)
    ]
    assert [line for line in out if not line.startswith("#")] == wanted
    summary = [line for line in full if line.startswith("#")]
    summary[0] = f"# towers: {len(towers)} emitted: {len(wanted)}"
    assert [line for line in out if line.startswith("#")] == summary


# sha256 of the stdout of `gbott enumerate --height 3 --dims 1,2 --bound 1`,
# as printed when every tower was generated and formatted on its own
PINNED_STDOUT = {
    (): "27795a3729ad38789f4e846dafeb909731f974ab53aaec06fe3f5bfd89b164f1",
    ("q",): "bab0caf4c8af5b51950519bb230bd790a1fe678ac1afc9b4442f5ffe7e8f5302",
    ("z", "chern"): "39255dd136f1a28d99ec4cd65cb6b4217e538d7f4ba11b85bec33947a7e26791",
}


@pytest.mark.parametrize("filters", list(PINNED_STDOUT), ids=lambda f: "+".join(f) or "all")
def test_enumerate_stdout_is_pinned(capsys, filters):
    args = [a for f in filters for a in ("--filter", f)]
    code = main(["enumerate", "--height", "3", "--dims", "1,2", "--bound", "1", *args])
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[filters]


def test_classify_builds_no_ring(monkeypatch):
    """Prefix tables are extended from the classes the decisions built,
    with no CohomRing, also for the debug check of passing stages."""
    from gbott import cohomology

    towers = list(enumerate_towers(3, (1, 2), 1))
    expected = [flags for _, flags in classify(towers)]

    def refuse(self, tower):
        raise AssertionError("CohomRing constructed")

    monkeypatch.setattr(cohomology.CohomRing, "__init__", refuse)
    assert [flags for _, flags in classify(towers)] == expected
