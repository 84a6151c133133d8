"""Enumeration harness: coverage, determinism, counts."""

import hashlib
import itertools
import random
import sys
import time

import pytest
from hypothesis import assume, given, settings, strategies as st

from gbott import (
    EnumerationConfig,
    StageSpec,
    TowerSpec,
    enumerate_towers,
    expected_count,
    full_report,
    is_z_trivial,
    serialize_tower,
)
from gbott import census
from gbott.census import classify
from gbott.cli import main
from gbott.errors import GbottError
from gbott.tower import matrix_line

from conftest import last_stage_decisions
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


def test_classify_height_zero_tower():
    """The height-0 tower has the empty prefix's flags, all true, as
    full_report gives them, also in a stream of taller towers."""
    (empty,) = enumerate_towers(0, (1,), 1)
    assert _report_flags(empty) == (True, True, True)
    towers = list(enumerate_towers(2, (1, 2), 1))[-40:]
    towers[20:20] = [empty]
    assert [f for _, f in classify(towers)] == [_report_flags(t) for t in towers]


def _same_prefix(a, b, j):
    """Whether towers a and b share their first j stages as objects."""
    return all(x is y for x, y in zip(a.stages[:j], b.stages[:j]))


def test_classify_decides_each_prefix_once(monkeypatch):
    """One closed-form decision per run of identical prefixes at each
    level, and one last-stage decision per stage object under each run
    of passing prefixes with an equal closed-form context; no stage is
    decided on a ring.  The census builds each stage once, so the 8
    shapes start only two level-1 runs, one per n_1."""
    from gbott import triviality

    calls = {"_closed_form_k": 0, "_first_violated_k": 0}

    def counted(name):
        decide = getattr(triviality, name)

        def wrapper(*args):
            calls[name] += 1
            return decide(*args)

        return wrapper

    towers = list(enumerate_towers(3, (1, 2), 1))
    starts = {
        j: [
            b
            for a, b in zip([None] + towers, towers)
            if a is None or not _same_prefix(a, b, j)
        ]
        for j in (1, 2)
    }
    passing = {}
    for t in towers:
        prefix = t.stages[:2]
        if prefix not in passing:
            passing[prefix] = full_report(TowerSpec(prefix)).q_trivial
    under_passing = sum(1 for t in towers if passing[t.stages[:2]])
    last = last_stage_decisions(towers, passing.__getitem__)
    assert (len(starts[1]), len(starts[2]), under_passing, last) == (2, 48, 1260, 540)

    for name in calls:
        monkeypatch.setattr(triviality, name, counted(name))
    for _ in classify(towers):
        pass
    assert calls == {
        "_closed_form_k": len(starts[1]) + len(starts[2]) + last,
        "_first_violated_k": 0,
    }
    assert calls["_closed_form_k"] == 590


def test_classify_flat_stream_matches_full_report():
    """A stream that builds every tower from fresh stages shares no
    prefix object, so every stage is decided again; the flags are still
    `full_report`'s."""
    towers = list(enumerate_towers_flat(3, (1, 2), 1))
    assert [f for _, f in classify(towers)] == [_report_flags(t) for t in towers]


def test_classify_reuses_a_last_stage_decision_under_an_equal_context(monkeypatch):
    """Stage 2 wide over a line stage: both prefixes have one closed-form
    context, stage 1's row and a mark, but not the same z and chern
    flags.  The last stage, one object, is decided once under them, and
    each tower still gets `full_report`'s flags."""
    from gbott import triviality

    line = StageSpec(1, ((),))
    plain, twisted = StageSpec(2, ((0,), (0,))), StageSpec(2, ((1,), (1,)))
    last = StageSpec(1, ((0, 0),))
    a, b = TowerSpec((line, plain, last)), TowerSpec((line, twisted, last))
    assert (_report_flags(a), _report_flags(b)) == ((True,) * 3, (True, False, False))
    calls = []
    decide = triviality._closed_form_k
    monkeypatch.setattr(
        triviality, "_closed_form_k", lambda t, i: calls.append(i) or decide(t, i)
    )
    for stream in ([a, b, a, b], [b, a, b, a]):
        expected = [_report_flags(t) for t in stream]
        calls.clear()
        assert [f for _, f in classify(stream)] == expected
        # stages 1, 2 and 3 of the first tower, then stage 2 of each after
        assert calls == [1, 2, 3, 2, 2, 2]


@pytest.mark.parametrize("cap", [0, 1, 64])
def test_classify_matches_full_report_whatever_the_memo_keeps(monkeypatch, cap):
    """Shuffled, mixed-height, ordered and flat streams get
    `full_report`'s flags however many last-stage decisions the memo
    may keep."""
    monkeypatch.setattr(census, "_MEMO_CAP", cap)
    shuffled = list(enumerate_towers(3, (1, 2), 1)) + list(enumerate_towers(2, (1, 3), 1))
    random.Random(cap).shuffle(shuffled)
    towers = (
        shuffled[:400]
        + list(enumerate_towers(3, (1, 2), 1))[-400:]
        + list(enumerate_towers_flat(3, (1, 2), 1))[-400:]
        + list(enumerate_towers(1, (1, 2, 3), 0))
    )
    assert [f for _, f in classify(towers)] == [_report_flags(t) for t in towers]


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


# cap 0 streams every level; cap 30 keeps every level of that census but
# its 81 last stages of fiber dimension 2, which stream under each prefix
@pytest.mark.parametrize("cap", [0, 30])
@pytest.mark.parametrize("filters", list(PINNED_STDOUT), ids=lambda f: "+".join(f) or "all")
def test_enumerate_stdout_is_pinned_whatever_the_memo_keeps(
    capsys, monkeypatch, filters, cap
):
    monkeypatch.setattr(census, "_MEMO_CAP", cap)
    args = [a for f in filters for a in ("--filter", f)]
    code = main(["enumerate", "--height", "3", "--dims", "1,2", "--bound", "1", *args])
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_STDOUT[filters]


def test_benchmark_census_stdout_is_pinned(capsys):
    """The stdout of the 39 000-tower census that the benchmark runs
    (md5 3115c6bf...), as printed when each tower built its own stages."""
    code = main(["enumerate", "--height", "3", "--dims", "1,2", "--bound", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "4d5ec81bdd0ed90f500b2393e1886383f0004ef49cf954c0d9757459197d0545"
    )


def test_enumerate_memos_stay_under_the_cap(capsys, monkeypatch):
    """With the cap at 64, the census keeps its 1 + 25 stages of levels
    1 and 2 and streams the 625 of level 3, and neither the stage memo,
    the classifier's decision memo nor the CLI's text memo ever holds
    more than 64 entries."""
    from gbott import tower, triviality

    cap = 64
    monkeypatch.setattr(census, "_MEMO_CAP", cap)
    kept, texts, decisions = [], [], []
    level, stage_line, decide = census._level, tower.stage_line, triviality._decide

    def watched_level(i, n, values, memo):
        stages = level(i, n, values, memo)
        kept.append(sum(len(v) for v in memo.values() if v is not None))
        return stages

    def watched_stage_line(stage, i, h):
        texts.append(len(sys._getframe(1).f_locals["texts"]))
        return stage_line(stage, i, h)

    def watched_decide(t, i):
        memo = sys._getframe(1).f_locals.get("memo")
        if memo is not None:  # a last stage, decided by `classify`
            decisions.append(len(memo))
        return decide(t, i)

    monkeypatch.setattr(census, "_level", watched_level)
    monkeypatch.setattr(tower, "stage_line", watched_stage_line)
    monkeypatch.setattr(triviality, "_decide", watched_decide)
    assert main(["enumerate", "--height", "3", "--dims", "2", "--bound", "2"]) == 0
    assert "# towers: 15625 emitted: 15625\n" in capsys.readouterr().out
    # one visit of levels 1 and 2 each, and one of level 3 per stage 2
    assert len(kept) == 1 + 1 + 25 and max(kept) == 1 + 25
    # one line text per stage handed out: 1 + 25 + 25 * 625
    assert len(texts) == 15651 and max(texts) == cap
    # only the untwisted stage 2 passes over the wide stage 1, and the
    # 625 stages above it are streamed, so each is decided once; the
    # decision memo fills up to the cap and no further
    assert len(decisions) == 625 and max(decisions) == cap


def test_classify_builds_no_ring(monkeypatch):
    """Prefix tables are extended from the classes the decisions built,
    with no CohomRing."""
    from gbott import cohomology

    towers = list(enumerate_towers(3, (1, 2), 1))
    expected = [flags for _, flags in classify(towers)]

    def refuse(self, tower):
        raise AssertionError("CohomRing constructed")

    monkeypatch.setattr(cohomology.CohomRing, "__init__", refuse)
    assert [flags for _, flags in classify(towers)] == expected
