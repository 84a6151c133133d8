"""Homomorphism checking and bounded isomorphism search."""

import itertools
import math
import os
import random
import signal
import subprocess
import sys
import textwrap
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import gbott

from gbott import (
    CohomRing,
    Degree2Map,
    StageSpec,
    TowerSpec,
    check_hom,
    enumerate_towers,
    is_iso,
    is_z_trivial,
    load_tower,
    product_tower,
    relation_residues,
    search_iso,
    z_trivial_oracle,
)
from gbott import isosearch
from gbott.errors import PreconditionError
from gbott.isosearch import _det, _offsets, _rank, _relation_image

from conftest import DATA, hirzebruch
from oracle_impls import (
    basis_order_table,
    fraction_det,
    fraction_rank,
    relation_residues_reference,
    search_iso_reference,
)
from test_cohomology import random_tower
from test_tower import towers


def rings(qtwin_a, qtwin_b):
    return CohomRing(qtwin_a), CohomRing(qtwin_b)


# -- check_hom -----------------------------------------------------------------

def test_doubling_map_is_well_defined(qtwin_a, qtwin_b):
    src, tgt = rings(qtwin_a, qtwin_b)
    M = Degree2Map(((2, 0), (0, 1)))  # x -> 2X, y -> Y
    assert check_hom(M, src, tgt)
    assert all(r.is_zero for r in relation_residues(M, src, tgt))


def test_identity_is_well_defined(qtwin_a):
    ring = CohomRing(qtwin_a)
    assert check_hom(Degree2Map(((1, 0), (0, 1))), ring, ring)


def test_naive_map_fails(qtwin_a, qtwin_b):
    src, tgt = rings(qtwin_a, qtwin_b)
    M = Degree2Map(((1, 0), (0, 1)))  # x -> X, y -> Y
    assert not check_hom(M, src, tgt)
    residues = relation_residues(M, src, tgt)
    # Y^4 + X*Y^3 reduces to -X*Y^3 in the double-twist ring
    assert residues[1].coefficient((1, 3)) == -1


def test_integral_flag_requires_integer_entries(qtwin_a):
    ring = CohomRing(qtwin_a)
    M = Degree2Map(((Fraction(1, 2), 0), (0, 1)))
    with pytest.raises(PreconditionError):
        check_hom(M, ring, ring, over_integers=True)


@st.composite
def tower_pairs_with_map(draw):
    """Two towers of one height and an integer matrix between them."""
    h = draw(st.integers(1, 3))
    pair = [
        draw(towers(max_height=3, max_dim=2, bound=2).filter(lambda t: t.height == h))
        for _ in range(2)
    ]
    entry = st.integers(-2, 2)
    matrix = tuple(tuple(draw(entry) for _ in range(h)) for _ in range(h))
    return pair[0], pair[1], Degree2Map(matrix)


@given(tower_pairs_with_map())
@settings(max_examples=80, deadline=None)
def test_table_relation_images_match_substitution(case):
    """The search's relation check, through the target's multiplication
    table, gives the same image of every relation as substituting into
    it and rewriting (tests/oracle_impls.py); so do relation_residues
    and check_hom, which take the table path too."""
    t_src, t_tgt, M = case
    src, tgt = CohomRing(t_src), CohomRing(t_tgt)
    h = t_src.height
    basis = tgt.basis_exponents()
    table = basis_order_table(tgt)
    columns = [M.column(j) for j in range(1, h + 1)]
    images = []
    for j in range(h):
        offsets = _offsets(t_src.stages[j].coeffs, columns[:j], h)
        vec = _relation_image(table, columns[j], offsets)
        images.append({basis[b]: c for b, c in vec.items()})
    expected = [dict(r.terms) for r in relation_residues_reference(M, src, tgt)]
    assert images == expected
    assert [dict(r.terms) for r in relation_residues(M, src, tgt)] == expected
    assert check_hom(M, src, tgt) == (not any(images))


def test_composition_of_homs_is_hom():
    rng = random.Random(13)
    tried = 0
    while tried < 10:
        t1 = random_tower(rng, max_height=2, max_dim=2, bound=1)
        t2 = random_tower(rng, max_height=2, max_dim=2, bound=1)
        if t1.height != t2.height or t1.dims != t2.dims:
            continue
        r1, r2 = CohomRing(t1), CohomRing(t2)
        M = search_iso(r1, r2, over_integers=False, bound=2)
        if M is None:
            continue
        N = search_iso(r2, r1, over_integers=False, bound=2)
        if N is None:
            continue
        tried += 1
        h = t1.height
        prod = tuple(
            tuple(
                sum(N.matrix[i][k] * M.matrix[k][j] for k in range(h))
                for j in range(h)
            )
            for i in range(h)
        )
        assert check_hom(Degree2Map(prod), r1, r1)


# -- is_iso ---------------------------------------------------------------------

def test_doubling_map_is_q_iso_not_z_iso(qtwin_a, qtwin_b):
    src, tgt = rings(qtwin_a, qtwin_b)
    M = Degree2Map(((2, 0), (0, 1)))
    assert is_iso(M, src, tgt, over_integers=False)
    assert M.det() == 2
    assert not is_iso(M, src, tgt, over_integers=True)


def test_identity_is_z_iso_on_product():
    ring = CohomRing(product_tower((2, 3)))
    assert is_iso(Degree2Map(((1, 0), (0, 1))), ring, ring, over_integers=True)


def test_z_iso_implies_q_iso():
    rng = random.Random(23)
    for _ in range(20):
        t = random_tower(rng, max_height=2, max_dim=2, bound=2)
        ring = CohomRing(t)
        M = search_iso(ring, ring, over_integers=True, bound=2)
        assert M is not None  # identity is always available
        assert is_iso(M, ring, ring, over_integers=True)
        assert is_iso(M, ring, ring, over_integers=False)


# -- fraction-free elimination ----------------------------------------------------

sparse_entries = st.one_of(st.just(0), st.integers(-4, 4))


@given(st.integers(0, 4).flatmap(
    lambda n: st.lists(st.lists(sparse_entries, min_size=n, max_size=n),
                       min_size=n, max_size=n)))
@settings(max_examples=200, deadline=None)
def test_det_matches_fraction_elimination(rows):
    assert _det(rows) == fraction_det(rows)
    d = Degree2Map(rows).det()
    assert type(d) is int and d == fraction_det(rows)
    halves = [[Fraction(x, 2 + i) for i, x in enumerate(row)] for row in rows]
    assert _det(halves) == fraction_det(halves)


@given(st.integers(1, 4).flatmap(
    lambda h: st.lists(st.tuples(*[sparse_entries] * h), min_size=1, max_size=h + 1)
    .map(lambda cols: (cols, h))))
@settings(max_examples=200, deadline=None)
def test_rank_matches_fraction_elimination(case):
    columns, h = case
    assert _rank(columns) == fraction_rank(columns, h)


# -- search --------------------------------------------------------------------

def test_search_finds_rational_witness(qtwin_a, qtwin_b):
    src, tgt = rings(qtwin_a, qtwin_b)
    M = search_iso(src, tgt, over_integers=False, bound=2)
    assert M is not None
    assert is_iso(M, src, tgt, over_integers=False)
    assert all(r.is_zero for r in relation_residues(M, src, tgt))


def test_search_exhausts_integral_witnesses(qtwin_a, qtwin_b):
    src, tgt = rings(qtwin_a, qtwin_b)
    assert search_iso(src, tgt, over_integers=True, bound=10) is None


def test_search_finds_identity_first():
    ring = CohomRing(product_tower((1, 2)))
    M = search_iso(ring, ring, over_integers=True, bound=1)
    assert M is not None
    assert M.matrix == ((1, 0), (0, 1))
    # over Z only primitive columns are searched; the first witness
    # stays the one the unpruned search finds
    lines = CohomRing(product_tower((1, 1)))
    M = search_iso(lines, CohomRing(hirzebruch(4)), over_integers=True, bound=5)
    assert M.matrix == ((1, 2), (0, 1))
    M = search_iso(lines, CohomRing(hirzebruch(-4)), over_integers=True, bound=2)
    assert M.matrix == ((1, 2), (0, -1))


def test_search_respects_rank_gate():
    r1 = CohomRing(product_tower((1, 2)))
    r2 = CohomRing(product_tower((1, 3)))
    assert search_iso(r1, r2, over_integers=False, bound=3) is None


def test_search_rejects_bad_bound(qtwin_a):
    ring = CohomRing(qtwin_a)
    with pytest.raises(ValueError):
        search_iso(ring, ring, over_integers=False, bound=0)


def test_parallel_search_agrees_with_sequential(pool_from_start, qtwin_a, qtwin_b):
    src, tgt = rings(qtwin_a, qtwin_b)
    for bound in (2, 4):
        seq = search_iso(src, tgt, over_integers=False, bound=bound, workers=1)
        par = search_iso(src, tgt, over_integers=False, bound=bound, workers=2)
        assert seq is not None and par is not None
        assert par.matrix == seq.matrix
    assert search_iso(src, tgt, over_integers=True, bound=4, workers=2) is None


@st.composite
def search_pairs(draw, height):
    """A source and a target of one shape, each the product tower or a
    twisted tower of that shape."""
    dims = tuple(draw(st.integers(1, 2)) for _ in range(height))

    def side():
        if draw(st.booleans()):
            return product_tower(dims)
        twist = st.integers(-2, 2)
        return TowerSpec(tuple(
            StageSpec(n, tuple(tuple(draw(twist) for _ in range(i)) for _ in range(n)))
            for i, n in enumerate(dims)
        ))

    return side(), side()


@pytest.mark.parametrize("over_integers", [False, True], ids=["q", "z"])
@pytest.mark.parametrize("height", [1, 2, 3])
@given(data=st.data())
@settings(max_examples=8, deadline=None)
def test_search_returns_reference_witness(over_integers, height, data):
    """The memoised search, sequential and through the pool, returns the
    witness of the node-by-node reference search at every bound.  The
    pool takes over from the first column on; the budget is patched
    here, since hypothesis refuses the pool_from_start fixture in a
    @given test."""
    t_src, t_tgt = data.draw(search_pairs(height))
    src, tgt = CohomRing(t_src), CohomRing(t_tgt)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(isosearch, "_SEQUENTIAL_S", 0)
        for bound in (1, 2, 3):
            expected = search_iso_reference(src, tgt, over_integers, bound)
            for workers in (1, 2):
                found = search_iso(src, tgt, over_integers, bound, workers=workers)
                assert (found and found.matrix) == expected, (bound, workers)


def test_positions_follow_first_column_order():
    for bound, h in ((1, 1), (2, 2), (3, 3)):
        order = itertools.product(isosearch._entry_values(bound), repeat=h)
        assert [isosearch._position(col, bound) for col in order] == list(
            range((2 * bound + 1) ** h)
        )


class _FakeClock:
    """Stands in for the time module: the clock stands still for the
    reading at the start of a search and the checks before its first k
    first columns, then jumps past any budget."""

    def __init__(self, k: int):
        self.readings = k + 1

    def perf_counter(self) -> float:
        self.readings -= 1
        return 0.0 if self.readings >= 0 else math.inf


QTWIN = (load_tower(DATA / "qtwin_a.tower"), load_tower(DATA / "qtwin_b.tower"))
LINES = product_tower((1, 1))
HAND_OVER_CASES = [
    # (source, target, over_integers, bound)
    pytest.param(*QTWIN, False, 2, id="qtwin-q-witness"),
    pytest.param(*QTWIN, True, 3, id="qtwin-z-exhaust"),
    pytest.param(LINES, hirzebruch(4), True, 5, id="hirzebruch4-z-witness"),
    pytest.param(LINES, hirzebruch(-4), True, 2, id="hirzebruch-4-z-witness"),
    pytest.param(hirzebruch(3), LINES, False, 3, id="hirzebruch3-q-witness"),
    pytest.param(hirzebruch(3), LINES, True, 5, id="hirzebruch3-z-exhaust"),
]


@pytest.mark.parametrize("source, target, over_integers, bound", HAND_OVER_CASES)
def test_hand_over_after_any_first_column_keeps_witness(
    monkeypatch, source, target, over_integers, bound
):
    """Handing the search to the pool after its first k first columns,
    for every k up to the last one the search reaches, gives the
    sequential search's answer."""
    src, tgt = CohomRing(source), CohomRing(target)
    expected = search_iso(src, tgt, over_integers, bound)
    starts = []
    parallel = isosearch._parallel_search
    monkeypatch.setattr(
        isosearch, "_parallel_search",
        lambda *args: starts.append(args[-1]) or parallel(*args),
    )
    k = 0
    while True:
        monkeypatch.setattr(isosearch, "time", _FakeClock(k))
        found = search_iso(src, tgt, over_integers, bound, workers=2)
        assert (found and found.matrix) == (expected and expected.matrix), k
        if len(starts) == k:
            break  # the search ended within its first k first columns
        k += 1
    assert k > 0
    # a later hand-over starts further along the first-column order
    assert starts == sorted(set(starts))


# the benchmark's iso-exhaust shapes: (dims, twist rows of stages 2..h,
# product is the source, coefficients, bound)
EXHAUST_PAIRS = [
    ((1, 1, 1), [[(2,)], [(-2, 1)]], False, "q", 2),
    ((1, 1, 1), [[(-2,)], [(-1, 1)]], True, "z", 3),
    ((1, 1, 2), [[(0,)], [(-1, 1), (-1, -2)]], True, "q", 3),
    ((1, 1, 2), [[(-1,)], [(-1, 0), (0, -1)]], False, "z", 3),
    ((1, 2, 1), [[(2,), (-1,)], [(-1, -1)]], True, "q", 3),
    ((2, 1, 1), [[(2,)], [(-2, 2)]], False, "q", 2),
    ((1, 2), [[(0,), (-1,)]], True, "z", 6),
    ((2, 2), [[(-1,), (2,)]], False, "q", 6),
]


def test_short_search_starts_no_pool(monkeypatch):
    """A search that ends within the budget runs in this process alone,
    whatever `workers` says."""

    def refuse(*args):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(isosearch, "_parallel_search", refuse)
    for dims, rows, product_is_source, coeff, bound in EXHAUST_PAIRS:
        t = TowerSpec((StageSpec(dims[0]),) + tuple(
            StageSpec(n, tuple(r)) for n, r in zip(dims[1:], rows)
        ))
        src, tgt = CohomRing(product_tower(dims)), CohomRing(t)
        if not product_is_source:
            src, tgt = tgt, src
        assert search_iso(src, tgt, coeff == "z", bound, workers=2) is None


def test_prefix_rings_prune_columns(monkeypatch):
    """A column prefix whose relation image is non-zero already in a
    prefix ring of the target is dropped with all its extensions.  On the
    interrupt test's twisted pair at bound 3 the prefix walk makes 22 512
    relation images, truncated ones included; testing every column of
    the product order makes 76 489."""
    calls = []
    relation_image = isosearch._relation_image
    monkeypatch.setattr(
        isosearch, "_relation_image",
        lambda *args: calls.append(1) or relation_image(*args),
    )
    t = TowerSpec((StageSpec(1), StageSpec(1, ((2,),)), StageSpec(1, ((-2, 1),))))
    src, tgt = CohomRing(t), CohomRing(product_tower((1, 1, 1)))
    assert search_iso(src, tgt, over_integers=False, bound=3) is None
    assert len(calls) <= 25_000


class _RecordingMemo(isosearch._PassingColumns):
    """The search's memo, keeping every instance and its largest size."""

    made: list = []

    def __init__(self, *args):
        super().__init__(*args)
        self.peak = 0
        self.made.append(self)

    def __call__(self, offsets):
        columns = super().__call__(offsets)
        self.peak = max(self.peak, len(self.lists))
        return columns


@pytest.fixture
def memos(monkeypatch):
    made = []
    monkeypatch.setattr(_RecordingMemo, "made", made)
    monkeypatch.setattr(isosearch, "_PassingColumns", _RecordingMemo)
    return made


def test_relation_checked_once_per_key_and_column(monkeypatch, memos):
    """Each relation image is computed at most once per memo key and
    column.  A product source has all offsets zero, so its keys are the
    distinct fiber dimensions (depths of equal dimension share a key):
    2 here, and an exhaustive search at bound b makes at most
    2 * (2b+1)^h relation images (the node-by-node search made 29 155
    on this pair)."""
    calls = []
    relation_image = isosearch._relation_image
    monkeypatch.setattr(
        isosearch, "_relation_image",
        lambda *args: calls.append(1) or relation_image(*args),
    )
    src = CohomRing(product_tower((1, 1, 2)))
    tgt = CohomRing(TowerSpec((
        StageSpec(1), StageSpec(1, ((0,),)), StageSpec(2, ((-1, 1), (-1, -2))),
    )))
    assert search_iso(src, tgt, over_integers=False, bound=3) is None
    (memo,) = memos
    assert len(memo.lists) == 2
    assert len(calls) <= len(memo.lists) * 7 ** 3


def test_memo_cap_keeps_witnesses(monkeypatch, memos, pool_from_start, qtwin_a, qtwin_b):
    """With room for one key only, the memo evicts on every new key and
    the witnesses stay the same."""
    monkeypatch.setattr(isosearch, "_MEMO_KEYS", 1)
    src, tgt = rings(qtwin_a, qtwin_b)
    M = search_iso(src, tgt, over_integers=False, bound=2)
    assert M.matrix == ((2, 0), (0, 1))
    lines = CohomRing(product_tower((1, 1)))
    M = search_iso(lines, CohomRing(hirzebruch(4)), over_integers=True, bound=5)
    assert M.matrix == ((1, 2), (0, 1))
    M = search_iso(lines, CohomRing(hirzebruch(-4)), over_integers=True, bound=2)
    assert M.matrix == ((1, 2), (0, -1))
    assert len(memos) == 3
    assert all(memo.peak == 1 for memo in memos)
    # pool workers inherit the cap
    M = search_iso(src, tgt, over_integers=False, bound=2, workers=2)
    assert M.matrix == ((2, 0), (0, 1))


def _run_child(script: str, timeout: float, interrupt_after: float | None = None):
    """Run `script` in a fresh interpreter and process group; Ctrl-C the
    group after `interrupt_after` seconds if given.  On timeout the whole
    group is killed, pool workers included, and the test fails."""
    src_dir = str(Path(gbott.__file__).resolve().parent.parent)
    proc = subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script)],
        env={**os.environ, "PYTHONPATH": src_dir},
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        if interrupt_after is not None:
            assert proc.stdout.readline().strip() == "started"
            time.sleep(interrupt_after)
            os.killpg(proc.pid, signal.SIGINT)
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(f"child still running after {timeout} s")
    return proc.returncode, out, err


def test_parallel_search_terminates_when_repeated():
    """A pool search that stops early, run many times in a row, must
    neither hang nor change its witness."""
    code, out, err = _run_child(
        """
        from gbott import CohomRing, StageSpec, TowerSpec, isosearch, search_iso

        isosearch._SEQUENTIAL_S = 0  # every search below runs in the pool
        a = TowerSpec((StageSpec(2), StageSpec(3, ((0,), (0,), (1,)))))
        b = TowerSpec((StageSpec(2), StageSpec(3, ((0,), (0,), (2,)))))
        seq = search_iso(CohomRing(a), CohomRing(b), over_integers=False, bound=4)
        for _ in range(300):
            par = search_iso(
                CohomRing(a), CohomRing(b), over_integers=False, bound=4, workers=2
            )
            assert par == seq, (par, seq)
        print("ok")
        """,
        timeout=120,
    )
    assert code == 0, err
    assert out.strip() == "ok"


def test_pool_without_fork_agrees_with_sequential():
    """Under the spawn start method, whose workers import gbott afresh
    and receive the rings pickled, the pool returns the sequential
    search's answers."""
    code, out, err = _run_child(
        """
        import multiprocessing

        from gbott import CohomRing, StageSpec, TowerSpec, isosearch, search_iso

        if __name__ == "__main__":
            multiprocessing.set_start_method("spawn")
            isosearch._SEQUENTIAL_S = 0  # every search below runs in the pool
            contexts = []
            get_context = multiprocessing.get_context
            multiprocessing.get_context = (
                lambda *method: contexts.append(get_context(*method)) or contexts[-1]
            )
            a = TowerSpec((StageSpec(2), StageSpec(3, ((0,), (0,), (1,)))))
            b = TowerSpec((StageSpec(2), StageSpec(3, ((0,), (0,), (2,)))))
            for over_integers, bound in ((False, 2), (True, 3), (False, 4)):
                seq = search_iso(CohomRing(a), CohomRing(b), over_integers, bound)
                par = search_iso(
                    CohomRing(a), CohomRing(b), over_integers, bound, workers=2
                )
                assert par == seq, (over_integers, bound, par, seq)
                print(seq and seq.matrix)
            assert len(contexts) == 3, contexts
            assert all(c.get_start_method() == "spawn" for c in contexts)
        """,
        timeout=120,
    )
    assert code == 0, err
    assert out.split("\n")[:3] == ["((2, 0), (0, 1))", "None", "((2, 0), (0, 1))"]


def test_interrupted_parallel_search_exits():
    """Ctrl-C in the middle of a long pool search ends the process."""
    code, _, err = _run_child(
        """
        from gbott import CohomRing, StageSpec, TowerSpec, isosearch, product_tower, search_iso

        original = isosearch._parallel_search

        def announced(*args):
            # the interrupt is timed from the hand-over to the pool
            print("started", flush=True)
            return original(*args)

        isosearch._parallel_search = announced
        t = TowerSpec((StageSpec(1), StageSpec(1, ((2,),)), StageSpec(1, ((-2, 1),))))
        src, tgt = CohomRing(t), CohomRing(product_tower((1, 1, 1)))
        search_iso(src, tgt, over_integers=False, bound=8, workers=2)
        """,
        timeout=60,
        interrupt_after=1.0,
    )
    assert code != 0
    assert "KeyboardInterrupt" in err
    # the search had outlasted its budget and was running in the pool
    assert "_parallel_search" in err


# -- oracle ---------------------------------------------------------------------

def test_oracle_examples():
    assert z_trivial_oracle(hirzebruch(4), bound=5)
    assert not z_trivial_oracle(hirzebruch(3), bound=5)
    assert z_trivial_oracle(product_tower((2, 2)), bound=1)


def test_oracle_agrees_with_divisibility_criterion():
    for t in enumerate_towers(2, (1, 2, 3), 2):
        assert z_trivial_oracle(t, bound=6) == is_z_trivial(t), t


def test_oracle_agreement_extends_to_height_three():
    from gbott import StageSpec, TowerSpec

    wide_base = (StageSpec(1), StageSpec(2, ((0,), (0,))))
    cases = [
        product_tower((1, 2, 1)),
        TowerSpec(wide_base + (StageSpec(1, ((2, 0),)),)),  # Z-trivial
        TowerSpec(wide_base + (StageSpec(1, ((1, 0),)),)),  # Q- but not Z-trivial
        TowerSpec(wide_base + (StageSpec(1, ((0, 1),)),)),  # not Q-trivial
    ]
    for t in cases:
        assert z_trivial_oracle(t, bound=3) == is_z_trivial(t), t


def test_oracle_builds_no_chern_classes(monkeypatch):
    """The oracle's rings are only searched: neither builds its Chern
    classes (nor its relations)."""
    from gbott import cohomology

    def refuse(*args):
        raise AssertionError("chern_classes called")

    monkeypatch.setattr(cohomology, "chern_classes", refuse)
    monkeypatch.setattr(cohomology.CohomRing, "relations", property(refuse))
    towers = list(enumerate_towers(2, (1, 2), 1))
    assert [z_trivial_oracle(t, bound=2) for t in towers] == [
        is_z_trivial(t) for t in towers
    ]
