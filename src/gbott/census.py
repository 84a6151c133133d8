"""Exhaustive enumeration of towers within given bounds, and their
classification.

Towers are generated in a fixed deterministic order: fiber-dimension
tuples run through the product of the sorted allowed dimensions, and for
each tuple the twist entries run through [-bound, bound] in row-major
order across stages.  Re-running an enumeration therefore always yields
the identical stream.

`enumerate_towers` makes that order as a recursive depth-first walk
over the levels, one shape at a time: each stage's matrices run
through the product of the twist values, and every one of them is
followed by all the towers that extend it.  The stages of level i and
fiber dimension n are the same under every prefix and in every shape,
so one census builds each of them once, as one `StageSpec` that every
tower holding it shares, while they fit under one cap (`_MEMO_CAP`
stages, summed over all levels and dimensions); a level that does not
fit is built afresh under each prefix and shared by the towers that
extend that visit.  Only the towers themselves are built (and
validated by `TowerSpec`) one by one.  The walk holds one generator
frame and one pass over a level's stages per level above the last, so
memory stays O(height) plus the cap however large the census.  A
consumer can tell by identity which stages changed since the tower
before: `classify` below matches prefixes that way, and `gbott
enumerate` keeps a stage's text by identity, so it makes the text of
each kept stage once.

`classify` gives each tower of a stream the flags of
`triviality.full_report`.  Stage i is decided in the cohomology of the
height-(i-1) prefix tower, by the prefix walk of gbott.triviality, so
the classifier keeps the walk's state for one prefix per level: the
three flags so far of the last prefix of that height it saw, and its
closed-form context (the row of each line stage, a mark for each wide
one).  A tower that shares a prefix with the tower before it pays only
for the stages after that prefix; in the row-major order above that is
usually its last stage alone.  A tower whose kept prefix already fails
is not Q-trivial, Z-trivial or Chern-trivial, and gets those flags with
no walk at all, and every stage over a Q-trivial prefix is decided in
closed form, in integers, with no ring (see gbott.triviality).

A prefix is matched by the identity of its stages, not by their
equality: a tower keeps the state of level j only while its first j
stages are the very objects of the tower before.  Identical stages are
equal, so a match is never wrong, and a stream whose equal stages are
distinct objects (towers built one by one) is only decided again; the
flags do not depend on the order of the stream.

Over a Q-trivial prefix a stage's decision depends on the prefix only
through its closed-form context, and the prefixes that differ only in
a wide stage's rows share one.  So `classify` also keeps, for the last
stage of a tower, the stage's own part of the flags (whether it
passes, whether its scale is 1, whether its Chern part is zero) in a
memo keyed by the stage's identity, and combines it with each prefix's
flags.  The memo holds the stages it keys, so that no id is reused
while it lives; it is cleared whenever the context of the last prefix
changes, and holds at most `_MEMO_CAP` stages, so memory stays
O(height) plus the cap.  `enumerate_towers` shares stage 1 between the
shapes with the same n_1, so the 39 000 towers of height 3, dims
{1, 2}, twists in [-2, 2] take 5 322 closed-form decisions of a stage:
2 of stage 1, one per n_1, 120 of stage 2, and 5 200 of stage 3, one
per stage object under each run of equal contexts, where the 20 800
towers over a Q-trivial prefix used to take one each.  Neither
`gbott.cohomology` nor `gbott.poly` is loaded.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Iterator

from ._base import FILTER_KEYS, Frozen, _set
from .errors import GbottError
from .tower import StageSpec, TowerSpec


class EnumerationConfig(Frozen):
    """The bounds of a census: its height, the allowed fiber dimensions,
    the twist bound, and the flags (`FILTER_KEYS`) a tower must have to
    be emitted."""

    __slots__ = ("height", "dims", "coeff_bound", "filters")

    height: int
    dims: tuple[int, ...]
    coeff_bound: int
    filters: frozenset[str]

    def __init__(
        self,
        height: int,
        dims: Iterable[int],
        coeff_bound: int,
        filters: Iterable[str] = frozenset(),
    ):
        dims = tuple(sorted(set(int(d) for d in dims)))
        filters = frozenset(filters)
        if height < 1:
            raise GbottError("height must be >= 1")
        if not dims:
            raise GbottError("dims must be non-empty")
        if any(d < 1 for d in dims):
            raise GbottError("fiber dimensions must be >= 1")
        if coeff_bound < 0:
            raise GbottError("coeff bound must be >= 0")
        bad = filters - set(FILTER_KEYS)
        if bad:
            raise GbottError(f"unknown filters: {sorted(bad)}")
        _set(self, "height", height)
        _set(self, "dims", dims)
        _set(self, "coeff_bound", coeff_bound)
        _set(self, "filters", filters)


# the most stages one census keeps for reuse, summed over every level
# and fiber dimension; a level that would push the memo past it is
# streamed afresh under each prefix.  `classify` keeps the decisions of
# at most this many last stages, and `gbott enumerate` the text of at
# most this many stages.
_MEMO_CAP = 1 << 16


def enumerate_towers(
    height: int, dims: tuple[int, ...], coeff_bound: int
) -> Iterator[TowerSpec]:
    """All towers of this height with stage dimensions drawn from `dims`
    and twist entries in [-coeff_bound, coeff_bound], level by level:
    each stage is built once and shared by every tower below it."""
    dims = tuple(sorted(set(dims)))
    values = range(-coeff_bound, coeff_bound + 1)
    memo: dict[tuple[int, int], tuple[StageSpec, ...] | None] = {}
    for dim_tuple in itertools.product(dims, repeat=height):
        yield from _towers_of_shape(dim_tuple, values, (), memo)


def _stages(i: int, n: int, values: range) -> Iterator[StageSpec]:
    """Every stage i of fiber dimension n, its n x (i-1) twist matrix
    running through `values` in row-major order."""
    w = i - 1
    for flat in itertools.product(values, repeat=n * w):
        yield StageSpec(n, tuple(flat[j * w:(j + 1) * w] for j in range(n)))


def _level(i: int, n: int, values: range, memo: dict) -> Iterable[StageSpec]:
    """Level i's stages of fiber dimension n: the census's kept tuple
    of them, made on first use if it fits under `_MEMO_CAP`, or else a
    fresh stream (`memo` then holds None for the key)."""
    key = (i, n)
    if key not in memo:
        kept = sum(len(level) for level in memo.values() if level is not None)
        fits = kept + len(values) ** (n * (i - 1)) <= _MEMO_CAP
        memo[key] = tuple(_stages(i, n, values)) if fits else None
    level = memo[key]
    return _stages(i, n, values) if level is None else level


def _towers_of_shape(
    dim_tuple: tuple[int, ...],
    values: range,
    prefix: tuple[StageSpec, ...],
    memo: dict,
) -> Iterator[TowerSpec]:
    """The towers with these fiber dimensions whose first stages are
    `prefix`, depth first: one frame per level above the last, each
    with its one pass over that level's stages."""
    i = len(prefix)
    if i == len(dim_tuple):  # the height-0 tower
        yield TowerSpec(prefix)
        return
    stages = _level(i + 1, dim_tuple[i], values, memo)
    if i + 1 < len(dim_tuple):
        for stage in stages:
            yield from _towers_of_shape(dim_tuple, values, prefix + (stage,), memo)
    else:
        for stage in stages:
            yield TowerSpec(prefix + (stage,))


def expected_count(height: int, dims: tuple[int, ...], coeff_bound: int) -> int:
    """Closed-form size of the enumeration stream."""
    dims = tuple(sorted(set(dims)))
    width = 2 * coeff_bound + 1
    total = 0
    for dim_tuple in itertools.product(dims, repeat=height):
        entries = sum(n * (i - 1) for i, n in enumerate(dim_tuple, start=1))
        total += width ** entries
    return total


def classify(
    towers: Iterable[TowerSpec],
) -> Iterator[tuple[TowerSpec, tuple[bool, bool, bool]]]:
    """Yield (tower, (q_trivial, z_trivial, total_chern_trivial)) for
    each tower, with the flags `full_report` gives it, deciding each
    stage below the last once per run of towers that share the stage
    objects up to it, and each last stage once per run of prefixes with
    an equal closed-form context."""
    # here, so that a program that only generates towers loads no decider
    from .triviality import _FAILED, _Q, _START, _decide, _walk

    levels = [_START]  # levels[j]: the state of the last prefix of height j
    seen: tuple[StageSpec, ...] = ()  # the stages of those prefixes
    # id(stage) -> its part of the flags, for the last stages decided
    # under `context`; `held` holds those stages, so that no id is
    # reused while it is a key
    memo: dict[int, tuple[bool, bool, bool]] = {}
    held: list[StageSpec] = []
    context = None
    cap = _MEMO_CAP

    def decide_last(t: TowerSpec, i: int) -> tuple[bool, bool, bool]:
        nonlocal context
        prefix_context = levels[i - 1][1]
        if prefix_context is not context:
            if prefix_context != context:
                memo.clear()
                held.clear()
            context = prefix_context
        stage = t.stages[i - 1]
        own = memo.get(id(stage))
        if own is None:
            own = _decide(t, i)
            if len(memo) < cap:
                memo[id(stage)] = own
                held.append(stage)
        return own

    for t in towers:
        stages = t.stages
        bound = min(len(levels), len(stages))
        keep = 1
        while keep < bound and seen[keep - 1] is stages[keep - 1]:
            keep += 1
        del levels[keep:]
        seen = stages
        if levels[-1][0][_Q]:
            yield t, _walk(t, levels, decide_last)
        else:  # a kept prefix that fails fails the tower
            yield t, _FAILED
