"""Exhaustive enumeration of towers within given bounds, and their
classification.

Towers are generated in a fixed deterministic order: fiber-dimension
tuples run through the product of the sorted allowed dimensions, and for
each tuple the twist entries run through [-bound, bound] in row-major
order across stages.  Re-running an enumeration therefore always yields
the identical stream.

`enumerate_towers` makes that order as a depth-first walk over the
levels: each stage's matrices run through the product of the twist
values, and every one of them is followed by all the towers below it.
A level's `StageSpec` is built once per visit and shared, as the same
object, by every tower under it; only the towers themselves are built
(and validated by `TowerSpec`) one by one.  The walk keeps one pending
iterator and one stage per level, so memory stays O(height) however
large the census.  A consumer can tell by identity which stages changed
since the tower before: `classify` below then compares prefixes at
almost no cost, and `gbott enumerate` remakes a line's text only for
the stages that changed.

`classify` gives each tower of a stream the flags of
`triviality.full_report`.  Stage i is decided in the cohomology of the
height-(i-1) prefix tower (see gbott.triviality), so the classifier
keeps one state per level: the last prefix it saw, its ring's
multiplication table (in block order, see gbott.cohomology) and its
flags so far.  A prefix's table is the one below it extended by the
stage's Chern classes, which the stage's decision has just built; no
`CohomRing` is made.  A tower that shares a prefix with the tower
before it pays only for the stages after that prefix; in the row-major
order above that is usually its last stage alone, decided on the shared
table.  A tower whose prefix already fails is not Q-trivial, Z-trivial
or Chern-trivial, with no further work.  The state is compared stage by
stage with each tower, so the flags do not depend on the order of the
stream, and memory stays O(height).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .cohomology import extend_table
from .errors import GbottError
from .tower import StageSpec, TowerSpec
from .triviality import (
    _assert_candidate_vanishes,
    _check_flags,
    _decide_stage,
    _reorder,
)

FILTER_KEYS = ("q", "z", "chern")


@dataclass(frozen=True)
class EnumerationConfig:
    height: int
    dims: tuple[int, ...]
    coeff_bound: int
    filters: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(sorted(set(int(d) for d in self.dims))))
        object.__setattr__(self, "filters", frozenset(self.filters))
        if self.height < 1:
            raise GbottError("height must be >= 1")
        if not self.dims:
            raise GbottError("dims must be non-empty")
        if any(d < 1 for d in self.dims):
            raise GbottError("fiber dimensions must be >= 1")
        if self.coeff_bound < 0:
            raise GbottError("coeff bound must be >= 0")
        bad = self.filters - set(FILTER_KEYS)
        if bad:
            raise GbottError(f"unknown filters: {sorted(bad)}")


def enumerate_towers(
    height: int, dims: tuple[int, ...], coeff_bound: int
) -> Iterator[TowerSpec]:
    """All towers of this height with stage dimensions drawn from `dims`
    and twist entries in [-coeff_bound, coeff_bound], level by level:
    each stage is built once and shared by every tower below it."""
    dims = tuple(sorted(set(dims)))
    values = range(-coeff_bound, coeff_bound + 1)
    for dim_tuple in itertools.product(dims, repeat=height):
        yield from _towers_of_shape(dim_tuple, values)


def _stages(i: int, n: int, values: range) -> Iterator[StageSpec]:
    """Every stage i of fiber dimension n, its n x (i-1) twist matrix
    running through `values` in row-major order."""
    w = i - 1
    for flat in itertools.product(values, repeat=n * w):
        yield StageSpec(n, tuple(flat[j * w:(j + 1) * w] for j in range(n)))


def _towers_of_shape(dim_tuple: tuple[int, ...], values: range) -> Iterator[TowerSpec]:
    """The towers with these fiber dimensions, depth first: pending[k]
    holds the rest of level k+1's stages, prefix[k] its current stage."""
    h = len(dim_tuple)
    if h == 0:
        yield TowerSpec(())
        return
    prefix: list[StageSpec] = []
    pending = [_stages(1, dim_tuple[0], values)]
    while pending:
        level = len(pending)
        if level == h:
            base = tuple(prefix)
            for stage in pending.pop():
                yield TowerSpec(base + (stage,))
        else:
            stage = next(pending[-1], None)
            if stage is not None:
                prefix.append(stage)
                pending.append(_stages(level + 1, dim_tuple[level], values))
                continue
            pending.pop()
        if prefix:
            prefix.pop()


def expected_count(height: int, dims: tuple[int, ...], coeff_bound: int) -> int:
    """Closed-form size of the enumeration stream."""
    dims = tuple(sorted(set(dims)))
    width = 2 * coeff_bound + 1
    total = 0
    for dim_tuple in itertools.product(dims, repeat=height):
        entries = sum(n * (i - 1) for i, n in enumerate(dim_tuple, start=1))
        total += width ** entries
    return total


@dataclass(frozen=True)
class _Prefix:
    """One level of `classify`'s state: the prefix ending in `stage`,
    and its flags so far (Q-trivial so far iff `table` is not None)."""

    stage: StageSpec | None
    table: tuple | None  # the prefix ring's table, block order; None once a stage fails
    z: bool
    chern: bool


# the height-0 prefix; stage 1's rows are empty, so its decision reads no map
_EMPTY = _Prefix(stage=None, table=(), z=True, chern=True)


def _extend(prev: _Prefix, stages: tuple[StageSpec, ...]) -> _Prefix:
    """The state of the prefix `stages`, from that of stages[:-1]: the
    last stage is decided on the table before it, and a passing stage
    extends that table by the classes the decision built."""
    if prev.table is None:
        return _Prefix(stages[-1], None, False, False)
    prefix = TowerSpec(stages)
    d, chern, classes = _decide_stage(prefix, len(stages), prev.table)
    if not d.passed:
        return _Prefix(stages[-1], None, False, False)
    table = extend_table(prev.table, prefix.dims[:-1], classes)
    if __debug__:
        _assert_candidate_vanishes(table, d)
    return _Prefix(
        stages[-1],
        table,
        prev.z and d.candidate.scale == 1,
        prev.chern and chern,
    )


def _last_stage(t: TowerSpec, prev: _Prefix) -> tuple[bool, bool, bool]:
    """(q, z, chern) of t, given the state of its height-(h-1) prefix."""
    if prev.table is None:
        return False, False, False
    d, chern, classes = _decide_stage(t, t.height, prev.table)
    if not d.passed:
        return False, False, False
    if __debug__:
        _assert_candidate_vanishes(extend_table(prev.table, t.dims[:-1], classes), d)
    _reorder(t)  # raises if the Q-trivial tower resists the decomposition
    return True, prev.z and d.candidate.scale == 1, prev.chern and chern


def classify(
    towers: Iterable[TowerSpec],
) -> Iterator[tuple[TowerSpec, tuple[bool, bool, bool]]]:
    """Yield (tower, (q_trivial, z_trivial, total_chern_trivial)) for
    each tower, with the flags `full_report` gives it, deciding each
    stage once per run of towers that share the prefix up to it."""
    levels = [_EMPTY]  # levels[j]: the last prefix of height j seen
    for t in towers:
        stages = t.stages
        h = len(stages)
        keep = 1
        while keep < min(len(levels), h) and levels[keep].stage == stages[keep - 1]:
            keep += 1
        del levels[keep:]
        while len(levels) < h:
            levels.append(_extend(levels[-1], stages[: len(levels)]))
        flags = _last_stage(t, levels[h - 1])
        _check_flags(*flags)
        yield t, flags
