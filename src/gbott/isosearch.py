"""Graded ring homomorphism checks and bounded isomorphism search.

Both rings here are generated in degree 2, so a candidate map is an
h x h matrix M sending source generator x_j to sum_i M[i][j] X_i (the
image of x_j is column j).  The map extends to a well-defined ring
homomorphism iff the image of every source relation reduces to zero in
the target.  A well-defined degree-preserving map between rings with
equal Poincare ranks is an isomorphism as soon as it is bijective in
degree 2, i.e. det(M) != 0; over the integers the basis change must be
unimodular, det(M) = +-1.

`search_iso` enumerates integer matrices with entries in
[-bound, bound].  Integer entries lose no generality even over Q: any
rational degree-2 iso can be scaled row-wise to a primitive integer
matrix.  Columns are chosen left to right and each entry runs through
0, 1, -1, 2, -2, ..., so the first witness found has small entries and
a ring's identity automorphism is found before its negation.  Source
relation r_j only involves x_1..x_j, so it is checked as soon as column
j is fixed, together with a rank check on the partial matrix; both
prune entire subtrees that cannot contain a witness.  Over Z a column
whose entries have a common factor is skipped, since a unimodular
matrix has only primitive columns.

The search checks a relation through the target ring's multiplication
table (`CohomRing.mult_table`): r_j = x_j * prod_k (l_jk + x_j) is a
product of linear forms, so its image is the unit vector multiplied by
the image of each factor in turn.  The part of each factor that comes
from the earlier columns, the offset (the image of l_jk), is summed
once per search node.  `relation_residues` and `check_hom` keep the
independent path through polynomial substitution and normal forms; the
tests check one against the other.

Whether a column passes r_j depends only on j and the node's offsets,
and not on their order, since the factors commute.  So the columns that
pass are listed once per key (j, offsets as a multiset) and every node
with that key reads the same list (`_PassingColumns`).  A list holds
the passing columns in product order, after the Z gcd filter, and is
filled lazily: a node reads what earlier nodes listed and tests further
columns only when it runs past the end.  Each node therefore meets
exactly the columns it met when it tested all of them itself, in the
same order, and the first witness does not change.  The rank check
stays per node, since it depends on the earlier columns themselves.
A search holds at most `_MEMO_KEYS` keys; a new key past that evicts
the oldest one.

The search is deterministic.  With workers > 1 the first-column order
is cut into contiguous ranges, searched by a process pool and read back
in range order; the first range that holds a witness gives the
sequential search's witness.  Each worker keeps one memo for all the
ranges it searches.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import signal
from dataclasses import dataclass
from fractions import Fraction

from .backend import kernel as _k
from .cohomology import CohomRing, times_form
from .errors import DimensionMismatch, PreconditionError
from .poly import Polynomial
from .tower import TowerSpec, product_tower

Matrix = tuple[tuple[int | Fraction, ...], ...]


@dataclass(frozen=True)
class Degree2Map:
    """x_j -> sum_i matrix[i][j] X_i between two degree-2 spaces."""

    matrix: Matrix

    def __post_init__(self):
        rows = tuple(tuple(x for x in row) for row in self.matrix)
        object.__setattr__(self, "matrix", rows)
        h = len(rows)
        if any(len(row) != h for row in rows):
            raise DimensionMismatch("matrix must be square")

    @property
    def size(self) -> int:
        return len(self.matrix)

    @property
    def is_integral(self) -> bool:
        return all(
            getattr(x, "denominator", 1) == 1 for row in self.matrix for x in row
        )

    def column(self, j: int) -> tuple:
        """Image coefficients of source generator j (1-based)."""
        return tuple(row[j - 1] for row in self.matrix)

    def det(self) -> Fraction:
        return _det(self.matrix)

    def images(self) -> list[dict]:
        """Kernel-level image polynomials, one per source generator."""
        h = self.size
        out = []
        for j in range(h):
            img = {}
            for i in range(h):
                c = self.matrix[i][j]
                if c:
                    e = [0] * h
                    e[i] = 1
                    img[tuple(e)] = c
            out.append(img)
        return out

    def serialize(self) -> str:
        return "\n".join(
            " ".join(str(x) for x in row) for row in self.matrix
        )


def _eliminate(m: list[list[int]]) -> tuple[int, int]:
    """Fraction-free (Bareiss) elimination of the integer matrix m, in
    place; returns (rank, d), where d is the determinant when m is square
    and of full rank.  Every division is exact: after each pivot, an
    entry below it is a minor of the original matrix, and the division
    is by the previous pivot, itself such a minor."""
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    rank, prev, sign = 0, 1, 1
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if m[r][col]), None)
        if pivot is None:
            continue
        if pivot != rank:
            m[rank], m[pivot] = m[pivot], m[rank]
            sign = -sign
        top = m[rank]
        p = top[col]
        for r in range(rank + 1, n_rows):
            row = m[r]
            a = row[col]
            for c in range(col + 1, n_cols):
                row[c] = (p * row[c] - a * top[c]) // prev
        prev = p
        rank += 1
        if rank == n_rows:
            break
    return rank, sign * prev


def _det(rows) -> Fraction:
    """Exact determinant; Fraction entries are brought to a common
    denominator first."""
    m = [[Fraction(x) for x in row] for row in rows]
    den = math.lcm(*(x.denominator for row in m for x in row))
    scaled = [[x.numerator * (den // x.denominator) for x in row] for row in m]
    rank, d = _eliminate(scaled)
    return Fraction(d, den ** len(m)) if rank == len(m) else Fraction(0)


def _rank(columns: list[tuple]) -> int:
    """Rank of a list of integer columns."""
    return _eliminate([list(col) for col in columns])[0]


# -- homomorphism checks -----------------------------------------------------


def relation_residues(
    M: Degree2Map, src: CohomRing, tgt: CohomRing
) -> tuple[Polynomial, ...]:
    """Normal forms in the target of the images of all source relations;
    the map is a well-defined homomorphism iff all are zero."""
    if src.nvars != tgt.nvars or M.size != src.nvars:
        raise DimensionMismatch(
            f"map of size {M.size} between rings with {src.nvars} and "
            f"{tgt.nvars} generators"
        )
    images = M.images()
    out = []
    for rel in src.relations:
        image = _k.psubst(rel._terms, images, tgt.nvars)
        out.append(Polynomial._wrap(tgt._reduce(image), tgt.nvars))
    return tuple(out)


def check_hom(
    M: Degree2Map, src: CohomRing, tgt: CohomRing, over_integers: bool = False
) -> bool:
    """True iff x_j -> column j extends to a ring homomorphism."""
    if over_integers and not M.is_integral:
        raise PreconditionError("integral check requested for a non-integral map")
    return all(res.is_zero for res in relation_residues(M, src, tgt))


def is_iso(
    M: Degree2Map, src: CohomRing, tgt: CohomRing, over_integers: bool = False
) -> bool:
    """True iff the map is a degree-preserving ring isomorphism: a
    well-defined homomorphism, bijective in degree 2 (unimodular when
    over_integers), between rings with equal Poincare ranks."""
    if not check_hom(M, src, tgt, over_integers):
        return False
    if src.poincare_ranks() != tgt.poincare_ranks():
        return False
    d = M.det()
    if over_integers:
        return abs(d) == 1
    return d != 0


# -- bounded search ----------------------------------------------------------


def _entry_values(bound: int) -> tuple[int, ...]:
    vals = [0]
    for v in range(1, bound + 1):
        vals.append(v)
        vals.append(-v)
    return tuple(vals)


def _relation_image(table, col, offsets) -> dict:
    """Image of r_j = x_j * prod_k (l_jk + x_j) as a sparse basis vector,
    when x_j maps to col and l_jk to offsets[k]; empty iff it is zero."""
    vec = times_form(table, {0: 1}, col)
    for off in offsets:
        if not vec:
            break
        vec = times_form(table, vec, [c + o for c, o in zip(col, off)])
    return vec


def _offsets(rows, columns: list[tuple], h: int) -> list[tuple]:
    """Images of the linear forms l_jk = sum_m rows[k][m] x_(m+1)."""
    return [
        tuple(sum(a * columns[m][i] for m, a in enumerate(row)) for i in range(h))
        for row in rows
    ]


# keys the passing-column memo of one search holds at once; the oldest
# key goes when a new one arrives at the cap
_MEMO_KEYS = 4096


class _PassingColumns:
    """The memo of one search: for each key (depth j, offsets as a
    multiset), the columns that pass relation r_j, in product order and
    after the Z gcd filter.  Each list is filled lazily, only as far as
    some node has read it, and shared by every node with its key."""

    def __init__(self, tgt: CohomRing, over_integers: bool, bound: int):
        self.table = tgt.mult_table()
        self.values = _entry_values(bound)
        self.h = tgt.nvars
        self.over_integers = over_integers
        self.lists: dict = {}

    def __call__(self, j: int, offsets: list[tuple]):
        """Iterator over depth j's passing columns for these offsets."""
        key = (j, tuple(sorted(offsets)))
        entry = self.lists.get(key)
        if entry is None:
            if len(self.lists) >= _MEMO_KEYS:
                del self.lists[next(iter(self.lists))]
            entry = self.lists[key] = ([], self._passing(offsets))
        return self._read(*entry)

    @staticmethod
    def _read(found: list, source):
        i = 0
        while True:
            if i == len(found):
                col = next(source, None)
                if col is None:
                    return
                found.append(col)
            yield found[i]
            i += 1

    def passes(self, col: tuple, offsets: list[tuple]) -> bool:
        """Whether col passes the gcd filter and the relation."""
        if self.over_integers and math.gcd(*col) != 1:
            return False  # a unimodular matrix has only primitive columns
        return not _relation_image(self.table, col, offsets)

    def _passing(self, offsets: list[tuple]):
        for col in itertools.product(self.values, repeat=self.h):
            if self.passes(col, offsets):
                yield col


def _search_columns(
    src: CohomRing,
    tgt: CohomRing,
    over_integers: bool,
    bound: int,
    first_column: tuple | None = None,
    passing: _PassingColumns | None = None,
):
    """Depth-first search over columns; returns one witness or None.
    `passing` is the search's memo, made here when not given."""
    h = src.nvars
    if passing is None:
        passing = _PassingColumns(tgt, over_integers, bound)
    stages = src.tower.stages
    columns: list[tuple] = []

    def rec(j: int):
        if j == h:
            matrix = tuple(
                tuple(columns[c][r] for c in range(h)) for r in range(h)
            )
            M = Degree2Map(matrix)
            if over_integers and abs(M.det()) != 1:
                return None
            return M
        offsets = _offsets(stages[j].coeffs, columns, h)
        if j == 0 and first_column is not None:
            passes = passing.passes(first_column, offsets)
            candidates = (first_column,) if passes else ()
        else:
            candidates = passing(j, offsets)
        for col in candidates:
            columns.append(col)
            if _rank(columns) == j + 1:
                found = rec(j + 1)
                if found is not None:
                    return found
            columns.pop()
        return None

    return rec(0)


def search_iso(
    src: CohomRing,
    tgt: CohomRing,
    over_integers: bool,
    bound: int = 10,
    workers: int = 1,
) -> Degree2Map | None:
    """Exhaustive search for a degree-2 isomorphism witness with integer
    entries in [-bound, bound]; returns the first one found, or None.
    The answer does not depend on `workers`.

    A returned map always satisfies is_iso.  None only certifies absence
    within the bound (unless the Poincare ranks already differ, which
    rules out any isomorphism)."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if src.poincare_ranks() != tgt.poincare_ranks():
        return None
    if workers > 1 and src.nvars > 1:
        return _parallel_search(src, tgt, over_integers, bound, workers)
    return _search_columns(src, tgt, over_integers, bound)


# ranges of the first-column order per worker: enough that a range rich
# in surviving columns does not leave the other workers idle for long
_RANGES_PER_WORKER = 16

_WORK = {}


def _init_worker(src, tgt, over_integers, bound, stop):
    # Ctrl-C reaches the whole process group.  A worker killed by it
    # would lose its range and leave the pool waiting for it forever, so
    # workers ignore it and the parent stops them through `stop`.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    _WORK["args"] = (src, tgt, over_integers, bound)
    _WORK["stop"] = stop
    # one memo per worker, shared by all the ranges it searches
    _WORK["passing"] = _PassingColumns(tgt, over_integers, bound)


def _run_chunk(chunk):
    """Search first columns start..end-1 of the first-column order, in
    order; the first witness, or None.  Gives up between first columns
    once the parent has its answer."""
    src, tgt, over_integers, bound = _WORK["args"]
    start, end = chunk
    order = itertools.product(_entry_values(bound), repeat=src.nvars)
    for col in itertools.islice(order, start, end):
        if _WORK["stop"].is_set():
            return None
        found = _search_columns(
            src, tgt, over_integers, bound, first_column=col, passing=_WORK["passing"]
        )
        if found is not None:
            return found
    return None


def _parallel_search(src, tgt, over_integers, bound, workers):
    total = (2 * bound + 1) ** src.nvars
    size = -(-total // (workers * _RANGES_PER_WORKER))
    ranges = ((s, min(s + size, total)) for s in range(0, total, size))
    tgt.mult_table()  # built once here; the forked workers inherit it
    ctx = multiprocessing.get_context("fork")
    stop = ctx.Event()
    pool = ctx.Pool(
        processes=workers,
        initializer=_init_worker,
        initargs=(src, tgt, over_integers, bound, stop),
    )
    try:
        # results arrive in range order, so the first witness is the
        # one the sequential search returns
        for result in pool.imap(_run_chunk, ranges):
            if result is not None:
                return result
        return None
    finally:
        # every range still queued or running returns at its next first
        # column, so the join waits for at most one first column's
        # subtree per worker
        stop.set()
        pool.close()
        pool.join()


# -- oracle ------------------------------------------------------------------


def z_trivial_oracle(t: TowerSpec, bound: int = 6, workers: int = 1) -> bool:
    """Brute-force integral triviality: search for a unimodular degree-2
    isomorphism from the same-dimensions product ring onto the tower's
    ring.  A witness proves Z-triviality; exhaustion within the bound is
    strong evidence (not proof) of its absence."""
    tgt = CohomRing(t)
    src = CohomRing(product_tower(t.dims))
    return search_iso(src, tgt, over_integers=True, bound=bound, workers=workers) is not None
