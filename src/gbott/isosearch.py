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
table (`CohomRing.block_table`): r_j = x_j * prod_k (l_jk + x_j) is a
product of linear forms, so its image is the column's own vector (the
image of x_j) multiplied by the image of each further factor in turn.
The part of each factor that comes from the earlier columns, the offset
(the image of l_jk), is summed once per search node.  `relation_residues`
and `check_hom` take the same path (`_relation_images`), the former
only to show the images as polynomials; so `check_hom` and `is_iso`
load no polynomial code.  The tests check the path against polynomial
substitution and rewriting in tests/oracle_impls.py.

Whether a column passes r_j depends only on the node's offsets, and not
on their order, since the factors commute; the depth j enters only
through them (their number is n_j).  So the columns that pass are listed
once per key (the offsets as a multiset), and every node with that key,
at any depth, reads the same list (`_PassingColumns`).  A list holds the
passing columns in product order, after the Z gcd filter, and is filled
lazily: a node reads what earlier nodes listed and tests further
columns only when it runs past the end.  Each node therefore meets
exactly the columns it met when it tested all of them itself, in the
same order, and the first witness does not change.  The rank check
stays per node, since it depends on the earlier columns themselves.
A search holds at most `_MEMO_KEYS` keys; a new key past that evicts
the oldest one.

A list is filled through the target's prefix rings.  Setting
X_(k+1)..X_h to 0 is a ring map from the target R onto the ring R_k of
its height-k prefix, since the later relations lie in (X_m); in block
order R_k's basis is the first rank R_k indices of R's, and X_1..X_k
keep them there.  So the image of r_j in R_k under a column's first k
entries is `_relation_image` on the same table with the column and the
offsets cut after k entries, and when it is non-zero no column with
those first k entries passes.  The column's coordinates are walked in
product order, in blocks cut at each level k < h where R_k can hold the
relation (its top degree n_1 + ... + n_k is at least n_j + 1; below
that every image in R_k vanishes), and a prefix whose image fails is
skipped with all its extensions.  The walk yields the passing columns
in the order the whole product would, so every list, and with it the
first witness, is the one that testing every column gives.  With no
such level the walk is a single product.  Over Z the gcd filter is
applied to whole columns only.

The search is deterministic.  It runs in this process, first column by
first column.  With workers > 1, a search still running after
`_SEQUENTIAL_S` seconds hands over at its next first column k: the
rest of the first-column order, k onwards, is cut into contiguous
ranges, searched by a process pool and read back in range order.  A
short search thus never pays for starting a pool.  The witness does not
change: first columns 0..k-1 hold none, and the first range after them
that holds a witness gives the sequential search's witness.  Each
worker keeps one memo for all the ranges it searches.
"""

from __future__ import annotations

import itertools
import math
import time

from ._base import Frozen, _set
from .cohomology import CohomRing, times_form
from .errors import DimensionMismatch, PreconditionError
from .tower import TowerSpec, product_tower


class Degree2Map(Frozen):
    """x_j -> sum_i matrix[i][j] X_i between two degree-2 spaces."""

    __slots__ = ("matrix",)

    matrix: tuple[tuple[int | Fraction, ...], ...]

    def __init__(self, matrix):
        rows = tuple(tuple(row) for row in matrix)
        h = len(rows)
        if any(len(row) != h for row in rows):
            raise DimensionMismatch("matrix must be square")
        _set(self, "matrix", rows)

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

    def det(self) -> int | Fraction:
        """The exact determinant: an int when every entry is an int, a
        Fraction otherwise."""
        return _det(self.matrix)

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


def _det(rows) -> int | Fraction:
    """Exact determinant.  An integer matrix is eliminated as it is and
    gives an int; a matrix with Fraction entries is brought to a common
    denominator first and gives a Fraction."""
    if all(isinstance(x, int) for row in rows for x in row):
        rank, d = _eliminate([list(row) for row in rows])
        return d if rank == len(rows) else 0
    from fractions import Fraction  # only a rational matrix needs it

    m = [[Fraction(x) for x in row] for row in rows]
    den = math.lcm(*(x.denominator for row in m for x in row))
    scaled = [[x.numerator * (den // x.denominator) for x in row] for row in m]
    rank, d = _eliminate(scaled)
    return Fraction(d, den ** len(m)) if rank == len(m) else Fraction(0)


def _rank(columns: list[tuple]) -> int:
    """Rank of a list of integer columns."""
    return _eliminate([list(col) for col in columns])[0]


# -- homomorphism checks -----------------------------------------------------


def _relation_images(M: Degree2Map, src: CohomRing, tgt: CohomRing) -> list[dict]:
    """The images of all source relations as sparse block-order vectors
    of the target, through its multiplication table."""
    if src.nvars != tgt.nvars or M.size != src.nvars:
        raise DimensionMismatch(
            f"map of size {M.size} between rings with {src.nvars} and "
            f"{tgt.nvars} generators"
        )
    table = tgt.block_table()
    columns = [M.column(j) for j in range(1, M.size + 1)]
    return [
        _relation_image(table, columns[j], _offsets(stage.coeffs, columns[:j], M.size))
        for j, stage in enumerate(src.tower.stages)
    ]


def relation_residues(
    M: Degree2Map, src: CohomRing, tgt: CohomRing
) -> tuple[Polynomial, ...]:
    """Normal forms in the target of the images of all source relations;
    the map is a well-defined homomorphism iff all are zero."""
    return tuple(tgt.polynomial(vec) for vec in _relation_images(M, src, tgt))


def check_hom(
    M: Degree2Map, src: CohomRing, tgt: CohomRing, over_integers: bool = False
) -> bool:
    """True iff x_j -> column j extends to a ring homomorphism: every
    relation's image vanishes, with no polynomial built."""
    if over_integers and not M.is_integral:
        raise PreconditionError("integral check requested for a non-integral map")
    return not any(_relation_images(M, src, tgt))


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
    when x_j maps to col and l_jk to offsets[k]; empty iff it is zero.
    The image of x_j is col's own vector: X_i maps the unit to the basis
    monomial x_i."""
    vec = {table[i][0][0][0]: c for i, c in enumerate(col) if c}
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
    """The memo of one search: for each key (offsets as a multiset), the
    columns that pass the relation x_j * prod_k (l_jk + x_j), in product
    order and after the Z gcd filter.  The image depends on the depth j
    only through the offsets, so depths with equal offsets share a list.
    Each list is filled lazily, only as far as some node has read it,
    and shared by every node with its key."""

    def __init__(self, tgt: CohomRing, over_integers: bool, bound: int):
        self.table = tgt.block_table()
        self.values = _entry_values(bound)
        self.h = tgt.nvars
        self.over_integers = over_integers
        self.lists: dict = {}
        # tops[k]: the top degree n_1 + ... + n_k of the prefix ring R_k
        self.tops = tuple(itertools.accumulate(tgt.caps, initial=0))

    def __call__(self, offsets: list[tuple]):
        """Iterator over the passing columns for these offsets."""
        key = tuple(sorted(offsets))
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

    def _passing(self, offsets: list[tuple]):
        """The columns that pass the gcd filter and the relation, in
        product order: the coordinates in blocks ending at the levels in
        `cuts`, a prefix whose image in the prefix ring fails skipped with
        all its extensions (see the module docstring)."""
        h, table, values = self.h, self.table, self.values
        degree = len(offsets) + 1
        cuts = [k for k in range(1, h) if self.tops[k] >= degree] + [h]

        def walk(prefix: tuple, level: int):
            hi = cuts[level]
            last = hi == h
            cut = [off[:hi] for off in offsets]
            for block in itertools.product(values, repeat=hi - len(prefix)):
                col = prefix + block
                if last and self.over_integers and math.gcd(*col) != 1:
                    continue  # a unimodular matrix has only primitive columns
                if not _relation_image(table, col, cut):
                    if last:
                        yield col
                    else:
                        yield from walk(col, level + 1)

        return walk((), 0)


def _position(col: tuple, bound: int) -> int:
    """Index of col in the first-column order, the product order of
    `_entry_values(bound)`."""
    k = 0
    for c in col:
        k = k * (2 * bound + 1) + (2 * c - 1 if c > 0 else -2 * c)
    return k


def _search_columns(
    src: CohomRing,
    tgt: CohomRing,
    over_integers: bool,
    bound: int,
    passing: _PassingColumns,
    start: int,
    end: int,
    stop,
):
    """Depth-first search over the matrices whose first column is one of
    first columns start..end-1 of the first-column order, taken in that
    order; `passing` is the search's memo.  Returns (witness, k): the
    first witness, or None with k == end when the range holds none, or
    None with k < end when `stop()` held before first column k, which is
    left unsearched."""
    h = src.nvars
    stages = src.tower.stages
    columns: list[tuple] = []
    resume = end

    def first_columns(candidates):
        # depth 0 reads the memo like every other depth, and keeps the
        # passing columns that lie in the range
        nonlocal resume
        for col in candidates:
            k = _position(col, bound)
            if k < start:
                continue
            if k >= end:
                return
            if stop():
                resume = k
                return
            yield col

    def rec(j: int):
        if j == h:
            matrix = tuple(
                tuple(columns[c][r] for c in range(h)) for r in range(h)
            )
            M = Degree2Map(matrix)
            if over_integers and abs(M.det()) != 1:
                return None
            return M
        candidates = passing(_offsets(stages[j].coeffs, columns, h))
        if j == 0:
            candidates = first_columns(candidates)
        for col in candidates:
            columns.append(col)
            if _rank(columns) == j + 1:
                found = rec(j + 1)
                if found is not None:
                    return found
            columns.pop()
        return None

    return rec(0), resume


# seconds a search with workers > 1 runs in this process before it hands
# its remaining first columns to a pool.  Starting a pool from the
# command line costs about 0.06 s (importing multiprocessing, forking),
# and its workers fill their memos afresh.  On a 2-CPU machine the
# twisted height-3 pair of the interrupt test took 0.45 s sequentially
# at bound 3, and no less with 2 workers; 1.5 s at bound 4 (x1.1-1.7
# with 2 workers); 5 s at bound 5 (x2).  So a search that ends within
# the budget gains nothing from a pool, and one that outlasts it loses
# at most about half the budget to having started alone.
_SEQUENTIAL_S = 0.5


def search_iso(
    src: CohomRing,
    tgt: CohomRing,
    over_integers: bool,
    bound: int = 10,
    workers: int = 1,
) -> Degree2Map | None:
    """Exhaustive search for a degree-2 isomorphism witness with integer
    entries in [-bound, bound]; returns the first one found, or None.

    The search runs in this process.  With workers > 1, once it has run
    for `_SEQUENTIAL_S` seconds it hands the first columns it has not
    reached to a pool of that many processes, at the next first column.
    The answer does not depend on `workers` or on the clock: the first
    columns already searched hold no witness, and the pool returns the
    first witness of the rest in first-column order.

    A returned map always satisfies is_iso.  None only certifies absence
    within the bound (unless the Poincare ranks already differ, which
    rules out any isomorphism)."""
    if bound < 1:
        raise ValueError("bound must be >= 1")
    if src.poincare_ranks() != tgt.poincare_ranks():
        return None
    total = (2 * bound + 1) ** src.nvars
    deadline = time.perf_counter() + _SEQUENTIAL_S if workers > 1 else math.inf
    found, k = _search_columns(
        src,
        tgt,
        over_integers,
        bound,
        _PassingColumns(tgt, over_integers, bound),
        0,
        total,
        lambda: time.perf_counter() >= deadline,
    )
    if found is None and k < total:
        return _parallel_search(src, tgt, over_integers, bound, workers, k)
    return found


# ranges of the first-column order per worker: enough that a range rich
# in surviving columns does not leave the other workers idle for long
_RANGES_PER_WORKER = 16

_WORK = {}


def _init_worker(src, tgt, over_integers, bound, stop):
    import signal  # here, so that a search without a pool never loads it

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
    start, end = chunk
    found, _ = _search_columns(
        *_WORK["args"], _WORK["passing"], start, end, _WORK["stop"].is_set
    )
    return found


def _parallel_search(src, tgt, over_integers, bound, workers, start):
    """Search first columns start.. of the first-column order with a
    pool of `workers` processes; the first witness in that order, or
    None."""
    import multiprocessing  # here, so that a search without a pool never loads it

    total = (2 * bound + 1) ** src.nvars
    size = -(-(total - start) // (workers * _RANGES_PER_WORKER))
    ranges = ((s, min(s + size, total)) for s in range(start, total, size))
    # the platform's default start method; tgt is pickled into each
    # worker with the table the in-process part of the search has built
    ctx = multiprocessing.get_context()
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
