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
from the earlier columns is summed once per search node.
`relation_residues` and `check_hom` keep the independent path through
polynomial substitution and normal forms; the tests check one against
the other.

The search is deterministic.  With workers > 1 the first-column order
is cut into contiguous ranges, searched by a process pool and read back
in range order; the first range that holds a witness gives the
sequential search's witness.
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


def _det(rows) -> Fraction:
    """Exact determinant by Gaussian elimination over Fraction."""
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = 1 / m[col][col]
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] -= f * m[col][c]
    return det


def _rank(columns: list[tuple], h: int) -> int:
    m = [[Fraction(col[i]) for col in columns] for i in range(h)]
    rank = 0
    for col in range(len(columns)):
        pivot = next((r for r in range(rank, h) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        for r in range(rank + 1, h):
            if m[r][col]:
                f = m[r][col] * inv
                for c in range(col, len(columns)):
                    m[r][c] -= f * m[rank][c]
        rank += 1
    return rank


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


def _search_columns(
    src: CohomRing,
    tgt: CohomRing,
    over_integers: bool,
    bound: int,
    first_column: tuple | None = None,
):
    """Depth-first search over columns; returns one witness or None."""
    h = src.nvars
    values = _entry_values(bound)
    table = tgt.mult_table()
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
        candidates = (first_column,) if (j == 0 and first_column is not None) else (
            itertools.product(values, repeat=h)
        )
        for col in candidates:
            if over_integers and math.gcd(*col) != 1:
                continue  # a unimodular matrix has only primitive columns
            columns.append(col)
            # relation first: it rejects almost every column, so the
            # rank elimination only runs on the few survivors
            if not _relation_image(table, col, offsets) and _rank(columns, h) == j + 1:
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
        found = _search_columns(src, tgt, over_integers, bound, first_column=col)
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
