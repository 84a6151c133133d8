"""Tower data model: stage dimensions and twist coefficients.

A generalized Bott tower of height h is encoded by, for each stage
i = 1..h, a fiber dimension n_i >= 1 and an integer matrix of twist
coefficients a^i_{jk} with rows j = 1..n_i and columns k = 1..i-1
(stage 1 has an n_1 x 0 matrix).  Row j of stage i gives the first
Chern class sum_k a^i_{jk} x_k of the j-th line-bundle summand of the
stage bundle.

Stage indices are 1-based throughout, matching the usual subscripts.

Text file format (UTF-8, one tower per file; a leading byte-order mark
is ignored):

    stage n=<int>        one header per stage, in order
    <i-1 integers>       then exactly n_i coefficient rows for stage i
                         (stage 1 has no rows)

"#" starts a comment; blank lines are ignored.  Example:

    stage n=2
    stage n=3
    0
    0
    2
"""

from __future__ import annotations

from collections.abc import Iterable

from ._base import Frozen, _set
from .errors import InadmissiblePermutation, TowerFormatError, TowerValidationError


class StageSpec(Frozen):
    """One stage: fiber dimension n_i and its n_i x (i-1) twist matrix.

    A stage checks its own shape once, when it is made: `_width` is the
    common length of its rows when it has a positive fiber dimension
    and that many rows, all of one length, and None otherwise.  It is
    derived from the fields and is not one of them."""

    __slots__ = ("fiber_dim", "coeffs", "_width")
    _FIELDS = ("fiber_dim", "coeffs")

    fiber_dim: int
    coeffs: tuple[tuple[int, ...], ...]

    def __init__(self, fiber_dim: int, coeffs: Iterable[Iterable[int]] = ()):
        n = int(fiber_dim)
        coeffs = tuple(tuple(int(x) for x in row) for row in coeffs)
        widths = {len(row) for row in coeffs}
        _set(self, "fiber_dim", n)
        _set(self, "coeffs", coeffs)
        _set(
            self,
            "_width",
            widths.pop() if n >= 1 and len(coeffs) == n and len(widths) == 1 else None,
        )


class TowerSpec(Frozen):
    """An ordered list of stages; validated on construction."""

    __slots__ = ("stages",)

    stages: tuple[StageSpec, ...]

    def __init__(self, stages: Iterable[StageSpec]):
        stages = tuple(stages)
        for s in stages:
            if not isinstance(s, StageSpec):  # (n, rows) tuples among them
                stages = tuple(
                    s if isinstance(s, StageSpec) else StageSpec(*s) for s in stages
                )
                break
        # Stage 1 has an n_1 x 0 matrix; allow it to be written with no
        # rows at all and canonicalize to n_1 empty rows.
        if stages and stages[0].coeffs == () and stages[0].fiber_dim > 0:
            first = StageSpec(stages[0].fiber_dim, ((),) * stages[0].fiber_dim)
            stages = (first,) + stages[1:]
        _set(self, "stages", stages)
        self.validate()

    def validate(self) -> None:
        """Raise TowerValidationError unless every stage has a positive
        fiber dimension and a coefficient matrix of shape n_i x (i-1).

        Each stage checked its own shape when it was made, so this
        compares one width per stage with i-1; the rows are walked
        only to word the error, which names the stage (`stage=`) and,
        for a row of the wrong length, the row."""
        for i, stage in enumerate(self.stages):
            if stage._width != i:
                raise _shape_error(stage, i + 1)

    @property
    def height(self) -> int:
        return len(self.stages)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(s.fiber_dim for s in self.stages)

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def coefficient(self, i: int, j: int, k: int) -> int:
        """a^i_{jk}, all indices 1-based."""
        return self.stages[i - 1].coeffs[j - 1][k - 1]

    def __str__(self) -> str:
        return serialize_tower(self)


def _shape_error(stage: StageSpec, i: int) -> TowerValidationError:
    """The error for stage i of a tower, whose shape is not n_i x (i-1)."""
    if stage.fiber_dim < 1:
        return TowerValidationError(
            f"stage {i}: fiber dimension must be >= 1, got {stage.fiber_dim}",
            stage=i,
        )
    if len(stage.coeffs) != stage.fiber_dim:
        return TowerValidationError(
            f"stage {i}: expected {stage.fiber_dim} coefficient rows, "
            f"got {len(stage.coeffs)}",
            stage=i,
        )
    j, row = next(
        (j, row) for j, row in enumerate(stage.coeffs, start=1) if len(row) != i - 1
    )
    return TowerValidationError(
        f"stage {i}, row {j}: expected {i - 1} entries, got {len(row)}",
        stage=i,
    )


def product_tower(dims: Iterable[int]) -> TowerSpec:
    """The tower of the product of projective spaces with these fiber
    dimensions: every twist coefficient is zero."""
    dims = tuple(dims)
    return TowerSpec(
        tuple(
            StageSpec(n, tuple(((0,) * i) for _ in range(n)))
            for i, n in enumerate(dims)
        )
    )


class Permutation(Frozen):
    """A bijection on {1..h}; images[i-1] is the image of i."""

    __slots__ = ("images",)

    images: tuple[int, ...]

    def __init__(self, images: Iterable[int]):
        images = tuple(int(x) for x in images)
        if sorted(images) != list(range(1, len(images) + 1)):
            raise ValueError(f"not a permutation of 1..{len(images)}: {images}")
        _set(self, "images", images)

    @classmethod
    def identity(cls, h: int) -> "Permutation":
        return cls(tuple(range(1, h + 1)))

    @classmethod
    def transposition(cls, h: int, a: int, b: int) -> "Permutation":
        images = list(range(1, h + 1))
        images[a - 1], images[b - 1] = b, a
        return cls(tuple(images))

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Permutation(tuple(inv))

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self.compose(other))(i) = self(other(i))."""
        if self.size != other.size:
            raise ValueError("size mismatch")
        return Permutation(tuple(self(other(i)) for i in range(1, self.size + 1)))

    @property
    def is_identity(self) -> bool:
        return all(img == i for i, img in enumerate(self.images, start=1))


def vector_matrix_transpose(t: TowerSpec) -> tuple[tuple[int, ...], ...]:
    """The tower's block lower-triangular integer matrix, flattened.

    Shape (sum n_i) x h: block-row i carries an all-ones column in
    block-column i, the twist column a^i_{.k} in each block-column
    k < i, and zeros above the diagonal.
    """
    h = t.height
    rows = []
    for i, stage in enumerate(t.stages, start=1):
        for j in range(stage.fiber_dim):
            row = [0] * h
            for k in range(i - 1):
                row[k] = stage.coeffs[j][k]
            row[i - 1] = 1
            rows.append(tuple(row))
    return tuple(rows)


def reduced_characteristic_matrix(t: TowerSpec) -> tuple[tuple[int, ...], ...]:
    """The negated block matrix, presenting the tower as a quasitoric
    manifold over a product of simplices."""
    return tuple(tuple(-x for x in row) for row in vector_matrix_transpose(t))


def stage_line(stage: StageSpec, i: int, h: int) -> str:
    """Stage i's block-row of `matrix_line` in a height-h tower: each
    row's twists, then 1 in column i and zeros up to column h."""
    tail = (1,) + (0,) * (h - i)
    return "/".join(" ".join(map(str, row + tail)) for row in stage.coeffs)


def matrix_line(t: TowerSpec) -> str:
    """One-line canonical form of the block matrix: rows joined by '/',
    entries by spaces.  Distinct towers give distinct lines."""
    h = t.height
    return "/".join(stage_line(s, i, h) for i, s in enumerate(t.stages, start=1))


def permute(t: TowerSpec, s: Permutation) -> TowerSpec:
    """Conjugate the tower by a permutation of its stages.

    Old stage i becomes new stage s(i); twist entries move with both
    their row stage and their column stage.  The permutation is
    admissible only if no stage ends up twisted over a later stage,
    i.e. s(k) < s(i) whenever stage i has a nonzero column k.  The
    result encodes an equivalent tower.
    """
    if s.size != t.height:
        raise ValueError(f"permutation of size {s.size} for height {t.height}")
    for i, stage in enumerate(t.stages, start=1):
        for k in range(1, i):
            if any(row[k - 1] != 0 for row in stage.coeffs) and s(k) > s(i):
                raise InadmissiblePermutation(
                    f"stage {i} is twisted over stage {k}, but the permutation "
                    f"sends {k} after {i} ({s(k)} > {s(i)})"
                )
    inv = s.inverse()
    new_stages = []
    for new_i in range(1, t.height + 1):
        old_i = inv(new_i)
        old_stage = t.stages[old_i - 1]
        rows = []
        for j in range(old_stage.fiber_dim):
            row = []
            for new_k in range(1, new_i):
                old_k = inv(new_k)
                row.append(
                    old_stage.coeffs[j][old_k - 1] if old_k < old_i else 0
                )
            rows.append(tuple(row))
        new_stages.append(StageSpec(old_stage.fiber_dim, tuple(rows)))
    return TowerSpec(tuple(new_stages))


# -- text format -----------------------------------------------------------


def serialize_tower(t: TowerSpec) -> str:
    """Render the tower file format (round-trips through parse_tower)."""
    lines = []
    for i, stage in enumerate(t.stages, start=1):
        lines.append(f"stage n={stage.fiber_dim}")
        if i > 1:
            for row in stage.coeffs:
                lines.append(" ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


def parse_tower(text: str) -> TowerSpec:
    """Parse the tower file format; errors carry 1-based line numbers."""
    stages: list[tuple[int, list[tuple[int, ...]], int]] = []  # (n, rows, line)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("stage"):
            rest = line[len("stage"):].strip()
            if not rest.startswith("n="):
                raise TowerFormatError("expected 'stage n=<int>'", line=lineno)
            try:
                n = int(rest[2:].strip())
            except ValueError:
                raise TowerFormatError(
                    f"bad fiber dimension {rest[2:].strip()!r}", line=lineno
                ) from None
            if n < 1:
                raise TowerFormatError(
                    f"stage {len(stages) + 1}: fiber dimension must be >= 1, got {n}",
                    line=lineno,
                )
            stages.append((n, [], lineno))
        else:
            if not stages:
                raise TowerFormatError(
                    "coefficient row before any stage header", line=lineno
                )
            try:
                row = tuple(int(tok) for tok in line.split())
            except ValueError:
                raise TowerFormatError(
                    f"expected integers, got {line!r}", line=lineno
                ) from None
            idx = len(stages)  # current stage index, 1-based
            n, rows, _ = stages[-1]
            if idx == 1:
                raise TowerFormatError(
                    "stage 1 takes no coefficient rows", line=lineno
                )
            if len(rows) >= n:
                raise TowerFormatError(
                    f"stage {idx} already has its {n} rows", line=lineno
                )
            if len(row) != idx - 1:
                raise TowerFormatError(
                    f"stage {idx} rows need {idx - 1} entries, got {len(row)}",
                    line=lineno,
                )
            rows.append(row)
    spec_stages = []
    for idx, (n, rows, header_line) in enumerate(stages, start=1):
        if idx == 1:
            rows = [()] * n
        elif len(rows) != n:
            raise TowerFormatError(
                f"stage {idx} declares n={n} but has {len(rows)} rows",
                line=header_line,
            )
        spec_stages.append(StageSpec(n, tuple(rows)))
    if not spec_stages:
        raise TowerFormatError("no stages found", line=1)
    return TowerSpec(tuple(spec_stages))


def load_tower(path) -> TowerSpec:
    """Read and parse a tower file.  A leading byte-order mark is
    skipped, as the utf-8-sig codec does; bytes that are not UTF-8 raise
    TowerFormatError naming their line."""
    with open(path, "rb") as f:
        data = f.read().removeprefix(b"\xef\xbb\xbf")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise TowerFormatError(
            f"not UTF-8: byte 0x{data[exc.start]:02x} ({exc.reason})",
            line=data.count(b"\n", 0, exc.start) + 1,
        ) from None
    return parse_tower(text)


def save_tower(t: TowerSpec, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(serialize_tower(t))
