"""Deciders for rational and integral triviality of a tower's cohomology.

A tower is Q-trivial (Z-trivial) when its cohomology ring with rational
(integer) coefficients is isomorphic to that of the product of
projective spaces with the same fiber dimensions.

Q-triviality is decided stage by stage: the stage bundle must satisfy

    (n_i+1)^k c_k(xi_i) = binom(n_i+1, k) c_1(xi_i)^k   in the ring,

for k = 1..n_i+1, reading c_(n_i+1) = 0 so the last instance is
c_1(xi_i)^(n_i+1) = 0.  When all stages pass, the classes

    z_i = primitive integer vector on the line of (n_i+1) x_i + c_1(xi_i)

satisfy z_i^(n_i+1) = 0 and generate; writing z_i = r_i (x_i +
c_1(xi_i)/(n_i+1)) defines the positive integer scale r_i.  Z-triviality
holds exactly when every r_i = 1 (equivalently n_i+1 divides every
coefficient of c_1(xi_i)): then the transition from x to z is triangular
with unit diagonal, hence unimodular, and the z_i present the product
ring.  This divisibility criterion is cross-checked against the
brute-force search in gbott.isosearch by the test suite.

Each stage is decided once, on a multiplication table: c_0..c_n are
sparse basis vectors built as elementary symmetric functions of the
rows' linear forms, one table map per row, and c_1^k is one more
application of the map for c_1 per k.  The candidate and its scale come
in closed form from the column sums of the rows.  Stage i's classes
involve only x_1..x_(i-1), and the quotient by the first i-1 relations
embeds in the whole ring, so stage i holds or fails already in the
cohomology R_(i-1) of the height-(i-1) prefix tower.

A stage twisted over a wide stage fails at k = 2 with no ring
arithmetic.  Let stage i (n = n_i rows) have a non-zero entry in the
column of a stage m < i with n_m >= 2, and let S and Q be the sum and
the sum of squares of that column's entries.  The k = 1 identity always
holds, and:

  - x_m^2 is a basis monomial of R_(i-1), and no other product x_j x_l
    reduces onto it: x_j^2 with n_j = 1 becomes -c_1(xi_j) x_j;
  - so the x_m^2-coordinate of (n+1)^2 c_2 - binom(n+1,2) c_1^2 is
    (n+1)/2 (S^2 - (n+1) Q);
  - by Cauchy-Schwarz S^2 <= n Q < (n+1) Q, as Q > 0.

`_decide_stage` applies this rule before any table is read;
`_first_violated_k` stays the full ring decision, and the tests check
both against the normal-form reference on every stage.  The rule is the
paper's theorem seen stage by stage: no stage of a Q-trivial tower is
twisted over a wide stage.

The deciders and `gbott.census` walk a tower's prefixes in order
(`_walk`), one step per stage (`_step`).  A prefix's state is its flags
so far (Q-, Z-, Chern-trivial) and its ring's table; the step decides
stage i on the state of the height-(i-1) prefix and extends that table
by the stage's own classes (`cohomology.extend_table`) only when a later
stage will read it.  So the last generator's map is never built, and
`is_q_trivial`, `is_z_trivial` and `is_total_chern_trivial` each stop at
the first stage that settles their answer, building no table above it;
`gbott.census` keeps each prefix's state for the many towers above it.
`full_report` decides every stage, also above a failing one, since it
reports each stage's diagnostic.  No walk builds a table that no stage
reads, and `python -O` runs the same code.  The tests certify every
Q-trivial tower of their censuses: the matrix whose column i is z_i is
checked with `isosearch.is_iso`, a Q-isomorphism from the product ring
onto the tower's, and a Z-isomorphism exactly when the tower is
Z-trivial.  The normal-form computation of the same identities is kept
in the tests as the independent reference.

Every Q-trivial tower can be reordered, by conjugating with an
admissible permutation, so that all n_i = 1 stages come first and no
stage is twisted over a stage with fiber dimension > 1; `decompose`
produces that form.  On a tower with no stage twisted over a wide stage
the lines-first order is admissible and leaves nothing twisted over a
wide stage, so `_reorder`'s two consistency checks cannot fail on a
tower that the rule above lets pass.  The walk therefore does not
decompose; `full_report` and `decompose` still do, with both checks.
"""

from __future__ import annotations

import math

from ._base import Frozen, _set
from .cohomology import extend_table, stage_classes, times_form
from .errors import (
    InadmissiblePermutation,
    InternalConsistencyError,
    PreconditionError,
)
from .tower import Permutation, TowerSpec, permute


class Degree2Class(Frozen):
    """An integer vector (b_1, ..., b_h) standing for sum b_j x_j."""

    __slots__ = ("coeffs",)

    coeffs: tuple[int, ...]

    def __init__(self, coeffs):
        _set(self, "coeffs", tuple(int(b) for b in coeffs))

    @property
    def is_primitive(self) -> bool:
        return math.gcd(*self.coeffs) == 1 if self.coeffs else False

    def to_polynomial(self) -> Polynomial:
        from .poly import Polynomial  # only text and tests need it

        return Polynomial.linear(self.coeffs)

    def serialize(self, names=None) -> str:
        return self.to_polynomial().serialize(names)


class GeneratorCandidate(Frozen):
    """The canonical degree-2 generator candidate of one stage: the
    primitive vector with positive x_i-coefficient on the line spanned
    by (n_i+1) x_i + c_1(xi_i), together with its scale r_i."""

    __slots__ = ("stage", "scale", "vector")

    def __init__(self, stage: int, scale: int, vector: Degree2Class):
        _set(self, "stage", stage)
        _set(self, "scale", scale)
        _set(self, "vector", vector)


class StageDiagnostic(Frozen):
    """Per-stage outcome: the first k whose Chern identity fails, or the
    stage's generator candidate when all identities hold."""

    __slots__ = ("stage", "fiber_dim", "violated_k", "candidate")

    def __init__(
        self,
        stage: int,
        fiber_dim: int,
        violated_k: int | None = None,
        candidate: GeneratorCandidate | None = None,
    ):
        _set(self, "stage", stage)
        _set(self, "fiber_dim", fiber_dim)
        _set(self, "violated_k", violated_k)
        _set(self, "candidate", candidate)

    @property
    def passed(self) -> bool:
        return self.violated_k is None


class Decomposition(Frozen):
    """Reordering of a Q-trivial tower with all n = 1 stages leading."""

    __slots__ = ("permutation", "reordered", "bott_height", "base", "fiber_dims")

    def __init__(
        self,
        permutation: Permutation,
        reordered: TowerSpec,
        bott_height: int,
        base: TowerSpec,
        fiber_dims: tuple[int, ...],
    ):
        _set(self, "permutation", permutation)
        _set(self, "reordered", reordered)
        _set(self, "bott_height", bott_height)
        _set(self, "base", base)
        _set(self, "fiber_dims", fiber_dims)


class TrivialityReport(Frozen):
    """The three flags of a tower, each stage's diagnostic, and the
    decomposition when the tower is Q-trivial."""

    __slots__ = (
        "q_trivial", "z_trivial", "total_chern_trivial", "per_stage", "decomposition"
    )

    def __init__(
        self,
        q_trivial: bool,
        z_trivial: bool,
        total_chern_trivial: bool,
        per_stage: tuple[StageDiagnostic, ...],
        decomposition: Decomposition | None = None,
    ):
        _check_flags(q_trivial, z_trivial, total_chern_trivial)
        _set(self, "q_trivial", q_trivial)
        _set(self, "z_trivial", z_trivial)
        _set(self, "total_chern_trivial", total_chern_trivial)
        _set(self, "per_stage", per_stage)
        _set(self, "decomposition", decomposition)

    def to_dict(self) -> dict:
        out = {
            "q_trivial": self.q_trivial,
            "z_trivial": self.z_trivial,
            "total_chern_trivial": self.total_chern_trivial,
            "stages": [],
        }
        for d in self.per_stage:
            entry = {"stage": d.stage, "fiber_dim": d.fiber_dim}
            if d.violated_k is not None:
                entry["violated_k"] = d.violated_k
            if d.candidate is not None:
                entry["candidate"] = list(d.candidate.vector.coeffs)
                entry["scale"] = d.candidate.scale
            out["stages"].append(entry)
        if self.decomposition is not None:
            out["decomposition"] = {
                "permutation": list(self.decomposition.permutation.images),
                "bott_height": self.decomposition.bott_height,
                "fiber_dims": list(self.decomposition.fiber_dims),
            }
        return out

    def to_text(self, names=None) -> str:
        from .poly import default_names

        names = tuple(names) if names is not None else default_names(
            len(self.per_stage)
        )
        lines = [
            f"q_trivial: {_yn(self.q_trivial)}",
            f"z_trivial: {_yn(self.z_trivial)}",
            f"total_chern_trivial: {_yn(self.total_chern_trivial)}",
        ]
        for d in self.per_stage:
            if d.violated_k is not None:
                lines.append(
                    f"  stage {d.stage}: Chern identity fails at k={d.violated_k}"
                )
            elif d.candidate is not None:
                vec = d.candidate.vector.serialize(names)
                lines.append(
                    f"  stage {d.stage}: candidate z{d.stage} = {vec}"
                    f" (scale r{d.stage} = {d.candidate.scale})"
                )
        if self.decomposition is not None:
            dec = self.decomposition
            perm = ", ".join(str(i) for i in dec.permutation.images)
            lines.append(
                f"decomposition: stage order ({perm}); "
                f"base Bott tower of height {dec.bott_height}; "
                f"fiber dims {list(dec.fiber_dims)}"
            )
        return "\n".join(lines)


def _check_flags(q: bool, z: bool, chern: bool) -> None:
    """Raise InternalConsistencyError unless Z-triviality and total
    Chern triviality each imply Q-triviality."""
    if z and not q:
        raise InternalConsistencyError("z_trivial without q_trivial")
    if chern and not q:
        raise InternalConsistencyError("total_chern_trivial without q_trivial")


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


# -- per-stage analysis ------------------------------------------------------


def _first_violated_k(table, rows) -> tuple[int | None, bool, list[dict]]:
    """Decide the stage whose twist rows are `rows` (n rows of i-1
    entries) in any ring whose first generators are x_1..x_(i-1), given
    by its multiplication table in block order (`CohomRing.block_table`,
    or a prefix table from `extend_table`).

    Returns (k, chern, classes): k is the smallest k in 1..n+1 where
    (n+1)^k c_k != binom(n+1,k) c_1^k, or None if every identity holds;
    chern is True iff every c_k, k >= 1, is zero; classes are c_0..c_n
    as sparse basis vectors (`cohomology.stage_classes`), from which
    the caller may extend the table by the stage.  A stage whose
    classes all vanish passes every identity, so chern implies k is
    None.

    c_1 is the form of the rows' column sums, and c_1^k one more
    multiplication by it per k.  The k = 1 identity holds trivially.
    """
    classes = stage_classes(table, rows)
    n = len(rows)
    c1_form = [sum(col) for col in zip(*rows)]
    power = classes[1]
    for k in range(2, n + 2):
        power = times_form(table, power, c1_form)
        ck = classes[k] if k <= n else {}
        a, b = (n + 1) ** k, math.comb(n + 1, k)
        if ck.keys() != power.keys() or any(
            a * c != b * power[m] for m, c in ck.items()
        ):
            return k, False, classes
    return None, not any(classes[1:]), classes


def _candidate(t: TowerSpec, stage: int) -> GeneratorCandidate:
    """The stage's candidate in closed form: c_1(xi_i) has the column
    sums of the stage's rows as coefficients."""
    rows = t.stages[stage - 1].coeffs
    n = len(rows)
    vec = [sum(col) for col in zip(*rows)] + [n + 1] + [0] * (t.height - stage)
    g = math.gcd(*vec)
    prim = tuple(b // g for b in vec)
    return GeneratorCandidate(
        stage=stage, scale=(n + 1) // g, vector=Degree2Class(prim)
    )


def _twisted_over_wide(t: TowerSpec, rows) -> bool:
    """Whether `rows`, a stage's twist rows, have a non-zero entry in the
    column of a stage with fiber dimension > 1."""
    return any(s.fiber_dim > 1 and any(col) for s, col in zip(t.stages, zip(*rows)))


def _decide_stage(
    t: TowerSpec, stage: int, table
) -> tuple[StageDiagnostic, bool, list[dict] | None]:
    """Stage `stage` of t decided on `table`, the multiplication table of
    a ring whose first generators are x_1..x_(stage-1): its diagnostic,
    whether its Chern classes all vanish, and the classes themselves,
    or None for a stage twisted over a wide stage, which fails at k = 2
    with no ring arithmetic."""
    rows = t.stages[stage - 1].coeffs
    n = len(rows)
    if _twisted_over_wide(t, rows):
        return StageDiagnostic(stage=stage, fiber_dim=n, violated_k=2), False, None
    k, chern, classes = _first_violated_k(table, rows)
    if k is not None:
        return StageDiagnostic(stage=stage, fiber_dim=n, violated_k=k), False, classes
    d = StageDiagnostic(stage=stage, fiber_dim=n, candidate=_candidate(t, stage))
    return d, chern, classes


def _diagnose(t: TowerSpec) -> tuple[tuple[StageDiagnostic, ...], bool]:
    """Every stage decided once, stage i on the table of the height-(i-1)
    prefix, failing stages included: the diagnostics, and whether every
    Chern class vanishes.  The last generator's map is never built, and
    a stage twisted over a wide stage has its classes computed only to
    extend the table."""
    out = []
    chern = True
    table = ()
    for i in range(1, t.height + 1):
        d, stage_chern, classes = _decide_stage(t, i, table)
        out.append(d)
        chern = chern and stage_chern
        if i < t.height:
            if classes is None:
                classes = stage_classes(table, t.stages[i - 1].coeffs)
            table = extend_table(table, t.dims[: i - 1], classes)
    return tuple(out), chern


def stage_diagnostics(t: TowerSpec) -> tuple[StageDiagnostic, ...]:
    """For each stage, the first violated Chern identity or, when the
    stage passes, its generator candidate."""
    return _diagnose(t)[0]


# -- prefix walk -------------------------------------------------------------

# A prefix's state is ((q, z, chern), table): its flags so far, and its
# ring's table, or None where nothing will read it.
_Q, _Z, _CHERN = range(3)
_EMPTY = ((True, True, True), ())  # height 0: stage 1 has no rows, so reads no map
_FAILED = ((False, False, False), None)


def _step(t: TowerSpec, i: int, state, need: int | None):
    """The state of t's prefix of height i, from `state`, that of the
    prefix below it.  Stage i is decided on state's table, which is
    extended by the stage only when it will be read: when a stage follows
    and, with `need`, flag `need` still holds."""
    (q, z, chern), table = state
    if not q:
        return _FAILED
    d, stage_chern, classes = _decide_stage(t, i, table)
    if not d.passed:
        return _FAILED
    flags = (True, z and d.candidate.scale == 1, chern and stage_chern)
    read = i < t.height and (need is None or flags[need])
    return flags, extend_table(table, t.dims[: i - 1], classes) if read else None


def _walk(t: TowerSpec, levels: list, need: int | None = None) -> tuple[bool, bool, bool]:
    """The flags (q, z, chern) of t, each stage decided once, stage i on
    the table of the height-(i-1) prefix.  levels[j] is the state of t's
    prefix of height j for each j < len(levels), levels[0] being _EMPTY;
    the walk appends the states up to height h-1.  With `need` it stops
    at the first stage that makes that flag false; without, it gives all
    three flags, checked against each other as `full_report` checks
    them.  It does not decompose: a tower it finds Q-trivial has no stage
    twisted over a wide stage, so `_reorder` could not fail on it."""
    h = t.height
    while len(levels) < h:
        state = _step(t, len(levels), levels[-1], need)
        if need is not None and not state[0][need]:
            return state[0]
        levels.append(state)
    flags = _step(t, h, levels[h - 1], need)[0] if h else _EMPTY[0]
    if need is None:
        _check_flags(*flags)
    return flags


# -- deciders ----------------------------------------------------------------


def is_q_trivial(t: TowerSpec) -> bool:
    """Rational triviality via the per-stage Chern identities."""
    return _walk(t, [_EMPTY], _Q)[_Q]


def is_total_chern_trivial(t: TowerSpec) -> bool:
    """True iff every c_k(xi_i), k >= 1, is zero in the ring."""
    return _walk(t, [_EMPTY], _CHERN)[_CHERN]


def generator_candidates(t: TowerSpec) -> tuple[GeneratorCandidate, ...]:
    """The canonical degree-2 generators of a Q-trivial tower."""
    if not is_q_trivial(t):
        raise PreconditionError("generator_candidates requires a Q-trivial tower")
    return tuple(_candidate(t, i) for i in range(1, t.height + 1))


def is_z_trivial(t: TowerSpec) -> bool:
    """Integral triviality: Q-trivial and every candidate scale r_i = 1."""
    return _walk(t, [_EMPTY], _Z)[_Z]


def bott_q_trivial(t: TowerSpec) -> bool:
    """For towers with every fiber a line (all n_i = 1): Q-triviality is
    equivalent to c_1(xi_i)^2 = 0 for every stage, the only identity
    `is_q_trivial` has to check on a stage with n = 1."""
    if any(n != 1 for n in t.dims):
        raise PreconditionError("bott_q_trivial requires all fiber dimensions 1")
    return is_q_trivial(t)


# -- decomposition -----------------------------------------------------------


def decompose(t: TowerSpec) -> Decomposition:
    """Reorder a Q-trivial tower so all n_i = 1 stages lead, in their
    original relative order, followed by the n_i > 1 stages in theirs.

    On the result, every column belonging to a stage with fiber
    dimension > 1 is zero below its own block; a failure of that check
    (or of the permutation's admissibility) would contradict what
    Q-triviality guarantees and raises InternalConsistencyError.
    """
    if not is_q_trivial(t):
        raise PreconditionError("decompose requires a Q-trivial tower")
    return _reorder(t)


def _reorder(t: TowerSpec) -> Decomposition:
    """`decompose` for a tower already known to be Q-trivial."""
    order = [i for i in range(1, t.height + 1) if t.dims[i - 1] == 1]
    order += [i for i in range(1, t.height + 1) if t.dims[i - 1] > 1]
    images = [0] * t.height
    for new_pos, old_i in enumerate(order, start=1):
        images[old_i - 1] = new_pos
    sigma = Permutation(tuple(images))
    try:
        reordered = permute(t, sigma)
    except InadmissiblePermutation as exc:
        raise InternalConsistencyError(
            f"Q-trivial tower resisted reordering: {exc}"
        ) from exc
    for i, stage in enumerate(reordered.stages, start=1):
        for k in range(1, i):
            if reordered.dims[k - 1] > 1 and any(
                row[k - 1] != 0 for row in stage.coeffs
            ):
                raise InternalConsistencyError(
                    f"reordered stage {i} still twisted over wide stage {k}"
                )
    r = sum(1 for n in t.dims if n == 1)
    base = TowerSpec(tuple(reordered.stages[:r]))
    return Decomposition(
        permutation=sigma,
        reordered=reordered,
        bott_height=r,
        base=base,
        fiber_dims=tuple(n for n in reordered.dims[r:]),
    )


# -- aggregate ---------------------------------------------------------------


def full_report(t: TowerSpec) -> TrivialityReport:
    """One-pass aggregate: all flags, per-stage diagnostics, and the
    decomposition when the tower is Q-trivial."""
    per_stage, chern = _diagnose(t)
    q = all(d.passed for d in per_stage)
    z = q and all(d.candidate.scale == 1 for d in per_stage)
    dec = _reorder(t) if q else None
    return TrivialityReport(
        q_trivial=q,
        z_trivial=z,
        total_chern_trivial=chern,
        per_stage=per_stage,
        decomposition=dec,
    )
