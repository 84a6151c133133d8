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
cohomology R_(i-1) of the height-(i-1) prefix tower.  The deciders
therefore walk the stages in order, deciding stage i on R_(i-1)'s table
and extending that table by the stage's own classes
(`cohomology.extend_table`) only when stage i+1 needs it: the last
generator's map is never built, and `is_q_trivial` stops at the first
failing stage.  Their `ring` argument is accepted for compatibility and
not read.  gbott.census shares each prefix's table among the many
towers above it.  The normal-form computation of the same identities is
kept in the tests as the independent reference.

Every Q-trivial tower can be reordered, by conjugating with an
admissible permutation, so that all n_i = 1 stages come first and no
stage is twisted over a stage with fiber dimension > 1; `decompose`
produces that form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .cohomology import CohomRing, extend_table, stage_classes, times_form
from .errors import (
    InadmissiblePermutation,
    InternalConsistencyError,
    PreconditionError,
)
from .poly import Polynomial, default_names
from .tower import Permutation, TowerSpec, permute


@dataclass(frozen=True)
class Degree2Class:
    """An integer vector (b_1, ..., b_h) standing for sum b_j x_j."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(int(b) for b in self.coeffs))

    @property
    def is_primitive(self) -> bool:
        return math.gcd(*self.coeffs) == 1 if self.coeffs else False

    def to_polynomial(self) -> Polynomial:
        return Polynomial.linear(self.coeffs)

    def serialize(self, names=None) -> str:
        return self.to_polynomial().serialize(names)


@dataclass(frozen=True)
class GeneratorCandidate:
    """The canonical degree-2 generator candidate of one stage: the
    primitive vector with positive x_i-coefficient on the line spanned
    by (n_i+1) x_i + c_1(xi_i), together with its scale r_i."""

    stage: int
    scale: int
    vector: Degree2Class


@dataclass(frozen=True)
class StageDiagnostic:
    """Per-stage outcome: the first k whose Chern identity fails, or the
    stage's generator candidate when all identities hold."""

    stage: int
    fiber_dim: int
    violated_k: int | None = None
    candidate: GeneratorCandidate | None = None

    @property
    def passed(self) -> bool:
        return self.violated_k is None


@dataclass(frozen=True)
class Decomposition:
    """Reordering of a Q-trivial tower with all n = 1 stages leading."""

    permutation: Permutation
    reordered: TowerSpec
    bott_height: int
    base: TowerSpec
    fiber_dims: tuple[int, ...]


@dataclass(frozen=True)
class TrivialityReport:
    q_trivial: bool
    z_trivial: bool
    total_chern_trivial: bool
    per_stage: tuple[StageDiagnostic, ...]
    decomposition: Decomposition | None = None

    def __post_init__(self):
        _check_flags(self.q_trivial, self.z_trivial, self.total_chern_trivial)

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
    by its multiplication table in either order (`CohomRing.mult_table`,
    `CohomRing.block_table`, or a prefix table from `extend_table`).

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


def _decide_stage(
    t: TowerSpec, stage: int, table
) -> tuple[StageDiagnostic, bool, list[dict]]:
    """Stage `stage` of t decided on `table`, the multiplication table of
    a ring whose first generators are x_1..x_(stage-1): its diagnostic,
    whether its Chern classes all vanish, and the classes themselves."""
    k, chern, classes = _first_violated_k(table, t.stages[stage - 1].coeffs)
    n = t.dims[stage - 1]
    if k is not None:
        return StageDiagnostic(stage=stage, fiber_dim=n, violated_k=k), False, classes
    d = StageDiagnostic(stage=stage, fiber_dim=n, candidate=_candidate(t, stage))
    return d, chern, classes


def _assert_candidate_vanishes(table, d: StageDiagnostic) -> None:
    """Debug check: a passing stage's candidate has vanishing (n+1)-st
    power in the ring whose table is `table` and whose first generators
    are x_1..x_stage; n+1 applications of the candidate's form."""
    form = d.candidate.vector.coeffs[: d.stage]
    power = {0: 1}
    for _ in range(d.fiber_dim + 1):
        power = times_form(table, power, form)
    assert not power, "candidate power fails to vanish"


def _diagnose(t: TowerSpec) -> tuple[tuple[StageDiagnostic, ...], bool]:
    """Every stage decided once, stage i on the table of the height-(i-1)
    prefix: the diagnostics, and whether every Chern class vanishes.
    The last generator's map is built only for the debug check."""
    out = []
    chern = True
    table = ()
    for i in range(1, t.height + 1):
        d, stage_chern, classes = _decide_stage(t, i, table)
        out.append(d)
        chern = chern and stage_chern
        check = __debug__ and d.passed
        if i < t.height or check:
            table = extend_table(table, t.dims[: i - 1], classes)
        if check:
            _assert_candidate_vanishes(table, d)
    return tuple(out), chern


def stage_diagnostics(t: TowerSpec, ring: CohomRing | None = None) -> tuple[StageDiagnostic, ...]:
    """For each stage, the first violated Chern identity or, when the
    stage passes, its generator candidate."""
    return _diagnose(t)[0]


# -- deciders ----------------------------------------------------------------


def _stages_until(t: TowerSpec, fails) -> bool:
    """True iff no stage fails: each stage i is decided on the table of
    the height-(i-1) prefix, in order, and the walk stops at the first
    stage for which fails(k, chern) is true, so the tables past it (and
    the last generator's map) are never built."""
    table = ()
    for i, s in enumerate(t.stages, start=1):
        k, chern, classes = _first_violated_k(table, s.coeffs)
        if fails(k, chern):
            return False
        if i < t.height:
            table = extend_table(table, t.dims[: i - 1], classes)
    return True


def is_q_trivial(t: TowerSpec, ring: CohomRing | None = None) -> bool:
    """Rational triviality via the per-stage Chern identities."""
    return _stages_until(t, lambda k, chern: k is not None)


def is_total_chern_trivial(t: TowerSpec, ring: CohomRing | None = None) -> bool:
    """True iff every c_k(xi_i), k >= 1, is zero in the ring."""
    return _stages_until(t, lambda k, chern: not chern)


def generator_candidates(t: TowerSpec, ring: CohomRing | None = None) -> tuple[GeneratorCandidate, ...]:
    """The canonical degree-2 generators of a Q-trivial tower."""
    if not is_q_trivial(t):
        raise PreconditionError("generator_candidates requires a Q-trivial tower")
    return tuple(_candidate(t, i) for i in range(1, t.height + 1))


def is_z_trivial(t: TowerSpec, ring: CohomRing | None = None) -> bool:
    """Integral triviality: Q-trivial and every candidate scale r_i = 1."""
    if not is_q_trivial(t):
        return False
    return all(
        _candidate(t, i).scale == 1 for i in range(1, t.height + 1)
    )


def bott_q_trivial(t: TowerSpec, ring: CohomRing | None = None) -> bool:
    """For towers with every fiber a line (all n_i = 1): Q-triviality is
    equivalent to c_1(xi_i)^2 = 0 for every stage, each decided on the
    table of the prefix below it."""
    if any(n != 1 for n in t.dims):
        raise PreconditionError("bott_q_trivial requires all fiber dimensions 1")
    table = ()
    for i, s in enumerate(t.stages, start=1):
        (row,) = s.coeffs
        c1 = times_form(table, {0: 1}, row)
        if times_form(table, c1, row):
            return False
        if i < t.height:
            table = extend_table(table, t.dims[: i - 1], [{0: 1}, c1])
    return True


# -- decomposition -----------------------------------------------------------


def decompose(t: TowerSpec, ring: CohomRing | None = None) -> Decomposition:
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
