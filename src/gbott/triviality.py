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
brute-force search in gbott.isosearch by the test suite.  The candidate
and its scale come in closed form from the column sums of the rows, and
a stage that passes has every Chern class zero exactly when those sums
are all zero.

Stage i's classes involve only x_1..x_(i-1), and the quotient by the
first i-1 relations embeds in the whole ring, so stage i holds or fails
already in the cohomology R_(i-1) of the height-(i-1) prefix tower.
Over a Q-trivial prefix the identities come down to integer identities
in the stage's rows (`_closed_form_k`).  Let the rows be alpha_1..
alpha_n, put alpha_0 = 0, and let k = 1 hold, as it always does.

A stage twisted over a wide stage fails at k = 2, over any prefix.  Let
stage i have a non-zero entry in the column of a stage m < i with
n_m >= 2, and let S and Q be the sum and the sum of squares of that
column's entries.  Then:

  - x_m^2 is a basis monomial of R_(i-1), and no other product x_j x_l
    reduces onto it: x_j^2 with n_j = 1 becomes -c_1(xi_j) x_j;
  - so the x_m^2-coordinate of (n+1)^2 c_2 - binom(n+1,2) c_1^2 is
    (n+1)/2 (S^2 - (n+1) Q);
  - by Cauchy-Schwarz S^2 <= n Q < (n+1) Q, as Q > 0.

Otherwise every alpha_r lies in the span of the generators x_l of the
line stages l < i (n_l = 1), the set L.  In a Q-trivial prefix no stage
is twisted over a wide stage, so c_1(xi_l) lies in that span too, and
w_l = 2 x_l + c_1(xi_l) squares to c_1(xi_l)^2 = 0, stage l's k = 2
identity.  The line generators span a subring with basis the 2^|L|
square-free products x_T (x_l^2 = -c_1(xi_l) x_l stays in it), and the
w_S span it too, so the w_S are a basis.  Let beta_r = alpha_r - (alpha_0
+ ... + alpha_n)/(n+1), with coordinates b_rl in the w_l.  The
identities say prod_r (1 + alpha_r) = (1 + c_1/(n+1))^(n+1), that is,
e_k(beta) = 0 degree by degree, and the first k where one fails is the
first where e_k(beta) != 0.  By Newton's identities that is the first k
with p_k(beta) != 0, and

    p_k(beta) = sum_r (sum_l b_rl w_l)^k
              = k! sum_{|S| = k} (sum_r prod_{l in S} b_rl) w_S.

So stage i first fails at the smallest k in 2..n+1 for which some k-set
S of line stages has sum_{r=0..n} prod_{l in S} b_rl != 0, and passes if
there is none.  Scaling every b_rl by one factor does not change which
sums vanish, so `_closed_form_k` works with (n+1) beta_r and rewrites
them in the w_l by back substitution from the top line down, x_l =
(w_l - c_1(xi_l))/2, on coordinates scaled by 2^|L|: every division
by 2 is then exact, and no fraction is made.

The closed form reads the prefix only through its closed-form context
(`_context`): for each stage below i, its row if it is a line stage,
and only the fact that it is wide if it is not.  The wide stages' rows
enter neither the k = 2 test nor the back substitution, and stage i's
candidate, hence its scale and its Chern part, depends on its own rows
alone.  So over two Q-trivial prefixes with equal contexts, one stage
gets one decision: whether it passes, whether its scale is 1, and
whether its Chern part is zero (`_decide`).

The deciders and `gbott.census` walk a tower's prefixes in order
(`_walk`), one step per stage (`_step`).  A prefix's state is its three
flags so far (Q-, Z-, Chern-trivial) and its context; the step decides
stage i in closed form when the prefix below it is Q-trivial, and is a
constant when it is not, and it combines the stage's decision with the
prefix's flags.  So no walk builds a ring or a table, and `gbott.census`
keeps the state of each prefix for the many towers above it, and the
decision of each last stage for the prefixes with the same context.
`full_report` decides every stage, also above a failing one, since it
reports each stage's diagnostic: up to the first failing stage in
closed form, and above it, where the prefix is not Q-trivial and the
closed form does not apply, on the ring (`_first_violated_k`), all
such stages on the one table of the height-(h-1) prefix, in which each
R_(i-1) embeds.  `_first_violated_k` is the full ring decision:
c_0..c_n as elementary symmetric functions of the rows' linear forms,
one table map per row, and c_1^k one more application of the map for
c_1 per k.  The tests check the closed form against it, and both
against the normal-form computation of the same identities, on every
stage of their censuses.  They also certify every Q-trivial tower:
the matrix whose column i is z_i is checked with `isosearch.is_iso`, a
Q-isomorphism from the product ring onto the tower's, and a
Z-isomorphism exactly when the tower is Z-trivial.  `python -O` runs
the same code.

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

import itertools
import math

from ._base import Frozen, _set, default_names
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


def _first_violated_k(table, rows) -> int | None:
    """Decide on the ring the stage whose twist rows are `rows` (n rows
    of i-1 entries), in any ring whose first generators are
    x_1..x_(i-1), given by its multiplication table in block order
    (`CohomRing.block_table`): the smallest k in 1..n+1 where
    (n+1)^k c_k != binom(n+1,k) c_1^k, or None if every identity holds.

    The classes c_0..c_n are sparse basis vectors
    (`cohomology.stage_classes`), c_1 is the form of the rows' column
    sums, and c_1^k one more multiplication by it per k.  The k = 1
    identity holds trivially.
    """
    from .cohomology import stage_classes, times_form

    classes = stage_classes(table, rows)
    n = len(rows)
    c1_form = [sum(col) for col in zip(*rows)]
    power = classes[1]
    for k in range(2, n + 2):
        power = times_form(table, power, c1_form)
        ck = classes[k] if k <= n else {}
        a, b = (n + 1) ** k, math.comb(n + 1, k)
        if {m: a * c for m, c in ck.items()} != {m: b * c for m, c in power.items()}:
            return k
    return None


def _closed_form_k(t: TowerSpec, i: int) -> int | None:
    """`_first_violated_k` of stage i of t, whose height-(i-1) prefix is
    Q-trivial, in integer arithmetic with no ring (see the module
    docstring): k = 2 for a stage twisted over a wide stage; otherwise
    the least k for which some k-set S of line stages has a non-zero
    sum over r of prod_{l in S} b_rl.  It reads the prefix only through
    its closed-form context (`_context`)."""
    stages = t.stages
    rows = stages[i - 1].coeffs
    context = _context(stages[: i - 1])
    cols = list(zip(*rows))
    lines = []  # the line stages below i, 0-based
    for l, (row, col) in enumerate(zip(context, cols)):
        if row is not None:
            lines.append(l)
        elif any(col):
            return 2
    n1, m = len(rows) + 1, len(lines)
    sums = [sum(col) for col in cols]
    coords = []  # per r = 0..n, the w-coordinates of 2^m (n+1) beta_r
    for row in ((0,) * (i - 1),) + rows:
        v = [(n1 * a - s) << m for a, s in zip(row, sums)]
        for l in reversed(lines):
            e = v[l] = v[l] // 2
            if e:
                for j, a in enumerate(context[l]):
                    v[j] -= a * e
        coords.append([v[l] for l in lines])
    for k in range(2, min(n1, m) + 1):
        for s in itertools.combinations(range(m), k):
            if sum(math.prod(b[l] for l in s) for b in coords):
                return k
    return None


def _candidate(t: TowerSpec, stage: int) -> GeneratorCandidate:
    """The stage's candidate in closed form: c_1(xi_i) has the column
    sums of the stage's rows as coefficients."""
    rows = t.stages[stage - 1].coeffs
    n = len(rows)
    vec = [sum(col) for col in zip(*rows)] + [n + 1] + [0] * (t.height - stage)
    g = math.gcd(*vec)
    return GeneratorCandidate(stage, (n + 1) // g, Degree2Class(b // g for b in vec))


def _diagnose(t: TowerSpec) -> tuple[tuple[StageDiagnostic, ...], bool]:
    """Every stage decided once, failing stages included: the diagnostics,
    and whether every Chern class vanishes.  Up to the first failing
    stage the prefix is Q-trivial and the stage is decided in closed
    form; above it, on the one table of the height-(h-1) prefix."""
    out = []
    q = chern = True
    table = None
    for i, stage in enumerate(t.stages, start=1):
        if not q and table is None:
            from .cohomology import CohomRing

            table = CohomRing(TowerSpec(t.stages[:-1])).block_table()
        k = _closed_form_k(t, i) if q else _first_violated_k(table, stage.coeffs)
        if k is None:
            candidate = _candidate(t, i)
            out.append(StageDiagnostic(i, stage.fiber_dim, candidate=candidate))
            chern = chern and not any(candidate.vector.coeffs[: i - 1])
        else:
            out.append(StageDiagnostic(i, stage.fiber_dim, violated_k=k))
            q = chern = False
    return tuple(out), chern


def stage_diagnostics(t: TowerSpec) -> tuple[StageDiagnostic, ...]:
    """For each stage, the first violated Chern identity or, when the
    stage passes, its generator candidate."""
    return _diagnose(t)[0]


# -- prefix walk -------------------------------------------------------------

# A prefix's state is its flags so far, (q, z, chern), and its
# closed-form context.
_Q, _Z, _CHERN = range(3)
_EMPTY = (True, True, True)  # the flags of height 0
_FAILED = (False, False, False)
_START = (_EMPTY, ())  # the state of height 0


def _context(stages) -> tuple:
    """The closed-form context of a prefix with these stages: for each,
    its row if it is a line stage, or None if it is wide."""
    return tuple([s.coeffs[0] if s.fiber_dim == 1 else None for s in stages])


def _decide(t: TowerSpec, i: int) -> tuple[bool, bool, bool]:
    """Stage i's own part of the flags, over a Q-trivial prefix: whether
    it passes, whether its scale is 1, and whether its Chern part (the
    first i-1 entries of its candidate) is zero; all False when it
    fails.  A function of the stage and the prefix's context alone."""
    if _closed_form_k(t, i) is not None:
        return _FAILED
    c = _candidate(t, i)
    return True, c.scale == 1, not any(c.vector.coeffs[: i - 1])


def _step(t: TowerSpec, i: int, flags, decide=_decide) -> tuple[bool, ...]:
    """The flags of t's prefix of height i, from `flags`, those of the
    prefix below it: stage i is decided (`decide(t, i)`, by default in
    closed form) when that prefix is Q-trivial, and not at all when it
    is not."""
    q, z, chern = flags
    if not q:
        return _FAILED
    passes, unit, flat = decide(t, i)
    return passes, z and unit, chern and flat


def _walk(t: TowerSpec, levels: list, decide=_decide) -> tuple[bool, ...]:
    """The flags (q, z, chern) of t, checked against each other as
    `full_report` checks them, each stage decided once.  levels[j] is
    the state of t's prefix of height j for each j < len(levels),
    levels[0] being _START; the walk appends the states up to height
    h-1, and decides the last stage by `decide`.  It does not
    decompose: a tower it finds Q-trivial has no stage twisted over a
    wide stage, so `_reorder` could not fail on it."""
    stages = t.stages
    h = len(stages)
    while len(levels) < h:
        i = len(levels)
        flags, context = levels[-1]
        levels.append((_step(t, i, flags), context + _context(stages[i - 1 : i])))
    flags = _step(t, h, levels[h - 1][0], decide) if h else _EMPTY
    _check_flags(*flags)
    return flags


# -- deciders ----------------------------------------------------------------


def is_q_trivial(t: TowerSpec) -> bool:
    """Rational triviality via the per-stage Chern identities."""
    return _walk(t, [_START])[_Q]


def is_total_chern_trivial(t: TowerSpec) -> bool:
    """True iff every c_k(xi_i), k >= 1, is zero in the ring."""
    return _walk(t, [_START])[_CHERN]


def generator_candidates(t: TowerSpec) -> tuple[GeneratorCandidate, ...]:
    """The canonical degree-2 generators of a Q-trivial tower."""
    if not is_q_trivial(t):
        raise PreconditionError("generator_candidates requires a Q-trivial tower")
    return tuple(_candidate(t, i) for i in range(1, t.height + 1))


def is_z_trivial(t: TowerSpec) -> bool:
    """Integral triviality: Q-trivial and every candidate scale r_i = 1."""
    return _walk(t, [_START])[_Z]


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
    dims = t.dims
    order = [i for i, n in enumerate(dims, start=1) if n == 1]
    r = len(order)
    order += [i for i, n in enumerate(dims, start=1) if n > 1]
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
    new_dims = reordered.dims
    for i, stage in enumerate(reordered.stages, start=1):
        for k in range(1, i):
            if new_dims[k - 1] > 1 and any(row[k - 1] != 0 for row in stage.coeffs):
                raise InternalConsistencyError(
                    f"reordered stage {i} still twisted over wide stage {k}"
                )
    base = TowerSpec(tuple(reordered.stages[:r]))
    return Decomposition(sigma, reordered, r, base, new_dims[r:])


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
