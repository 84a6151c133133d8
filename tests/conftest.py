import pathlib

import pytest

from gbott import (
    CohomRing,
    Degree2Map,
    StageSpec,
    TowerSpec,
    is_iso,
    isosearch,
    product_tower,
)

DATA = pathlib.Path(__file__).parent / "data"


def hirzebruch(a: int) -> TowerSpec:
    """Height-2 tower of lines with a single twist coefficient."""
    return TowerSpec((StageSpec(1), StageSpec(1, ((a,),))))


def twisted_over_wide(t: TowerSpec, i: int) -> bool:
    """Whether stage i of t has a non-zero twist entry in the column of a
    stage with fiber dimension > 1: then its k = 2 Chern identity fails."""
    return any(
        t.dims[k - 1] > 1 and t.coefficient(i, j, k) != 0
        for j in range(1, t.dims[i - 1] + 1)
        for k in range(1, i)
    )


def last_stage_decisions(towers, passes) -> int:
    """How many last stages `census.classify` decides over this stream:
    one per stage object in each run of towers whose prefix passes
    (`passes(prefix)`) and has an equal closed-form context, that is,
    the same row for each line stage and the same wide stages below."""
    count, decided, context = 0, set(), None
    for t in towers:
        prefix = t.stages[:-1]
        if not passes(prefix):
            continue
        prefix_context = tuple(
            s.coeffs[0] if s.fiber_dim == 1 else None for s in prefix
        )
        if prefix_context != context:
            decided, context = set(), prefix_context
        if id(t.stages[-1]) not in decided:
            decided.add(id(t.stages[-1]))
            count += 1
    return count


def certify(t: TowerSpec, candidates) -> tuple[bool, bool]:
    """Whether the matrix whose column i is stage i's candidate vector
    maps the ring of the product of projective spaces with t's fiber
    dimensions isomorphically onto t's ring, by `is_iso`: over Q, and
    over Z.  For a Q-trivial t this is the paper's certificate: an
    isomorphism over Q always, and over Z exactly when t is Z-trivial."""
    columns = [tuple(c) for c in candidates]
    M = Degree2Map([[col[r] for col in columns] for r in range(t.height)])
    src, tgt = CohomRing(product_tower(t.dims)), CohomRing(t)
    return is_iso(M, src, tgt), is_iso(M, src, tgt, over_integers=True)


@pytest.fixture
def qtwin_a() -> TowerSpec:
    """P(C^3 + L) over CP^2, L the tautological line bundle."""
    return TowerSpec((StageSpec(2), StageSpec(3, ((0,), (0,), (1,)))))


@pytest.fixture
def qtwin_b() -> TowerSpec:
    """P(C^3 + L^2) over CP^2: Q-isomorphic to qtwin_a but not
    Z-isomorphic."""
    return TowerSpec((StageSpec(2), StageSpec(3, ((0,), (0,), (2,)))))


@pytest.fixture
def cp2_x_cp3() -> TowerSpec:
    return product_tower((2, 3))


@pytest.fixture
def data_dir() -> pathlib.Path:
    return DATA


@pytest.fixture
def pool_from_start(monkeypatch):
    """A search with workers > 1 hands over to its pool at once, so that
    even a short search runs in the pool."""
    monkeypatch.setattr(isosearch, "_SEQUENTIAL_S", 0)
