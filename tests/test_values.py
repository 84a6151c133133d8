"""The contract of gbott's read-only value types: what a frozen
dataclass gives, kept by the slotted classes on `gbott._base.Frozen`."""

import copy
import pickle

import pytest

from gbott import (
    ChernData,
    Decomposition,
    Degree2Class,
    Degree2Map,
    EnumerationConfig,
    GeneratorCandidate,
    Permutation,
    Polynomial,
    StageDiagnostic,
    StageSpec,
    TowerSpec,
    TrivialityReport,
    chern_classes,
    decompose,
    full_report,
    parse_polynomial,
    product_tower,
)

from conftest import hirzebruch


def _candidate(stage=2, scale=2):
    return GeneratorCandidate(stage, scale, Degree2Class((3, 2)))


# class -> (make an instance, make one with other fields, the field names
# in constructor order); each call builds a new object
CASES = {
    StageSpec: (
        lambda: StageSpec(2, ((1,), (0,))),
        lambda: StageSpec(2, ((1,), (1,))),
        ("fiber_dim", "coeffs"),
    ),
    TowerSpec: (
        lambda: hirzebruch(2),
        lambda: hirzebruch(-2),
        ("stages",),
    ),
    Permutation: (
        lambda: Permutation((2, 1, 3)),
        lambda: Permutation((1, 2, 3)),
        ("images",),
    ),
    ChernData: (
        lambda: chern_classes(hirzebruch(2), 2),
        lambda: chern_classes(hirzebruch(1), 2),
        ("stage", "classes"),
    ),
    Degree2Map: (
        lambda: Degree2Map(((2, 0), (0, 1))),
        lambda: Degree2Map(((1, 0), (0, 1))),
        ("matrix",),
    ),
    Degree2Class: (
        lambda: Degree2Class((3, 2)),
        lambda: Degree2Class((3, 1)),
        ("coeffs",),
    ),
    GeneratorCandidate: (
        lambda: _candidate(),
        lambda: _candidate(scale=1),
        ("stage", "scale", "vector"),
    ),
    StageDiagnostic: (
        lambda: StageDiagnostic(2, 1, candidate=_candidate()),
        lambda: StageDiagnostic(2, 1, violated_k=2),
        ("stage", "fiber_dim", "violated_k", "candidate"),
    ),
    Decomposition: (
        lambda: decompose(hirzebruch(2)),
        lambda: decompose(hirzebruch(4)),
        ("permutation", "reordered", "bott_height", "base", "fiber_dims"),
    ),
    TrivialityReport: (
        lambda: full_report(hirzebruch(3)),
        lambda: full_report(hirzebruch(2)),
        ("q_trivial", "z_trivial", "total_chern_trivial", "per_stage", "decomposition"),
    ),
    EnumerationConfig: (
        lambda: EnumerationConfig(2, (2, 1, 1), 1, {"q"}),
        lambda: EnumerationConfig(2, (1, 2), 1),
        ("height", "dims", "coeff_bound", "filters"),
    ),
}


@pytest.mark.parametrize("cls", list(CASES), ids=lambda c: c.__name__)
def test_value_type_contract(cls):
    make, make_other, names = CASES[cls]
    a, same, other = make(), make(), make_other()
    assert type(a) is cls and a is not same
    fields = tuple(getattr(a, name) for name in names)

    # equality and hash by fields, only within the class
    assert a == same and hash(a) == hash(same)
    assert a != other and not a == other
    assert a != fields and fields != a
    assert a.__eq__(fields) is NotImplemented
    assert cls(*fields) == a
    assert cls(**dict(zip(names, fields))) == a
    assert len({a, same, other}) == 2

    # repr
    shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, fields))
    assert repr(a) == f"{cls.__name__}({shown})"

    # read-only
    for name in names:
        with pytest.raises(AttributeError):
            setattr(a, name, None)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert tuple(getattr(a, name) for name in names) == fields

    # pickle, under every protocol, and copy
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(a, protocol))
        assert type(back) is cls and back == a and hash(back) == hash(a)
    assert copy.copy(a) == a and copy.deepcopy(a) == a


def test_polynomial_pickles_under_every_protocol():
    p = parse_polynomial("1/2*x1^2 - 3*x1*x2 + 4", 2)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(p, protocol))
        assert type(back) is Polynomial and back == p and hash(back) == hash(p)
        assert back.nvars == 2 and dict(back.terms) == dict(p.terms)
    assert copy.copy(p) == p and copy.deepcopy(p) == p


def test_defaults_and_normalisation():
    assert StageSpec(1) == StageSpec(1, ())
    assert StageSpec("2", [[1], (0,)]) == StageSpec(2, ((1,), (0,)))
    d = StageDiagnostic(stage=1, fiber_dim=1)
    assert d.violated_k is None and d.candidate is None and d.passed
    assert TowerSpec([(1,), (1, [[2]])]) == hirzebruch(2)
    assert TowerSpec((StageSpec(2),)).stages == (StageSpec(2, ((), ())),)
    assert product_tower((1, 2)) == TowerSpec((StageSpec(1), StageSpec(2, ((0,), (0,)))))
    assert Permutation([2, 1]).images == (2, 1)
    assert Degree2Map([[1, 0], [0, 1]]).matrix == ((1, 0), (0, 1))
    assert Degree2Class([True, 2]).coeffs == (1, 2)
    config = EnumerationConfig(height=2, dims=[2, 1, 2], coeff_bound=1)
    assert config.dims == (1, 2) and config.filters == frozenset()
    assert full_report(product_tower((1,))).decomposition is not None
