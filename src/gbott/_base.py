"""Definitions shared across gbott that import nothing: the read-only
base of gbott's value types, the census filter keys, and the grammar
and default spelling of a generator name.

`Frozen` is the base of the value types (`StageSpec`, `TowerSpec`,
`Permutation`, `ChernData`, `Degree2Map`, the `triviality` results and
`EnumerationConfig`).  A subclass lists its fields, in constructor
order, as `__slots__`, and its `__init__` checks and normalises the
arguments and stores each field with `_set(self, name, value)`.  The
base gives it what a frozen dataclass would: equality and hash by
fields, equal only to an instance of the same class; the repr
`Name(field=value, ...)`; `AttributeError` on assignment; and pickling
by calling the class on the fields again.  A subclass that also keeps a
value derived from its fields, in a slot after them, names its fields
apart as `_FIELDS`; the base reads only those, so the derived slot
stays out of equality, the repr and pickling, and `__init__` makes it
again on unpickling.

The classes are plain slotted classes rather than dataclasses, so that
no gbott module imports `dataclasses`, which costs more than a short
`gbott iso` search does: it loads `inspect`, `ast`, `dis` and
`tokenize` at every start.
"""

FILTER_KEYS = ("q", "z", "chern")
"""The flags `gbott enumerate --filter` selects on, in report order."""

GENERATOR_NAME = "[A-Za-z][A-Za-z0-9_]*"
"""The regular expression of a generator name: one name token of the
polynomial text form (`gbott.poly`), so that printed text reads back."""


def default_names(nvars: int) -> tuple[str, ...]:
    """The generator names x1, ..., x<nvars>."""
    return tuple(f"x{i}" for i in range(1, nvars + 1))


_set = object.__setattr__


class Frozen:
    """Read-only value with the fields named by its class's `_FIELDS`,
    by default its `__slots__`."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_FIELDS" not in cls.__dict__:
            cls._FIELDS = cls.__slots__

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._FIELDS
        )
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._fields()
