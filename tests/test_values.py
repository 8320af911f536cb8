"""The value types keep the semantics of frozen dataclasses: repr, class-strict equality, hash, immutability,
and pickle and copy round trips."""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from braidnil.core import (
    BraidWord,
    CommPart,
    NilElement,
    Permutation,
    PurePart,
    _Coordinates,
    _trusted,
    collect,
    identity,
)
from braidnil.expr import Expression, parse
from braidnil.invariants import HolonomyMatrix, RankTable, dimension_table, holonomy_matrix
from braidnil.orbits import OrbitBasis, orbit_partition
from braidnil.presentations import RelationReport, full_twist

# one value of each of the 11 value types, built the public way, with its repr
VALUES = [
    (Permutation, lambda: Permutation((2, 1, 3)), "Permutation(image=(2, 1, 3))"),
    (BraidWord, lambda: BraidWord(3, ((1, 1), (2, -1))), "BraidWord(n=3, letters=((1, 1), (2, -1)))"),
    (_Coordinates, lambda: _Coordinates(3, ()), "_Coordinates(n=3, entries=())"),
    (PurePart, lambda: PurePart(3, ((1, 2, 1),)), "PurePart(n=3, entries=((1, 2, 1),))"),
    (CommPart, lambda: CommPart(3, ((1, 2, 3, -2),)), "CommPart(n=3, entries=((1, 2, 3, -2),))"),
    (NilElement, lambda: collect(BraidWord(3, ((1, 1),))),
     "NilElement(n=3, perm=Permutation(image=(2, 1, 3)), pure=PurePart(n=3, entries=()),"
     " comm=CommPart(n=3, entries=()))"),
    (Expression, lambda: parse("s1 A[1,3]", 3), "Expression(n=3, terms=((('gen', 1, 1), 1), (('A', (1, 3)), 1)))"),
    (RankTable, lambda: dimension_table(3, 2), "RankTable(entries=((3, 2, 3),))"),
    (HolonomyMatrix, lambda: holonomy_matrix(identity(3)),
     "HolonomyMatrix(n=3, pair_basis=((1, 2), (1, 3), (2, 3)), triple_basis=((1, 2, 3),), pair_rows=(0, 1, 2),"
     " triple_rows=(0,), triple_signs=(1,), det=1)"),
    (OrbitBasis, lambda: orbit_partition(3), "OrbitBasis(n=3, orbits=((((1, 2, 3), 1),),))"),
    (RelationReport, lambda: full_twist(2), "RelationReport(suite='fulltwist', n=2, total=1, failures=())"),
]


@pytest.mark.parametrize("cls, build, text", VALUES, ids=[cls.__name__ for cls, _, _ in VALUES])
def test_a_value_type_behaves_as_a_frozen_dataclass(cls, build, text):
    value = build()
    assert type(value) is cls and repr(value) == text
    first, *_ = fields = list(vars(value))
    # built unchecked with the keywords reversed, it is still the same value, with the same hash
    same = _trusted(cls, **{name: vars(value)[name] for name in reversed(fields)})
    assert same == value and not same != value and hash(same) == hash(value) and repr(same) == text
    # equality is class-strict: a value of another class with the same fields differs
    lookalike = _trusted(type("Lookalike", (cls,), {}), **vars(value))
    assert lookalike != value and value != lookalike
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot assign to field '{first}'$"):
        setattr(value, first, None)
    with pytest.raises(dataclasses.FrozenInstanceError, match=f"^cannot delete field '{first}'$"):
        delattr(value, first)
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is cls and twin == value and hash(twin) == hash(value) and repr(twin) == text


def test_the_two_coordinate_types_never_compare_equal():
    assert PurePart(3, ()) != CommPart(3, ())
    assert not PurePart(3, ()) == CommPart(3, ())
    assert PurePart(3, ()) == PurePart.zero(3)


@pytest.mark.parametrize("args, kwargs", [
    pytest.param((3,), {}, id="missing"),
    pytest.param((3, (), ()), {}, id="extra"),
    pytest.param((3,), {"n": 3}, id="twice"),
    pytest.param((3,), {"rows": ()}, id="unknown"),
])
def test_a_constructor_takes_each_field_once(args, kwargs):
    with pytest.raises(TypeError):
        PurePart(*args, **kwargs)
    assert PurePart(entries=(), n=3) == PurePart(3, ())
