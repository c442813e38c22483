"""The eleven record types (results, reports and parsed statements) and the
three validated value types: construction, immutability, value equality,
copies and pickles, and the repr of four of the records."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from arfbrown.cli import ComponentStmt, EnhanceStmt, PointStmt, SurfaceStmt
from arfbrown.clifford import GaussianRational, Signature
from arfbrown.majorana import (
    GroundStateReport,
    IntervalReport,
    ReferenceModule,
    ground_states,
    interval_bimodule_check,
    reference_module,
)
from arfbrown.pin1 import ChainSetup
from arfbrown.quadform import Enhancement
from arfbrown.surface import GluingScheme, IntersectionForm, SurfaceInfo, analyze
from arfbrown.tqft import (
    CheckResult,
    PartitionValue,
    TheoryClass,
    consistency_report,
)

# each record type with a function that builds fresh field values, by name
VALUES = {
    SurfaceStmt: lambda: {
        "name": "T",
        "scheme": GluingScheme.from_text("a b a' b'"),
        "path": "t.surf",
        "line": 1,
    },
    EnhanceStmt: lambda: {
        "name": "T", "values": (("a", 2), ("b", 0)), "path": "t.surf", "line": 2,
    },
    ComponentStmt: lambda: {
        "name": "c",
        "kind": "circle",
        "bits": (1, 0),
        "orientation": -1,
        "path": "t.surf",
        "line": 3,
    },
    PointStmt: lambda: {"name": "p", "path": "t.surf", "line": 4},
    GroundStateReport: lambda: {
        "vertex_count": 1,
        "edge_count": 1,
        "ground_parity": "odd",
    },
    ReferenceModule: lambda: {
        "vertex_count": 1,
        "c": {0: np.array([[0, 1], [1, 0]])},
        "d": {0: np.array([[0, -1], [1, 0]])},
        "epsilon": np.diag([1, -1]),
        "doubled_hamiltonian": np.diag([-1, 1]),
    },
    IntervalReport: lambda: {
        "ground_dimension": 2,
        "parity_split": (1, 1),
        "boundary_commutes": True,
        "plus_squares_to_identity": True,
        "minus_squares_to_minus_identity": True,
        "generators_anticommute": True,
        "commutant_dimension": 1,
        "irreducible": True,
        "passed": True,
    },
    SurfaceInfo: lambda: {
        "euler_char": 0, "orientable": True, "betti1_mod2": 2, "vertex_count": 1,
    },
    IntersectionForm: lambda: {
        "basis_labels": ("a", "b"), "rows": (0b10, 0b01),
    },
    PartitionValue: lambda: {
        "exponent": 3, "euler_factor": GaussianRational(2),
    },
    CheckResult: lambda: {"name": "x", "passed": True, "detail": "ok"},
}

RECORDS = pytest.mark.parametrize("cls", list(VALUES), ids=lambda c: c.__name__)

TORUS = IntersectionForm(("a", "b"), (0b10, 0b01))

# the named tuples whose constructor checks and normalises its arguments,
# each with a function that builds a fresh value
VALIDATED = {
    ChainSetup: lambda: ChainSetup([1, 0], True, -1),
    TheoryClass: lambda: TheoryClass(11, Fraction(1, 2)),
    Enhancement: lambda: Enhancement(TORUS, {"a": 2, "b": 0}),
}


def _build(cls):
    return VALIDATED[cls]() if cls in VALIDATED else cls(**VALUES[cls]())


@RECORDS
def test_keyword_and_positional_construction_agree(cls):
    fields = VALUES[cls]()
    by_name = cls(**fields)
    by_position = cls(*fields.values())
    for name, value in fields.items():
        assert getattr(by_name, name) is value
        assert getattr(by_position, name) is value


@pytest.mark.parametrize("cls", [*VALUES, *VALIDATED], ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned(cls):
    record = _build(cls)
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


@pytest.mark.parametrize(
    "cls",
    [c for c in [*VALUES, *VALIDATED] if c is not ReferenceModule],
    ids=lambda c: c.__name__,
)
def test_equal_values_are_equal_records(cls):
    a, b = _build(cls), _build(cls)
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


@pytest.mark.parametrize("cls", list(VALIDATED), ids=lambda c: c.__name__)
def test_validated_types_take_equality_hash_repr_and_fields_from_the_tuple(cls):
    assert issubclass(cls, tuple)
    assert not {"__eq__", "__hash__", "__repr__", *cls._fields} & set(vars(cls))
    value = _build(cls)
    fields = ", ".join(f"{name}={field!r}" for name, field in value._asdict().items())
    assert repr(value) == f"{cls.__name__}({fields})"


def test_validated_types_normalise_their_arguments():
    assert ChainSetup([1, 0], 1, -1) == ChainSetup((1, 0), True, -1)
    assert ChainSetup([1, 0], 1, -1).bits == (1, 0)
    assert TheoryClass(11) == TheoryClass(3)
    assert TheoryClass(3) == (3, GaussianRational(1))
    assert Enhancement(TORUS, {"b": -4, "a": 6}).values == (2, 0)


# each library value type, the three validated named tuples and the three
# classes, must survive copy, deepcopy and pickle as an equal value
COPIED = [
    ChainSetup.interval([1, 0, 1], -1),
    TheoryClass(5, GaussianRational(Fraction(1, 2), 3)),
    Enhancement(TORUS, {"a": 2, "b": 0}),
    Signature(2, 1),
    GluingScheme.from_text("a b a' b'"),
    GaussianRational(Fraction(1, 2), -3),
]


@pytest.mark.parametrize("value", COPIED, ids=lambda v: type(v).__name__)
def test_copies_and_pickles_are_equal_values(value):
    for twin in copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value)):
        assert type(twin) is type(value)
        assert twin == value and hash(twin) == hash(value)


def test_reference_module_compares_by_identity():
    a, b = (reference_module(ChainSetup.circle([1, 0, 1])) for _ in range(2))
    assert a == a and not a != a
    assert a != b and not a == b
    assert hash(a) == hash(a)
    assert len({a, b}) == 2
    fields = VALUES[ReferenceModule]()
    assert ReferenceModule(**fields) != ReferenceModule(**fields)


def test_derived_properties():
    assert IntersectionForm(**VALUES[IntersectionForm]()).dim == 2
    report = GroundStateReport(**VALUES[GroundStateReport]())
    assert report.min_eigenvalue == Fraction(-1, 2)
    assert report.ground_dimension == 1
    assert report.spectrum() == ((Fraction(-1, 2), 1), (Fraction(1, 2), 1))


# repr texts recorded when the records were frozen dataclasses; the ground
# report's fields became the vertex and edge count, and its old repr's
# values are read from them
def test_repr_texts_are_unchanged():
    assert repr(analyze(GluingScheme.from_text("a b c a b c"))) == (
        "SurfaceInfo(euler_char=1, orientable=False, betti1_mod2=1, vertex_count=3)"
    )
    report = ground_states(ChainSetup.circle([1, 0, 1]))
    assert repr(report) == (
        "GroundStateReport(vertex_count=3, edge_count=3, ground_parity='odd')"
    )
    assert (
        f"min_eigenvalue={report.min_eigenvalue!r},"
        f" ground_dimension={report.ground_dimension!r},"
        f" ground_parity={report.ground_parity!r}, spectrum={report.spectrum()!r}"
    ) == (
        "min_eigenvalue=Fraction(-3, 2), ground_dimension=1,"
        " ground_parity='odd', spectrum=((Fraction(-3, 2), 1), (Fraction(-1, 2), 3),"
        " (Fraction(1, 2), 3), (Fraction(3, 2), 1))"
    )
    assert repr(interval_bimodule_check(ChainSetup.interval([1, 0]))) == (
        "IntervalReport(ground_dimension=2, parity_split=(1, 1),"
        " boundary_commutes=True, plus_squares_to_identity=True,"
        " minus_squares_to_minus_identity=True, generators_anticommute=True,"
        " commutant_dimension=1, irreducible=True, passed=True)"
    )
    assert repr(consistency_report()[1]) == (
        "CheckResult(name='torus framing value', passed=True,"
        " detail='exponent 4 (want 4, the value -1)')"
    )
    assert repr(CheckResult("x", False, "it's \"q\"")) == (
        "CheckResult(name='x', passed=False, detail='it\\'s \"q\"')"
    )
