"""The package's records: constructors, equality, hashing, immutability,
pickling and repr, the same for every record type.

Each record is immutable and compares by its fields, which it writes
through the setters in its ``_stores``.  A fresh interpreter that imports
the CLI loads none of ``dataclasses``, ``inspect`` and ``json``.
"""

import copy
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from hypermap_codes import (
    CellComplex,
    CheckResult,
    DistanceResult,
    Hypermap,
    Permutation,
    QuotientCode,
    SurfaceReport,
    VerificationReport,
    dual,
    euler_characteristic,
    face_code,
    reduce_to_surface,
)
from hypermap_codes.perm import _Record
from hypermap_codes.verify import CheckOutcome, Derived
from slow_paths import BitMatrix  # the test oracles' matrix, a record like the package's


RECORD_TYPES = [Permutation, Hypermap, BitMatrix, QuotientCode, DistanceResult, CellComplex,
                CheckResult, SurfaceReport, CheckOutcome, VerificationReport]


@pytest.fixture(scope="module")
def records(torus8):
    """Per record type: its fields in constructor order with sample values, and
    the defaults of the trailing fields a constructor may leave out."""
    q = face_code(torus8)
    cells = reduce_to_surface(torus8, q)
    outcome = ("dual-involution", 1, 5, "Hypermap(...)")
    return {
        Permutation: ({"images": (1, 2, 0)}, {}),
        Hypermap: ({"alpha": torus8.alpha, "sigma": torus8.sigma}, {}),
        BitMatrix: ({"rows": 2, "cols": 3, "bits": (1, 6)}, {}),
        QuotientCode: ({name: getattr(q, name) for name in (
            "kind", "special", "qubit_labels", "ends", "sides", "z_labels", "x_labels")}, {}),
        DistanceResult: ({"dx": 2, "dz": None, "no_logicals": False, "budget": 6}, {}),
        CellComplex: ({name: getattr(cells, name) for name in (
            "zero_cells", "one_cells", "two_cells", "counts21", "ends")}, {}),
        CheckResult: ({"name": "euler-even", "passed": False, "detail": "chi = 1 is odd"},
                      {"detail": ""}),
        SurfaceReport: ({"checks": (CheckResult("euler-even", True),),
                         "euler_characteristic": 0}, {}),
        CheckOutcome: (dict(zip(("name", "failures", "total", "first_failure"), outcome)),
                       {"first_failure": ""}),
        VerificationReport: ({"trials": 5, "max_darts": 10, "seed": 7,
                              "checks": (CheckOutcome(*outcome),)}, {}),
    }


def _assert_built_whole(record, fields):
    """``record`` reads back every field of ``fields``, holds None in every
    cache, and pickles to an equal record."""
    for name in type(record).__slots__:
        if name.startswith("_"):
            assert getattr(record, name) is None, name
        else:
            assert getattr(record, name) == fields[name], name
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(record, protocol)) == record


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__name__)
def test_construction_by_position_and_keyword(records, cls):
    fields, defaults = records[cls]
    _assert_built_whole(cls(*fields.values()), fields)
    _assert_built_whole(cls(**fields), fields)
    required = {name: value for name, value in fields.items() if name not in defaults}
    for made in (cls(*required.values()), cls(**required)):
        for name, value in defaults.items():
            assert getattr(made, name) == value
    with pytest.raises(TypeError):
        cls(*fields.values(), None)


def test_every_record_type_is_tested():
    """``RECORD_TYPES`` holds each ``_Record`` subclass of the package and the oracles."""
    found, bases = [], [_Record]
    while bases:
        for cls in bases.pop().__subclasses__():
            if cls.__module__.startswith("hypermap_codes.") or cls is BitMatrix:
                found.append(cls)
            bases.append(cls)
    assert sorted(c.__name__ for c in found) == sorted(c.__name__ for c in RECORD_TYPES)


def test_a_constructor_that_misses_a_slot_fails_that_test():
    class MissesAField(_Record):
        __slots__ = ("left", "right", "_cache")

        def __init__(self, left, right):
            set_left, _, set_cache = self._stores
            set_left(self, left)
            set_cache(self, None)

    class MissesACache(_Record):
        __slots__ = ("left", "right", "_cache")

        def __init__(self, left, right):
            set_left, set_right, _ = self._stores
            set_left(self, left)
            set_right(self, right)

    fields = {"left": 1, "right": 2}
    for cls, missed in ((MissesAField, "right"), (MissesACache, "_cache")):
        with pytest.raises(AttributeError, match=missed):
            _assert_built_whole(cls(**fields), fields)


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__name__)
def test_equality_and_hash_go_over_the_fields(records, cls):
    fields, _ = records[cls]
    a, b = cls(**fields), cls(*fields.values())
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != tuple(fields.values())  # only records of one class compare equal
    other = next(c for c in RECORD_TYPES if c is not cls)
    assert a != other(**records[other][0])


@pytest.mark.parametrize("cls,field,value", [
    (Permutation, "images", (2, 0, 1)),
    (BitMatrix, "bits", (1, 5)),
    (DistanceResult, "dz", 3),
    (CheckResult, "passed", True),
    (CheckOutcome, "failures", 2),
    (VerificationReport, "seed", 8),
])
def test_records_that_differ_in_one_field_are_unequal(records, cls, field, value):
    fields, _ = records[cls]
    assert cls(**fields) != cls(**{**fields, field: value})


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__name__)
def test_assignment_and_deletion_raise(records, cls):
    fields, _ = records[cls]
    record = cls(**fields)
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) == value
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__name__)
def test_pickle_round_trip(records, cls):
    fields, _ = records[cls]
    record = cls(**fields)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is cls and copy == record and hash(copy) == hash(record)


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__name__)
def test_stores_hold_one_setter_per_slot_in_slot_order(cls):
    assert len(cls._stores) == len(cls.__slots__)
    record = cls.__new__(cls)
    for i, (name, store) in enumerate(zip(cls.__slots__, cls._stores)):
        marker = object()
        store(record, marker)
        assert getattr(record, name) is marker
        assert all(not hasattr(record, later) for later in cls.__slots__[i + 1:])


def test_only_perm_may_call_object_setattr():
    package = Path(__file__).resolve().parents[1] / "src" / "hypermap_codes"
    modules = sorted(package.glob("*.py"))
    assert len(modules) > 5
    assert [m.name for m in modules
            if m.name != "perm.py" and "object.__setattr__" in m.read_text()] == []


def test_repr_names_the_fields():
    assert repr(BitMatrix(2, 3, (1, 6))) == "BitMatrix(rows=2, cols=3, bits=(1, 6))"
    assert (repr(DistanceResult(2, None, False, 6))
            == "DistanceResult(dx=2, dz=None, no_logicals=False, budget=6)")
    assert (repr(CheckResult("euler-even", True))
            == "CheckResult(name='euler-even', passed=True, detail='')")
    assert repr(Permutation((1, 2, 0))) == "Permutation.parse('(1 2 3)', 3)"


# the permutations and the six orbit fields read from the walked families
HYPERMAP_FIELDS = ("alpha", "sigma", "vertices", "edges", "faces",
                   "vertex_index", "edge_index", "face_index")


@pytest.mark.parametrize("build", [lambda h: h, dual], ids=["constructed", "derived"])
def test_hypermap_refuses_assignment_and_deletion(torus8, build):
    h = build(torus8)
    chi = euler_characteristic(h)
    for name in HYPERMAP_FIELDS:
        value = getattr(h, name)
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(h, name, h.sigma)
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(h, name)
        assert getattr(h, name) is value
    with pytest.raises(AttributeError):
        h.extra = 1
    assert euler_characteristic(h) == chi


@pytest.mark.parametrize("build", [lambda h: h, dual], ids=["constructed", "derived"])
def test_hypermap_pickles_and_deep_copies_through_its_constructor(torus8, build):
    h = build(torus8)
    copies = [pickle.loads(pickle.dumps(h, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for made in (*copies, copy.deepcopy(h), copy.copy(h)):
        assert type(made) is Hypermap and made == h and hash(made) == hash(h)
        assert all(getattr(made, name) == getattr(h, name) for name in HYPERMAP_FIELDS)


def test_derived_record(torus8):
    x = Derived(torus8)
    assert x == Derived(h=torus8) and x.h is torus8
    assert x != Derived(x.dual)
    with pytest.raises(TypeError):
        hash(x)
    assert repr(x) == f"Derived(h={torus8!r})"
    assert x.face_code.k == 2
    copy = pickle.loads(pickle.dumps(x))
    assert copy == x and copy.face_code.k == 2


def test_importing_the_cli_loads_no_dataclasses_inspect_or_json():
    src = Path(__file__).resolve().parents[1] / "src"
    script = (f"import sys; sys.path.insert(0, {str(src)!r}); import hypermap_codes.cli; "
              "print(sorted({'dataclasses', 'inspect', 'json'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-I", "-c", script],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def _filled_and_empty(torus8, name):
    """Two equal records, the first with its cache filled and the second empty."""
    if name == "QuotientCode":
        filled, empty = face_code(torus8), face_code(torus8)
        assert filled.k == 2
        assert filled._forests is not None and empty._forests is None
    else:
        filled, empty = (Hypermap(torus8.alpha, torus8.sigma) for _ in range(2))
        assert len(filled.faces) == 4
        assert filled._families is not None and empty._families is None
    return filled, empty


@pytest.mark.parametrize("name", ["QuotientCode", "Hypermap"])
def test_a_filled_cache_is_not_a_field(torus8, name):
    filled, empty = _filled_and_empty(torus8, name)
    assert filled == empty and empty == filled and len({filled, empty}) == 1
    assert hash(filled) == hash(empty)
    assert repr(filled) == repr(empty)
    copies = [pickle.loads(pickle.dumps(filled, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for made in (*copies, copy.copy(filled), copy.deepcopy(filled)):
        assert type(made) is type(filled) and made == filled and made == empty
        assert hash(made) == hash(filled) and repr(made) == repr(filled)


def test_a_cache_is_not_a_constructor_argument(records):
    fields, _ = records[QuotientCode]
    slots = QuotientCode.__slots__
    assert QuotientCode._fields == tuple(fields) == tuple(s for s in slots if s[0] != "_")
    assert Hypermap._fields == ("alpha", "sigma")
    code = QuotientCode(**fields)
    assert code._forests is None and "_forests" not in repr(code)
    with pytest.raises(TypeError):
        QuotientCode(**fields, _forests=(bytearray(), bytearray()))
    with pytest.raises(TypeError):
        QuotientCode(*fields.values(), 2)
    with pytest.raises(AttributeError):
        code._forests = (bytearray(), bytearray())
