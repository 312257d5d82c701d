"""The immutable record base behind the package's public value types."""

import copy
import pickle
from fractions import Fraction

import pytest

from tropsched import TropMatrix, TropScalar, TropVector, solve_makespan
from tropsched._record import Record
from tropsched.optimize import EmptyBoxError, SolutionFamily
from tropsched.scheduling import ProjectInstance, Schedule, ScheduleFamily, Violation


class Point(Record):
    x: int
    y: int = 0
    label: str | None = None


class Point3(Point):
    z: int = 5


class Twin(Record):
    x: int
    y: int = 0
    label: str | None = None


class Positive(Record):
    value: int

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("value must be positive")


def test_construction_by_position_keyword_and_default():
    assert Point(1, 2, "a") == Point(x=1, y=2, label="a") == Point(1, label="a", y=2)
    p = Point(7)
    assert (p.x, p.y, p.label) == (7, 0, None)
    assert Point3(1, z=9) == Point3(1, 0, None, 9)
    assert Point3._fields == ("x", "y", "label", "z")


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((), {}, "missing field 'x'"),
        ((), {"y": 1}, "missing field 'x'"),
        ((1,), {"w": 1}, "unexpected field 'w'"),
        ((1,), {"x": 2}, "multiple values for field 'x'"),
        ((1, 2, "a", 4), {}, "takes 3 arguments but 4 were given"),
    ],
    ids=["missing", "missing-with-keyword", "unknown", "repeated", "too-many"],
)
def test_bad_arguments_are_type_errors(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Point(*args, **kwargs)


def test_assignment_and_deletion_raise():
    p = Point(1)
    with pytest.raises(AttributeError, match="cannot assign"):
        p.x = 2
    with pytest.raises(AttributeError, match="cannot assign"):
        p.other = 2
    with pytest.raises(AttributeError, match="cannot delete"):
        del p.x
    assert p == Point(1)


def test_equality_and_hash_by_type_and_values():
    assert Point(1, 2) == Point(1, 2)
    assert hash(Point(1, 2)) == hash(Point(1, 2)) == hash((1, 2, None))
    assert Point(1, 2) != Point(2, 1)
    # another type with the same fields and values is not equal
    assert Twin(1, 2) != Point(1, 2)
    assert Point3(1, 2, None, 5) != Point(1, 2)
    assert Point(1) != (1, 0, None)
    assert len({Point(1), Point(1), Point(2)}) == 2


def test_validation_runs_on_construction_and_replace():
    with pytest.raises(ValueError, match="positive"):
        Positive(0)
    p = Positive(3)
    assert p.replace(value=4) == Positive(4)
    with pytest.raises(ValueError, match="positive"):
        p.replace(value=-1)
    with pytest.raises(TypeError, match="unexpected field 'other'"):
        p.replace(other=1)
    assert p == Positive(3)


# recorded from the frozen dataclasses these records replaced
VIOLATION_REPR = (
    "Violation(kind='start-start', where=(0, 1),"
    " amount=TropScalar(Fraction(1, 2)), detail='x')"
)
SCHEDULE_REPR = "Schedule(start=TropVector([0, 1]), finish=TropVector([2, 7/2]))"
DOCUMENT_REPR = (
    "InstanceDocument(names=('session-1', 'session-2', 'session-3', 'session-4',"
    " 'session-5'), instance=ProjectInstance(start_start=TropMatrix([[0, -oo, -oo,"
    " 0, -oo], [1, 0, -oo, -oo, -oo], [-oo, -oo, 0, 1, -1], [0, -oo, -oo, 0, -oo],"
    " [-oo, -oo, -1, -oo, 0]]), start_finish=TropMatrix([[4, -oo, -oo, -oo, -oo],"
    " [-oo, 4, -oo, -oo, -oo], [-oo, -oo, 5, -oo, -oo], [-oo, -oo, -oo, 5, -oo],"
    " [-oo, -oo, -oo, -oo, 3]]), finish_start=TropMatrix([[-oo, -oo, -oo, -oo,"
    " -oo], [-oo, -oo, -oo, -oo, -oo], [0, -oo, -oo, -oo, -oo], [-oo, -oo, -oo,"
    " -oo, -oo], [-oo, 0, -oo, 0, -oo]]), release=TropVector([0, 0, 0, 0, 0]),"
    " start_deadline=TropVector([4, 5, 8, 9, 5]), finish_deadline=TropVector([12,"
    " 12, 12, 15, 12])), title='Vaccination sessions', unit='hour')"
)


def test_repr_matches_the_dataclass_text(doc):
    v = Violation(kind="start-start", where=(0, 1), amount=TropScalar(Fraction(1, 2)),
                  detail="x")
    assert repr(v) == VIOLATION_REPR
    s = Schedule(start=TropVector([0, 1]), finish=TropVector([2, Fraction(7, 2)]))
    assert repr(s) == SCHEDULE_REPR
    assert repr(doc) == DOCUMENT_REPR


def test_field_order():
    assert ProjectInstance._fields == (
        "start_start", "start_finish", "finish_start",
        "release", "start_deadline", "finish_deadline",
    )
    assert SolutionFamily._fields == ("theta", "G", "u_low", "u_high", "B", "g", "h")
    # a ScheduleFamily is a SolutionFamily with two more fields
    assert ScheduleFamily._fields == SolutionFamily._fields + ("objective", "instance")


def test_replace_rechecks_the_family_box(inst):
    fam = solve_makespan(inst)
    assert fam.replace() == fam
    below = TropVector([v - 1 for v in fam.u_low._e])
    with pytest.raises(EmptyBoxError, match="u_low exceeds u_high"):
        fam.replace(u_high=below)
    # the cached tolerance is not a field and does not travel
    fam._tol
    assert fam.replace(objective="makespan") == fam


def test_replace_rechecks_the_instance_sizes(inst):
    with pytest.raises(ValueError, match="release vector must have length 5"):
        inst.replace(release=TropVector([0, 0]))
    with pytest.raises(ValueError, match="start-finish matrix must be 5x5"):
        inst.replace(start_finish=TropMatrix.identity(4))


@pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                   lambda r: pickle.loads(pickle.dumps(r))],
                         ids=["copy", "deepcopy", "pickle"])
def test_copies_are_equal_records(inst, doc, clone):
    fam = solve_makespan(inst)
    for record in (inst, doc, fam, Point(1, label="a")):
        twin = clone(record)
        assert type(twin) is type(record)
        assert twin == record
