"""Instance and schedule text formats plus the result JSON round trip."""

import json
from fractions import Fraction

import pytest

import golden
from tropsched import (
    InstanceFormatError,
    ResultDocument,
    Schedule,
    TropMatrix,
    TropScalar,
    TropVector,
    extract_schedule,
    load_instance,
    parse_instance,
    parse_schedule,
    result_from_json,
    result_to_json,
    serialize_instance,
    serialize_schedule,
    solve_makespan,
)

N = None

MINIMAL = """
activity a release=0 start-by=5 finish-by=9
activity b start-by=6 finish-by=9
start-finish a -> a lag=2
start-finish b -> b lag=3
start-start a -> b lag=1
"""


class TestParseInstance:
    def test_fixture_matches_golden(self, doc):
        assert doc.names == golden.NAMES
        assert doc.title == golden.TITLE
        assert doc.unit == golden.UNIT
        assert doc.n == 5
        inst = doc.instance
        assert inst.start_start == TropMatrix(golden.B_ROWS)
        assert inst.start_finish == TropMatrix(golden.c_rows())
        assert inst.finish_start == TropMatrix(golden.D_ROWS)
        assert inst.release == TropVector(golden.RELEASE)
        assert inst.start_deadline == TropVector(golden.START_BY)
        assert inst.finish_deadline == TropVector(golden.FINISH_BY)

    def test_constraint_orientation(self):
        # "a -> b" bounds b: the lag lands in row b, column a
        doc = parse_instance(MINIMAL)
        assert doc.instance.start_start[1, 0] == TropScalar(1)
        assert doc.instance.start_start[0, 1].is_bottom

    def test_release_is_optional(self):
        doc = parse_instance(MINIMAL)
        assert doc.instance.release == TropVector([0, N])

    def test_diagonal_defaults_to_identity(self):
        doc = parse_instance(MINIMAL)
        assert doc.instance.start_start[0, 0] == TropScalar(0)
        bare = parse_instance(MINIMAL, diagonal_one=False)
        assert bare.instance.start_start[0, 0].is_bottom

    def test_comments_and_blank_lines(self):
        doc = parse_instance(
            "# header\nactivity a start-by=1 finish-by=2  # trailing\n\n"
            "start-finish a -> a lag=1\n"
        )
        assert doc.names == ("a",)

    def test_exact_numbers(self):
        doc = parse_instance(
            "activity a release=-1/2 start-by=4.5 finish-by=9\n"
            "start-finish a -> a lag=7/2\n"
        )
        inst = doc.instance
        assert inst.release[0].value == Fraction(-1, 2)
        assert inst.start_deadline[0].value == Fraction(9, 2)
        assert inst.start_finish[0, 0].value == Fraction(7, 2)

    def test_float_mode(self):
        doc = parse_instance(
            "activity a release=1e1 start-by=20.5 finish-by=30\n"
            "start-finish a -> a lag=2\n",
            mode="float",
        )
        assert doc.instance.release[0].value == 10.0
        assert type(doc.instance.start_deadline[0].value) is float

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_matrices_hold_normalized_payloads(self, mode):
        # the parser builds its matrices without a second normalization
        # pass, so each entry must already be what that pass would give
        doc = parse_instance(
            "activity a start-by=9 finish-by=20\n"
            "activity b start-by=9 finish-by=20\n"
            "start-finish a -> a lag=3.0\n"
            "start-finish b -> b lag=3.5\n"
            "start-start a -> b lag=-2.0\n"
            "finish-start b -> a lag=0.5\n",
            mode=mode,
        )
        inst = doc.instance
        for m in (inst.start_start, inst.start_finish, inst.finish_start):
            again = TropMatrix(m._rows)._rows
            assert m._rows == again
            assert [list(map(type, r)) for r in m._rows] == [
                list(map(type, r)) for r in again
            ]

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            parse_instance(MINIMAL, mode="decimal")


class TestParseErrors:
    def _err(self, text, **kw):
        with pytest.raises(InstanceFormatError) as ei:
            parse_instance(text, **kw)
        return ei.value

    def test_unknown_directive(self):
        e = self._err("frobnicate a -> b lag=1\n")
        assert "unknown directive" in str(e)
        assert e.line == 1
        assert str(e).startswith("line 1:")

    def test_activity_errors(self):
        assert "activity needs a name" in str(self._err("activity\n"))
        assert "bad activity name" in str(
            self._err("activity -x start-by=1 finish-by=2\n")
        )
        dup = (
            "activity a start-by=1 finish-by=2\n"
            "activity a start-by=1 finish-by=2\n"
        )
        e = self._err(dup + "start-finish a -> a lag=1\n")
        assert "duplicate activity" in str(e) and e.line == 2
        assert "bad activity field" in str(
            self._err("activity a starts=1\n")
        )
        assert "duplicate field" in str(
            self._err("activity a start-by=1 start-by=2 finish-by=3\n")
        )
        assert "missing finish-by=" in str(
            self._err("activity a start-by=1\nstart-finish a -> a lag=1\n")
        )

    def test_number_errors(self):
        e = self._err("activity a start-by=1e3 finish-by=9\n")
        assert "scientific notation is not allowed in exact mode" in str(e)
        assert "bad number" in str(
            self._err("activity a start-by=abc finish-by=9\n")
        )
        assert "zero denominator" in str(
            self._err("activity a start-by=1/0 finish-by=9\n")
        )
        e = self._err(
            "activity a start-by=nan finish-by=9\n"
            "start-finish a -> a lag=1\n",
            mode="float",
        )
        assert "bad number" in str(e)

    def test_constraint_errors(self):
        base = "activity a start-by=1 finish-by=2\nstart-finish a -> a lag=1\n"
        e = self._err(base + "start-start a b lag=1\n")
        assert "expected 'start-start <from> -> <to> lag=<number>'" in str(e)
        e = self._err(base + "start-start a -> z lag=1\n")
        assert "unknown activity 'z'" in str(e)
        e = self._err(base + "start-start a -> a lag=1\nstart-start a -> a lag=2\n")
        assert "duplicate constraint start-start a -> a" in str(e)

    def test_structural_errors(self):
        assert "no activities defined" in str(self._err("# empty\n"))
        e = self._err("activity a start-by=1 finish-by=2\n")
        assert "is on the start side of no start-finish constraint" in str(e)
        assert "add its duration" in str(e)
        assert "start-finish a -> a lag=<duration>" in str(e)


class TestLoadInstance:
    def test_load_fixture(self):
        doc = load_instance(golden.fixture("vaccination.inst"))
        assert doc.names == golden.NAMES

    def test_error_carries_the_path(self, tmp_path):
        bad = tmp_path / "broken.inst"
        bad.write_text("activity\n")
        with pytest.raises(InstanceFormatError) as ei:
            load_instance(str(bad))
        assert str(bad) in str(ei.value)
        assert "line 1" in str(ei.value)


class TestSerializeInstance:
    def test_round_trip(self, doc):
        text = serialize_instance(doc)
        again = parse_instance(text)
        assert again == doc

    def test_round_trip_without_metadata(self):
        doc = parse_instance(MINIMAL)
        assert parse_instance(serialize_instance(doc)) == doc

    def test_skips_bottom_and_identity_diagonal(self, doc):
        text = serialize_instance(doc)
        assert "session-1 -> session-1 lag=0" not in text
        assert "-oo" not in text


class TestScheduleFormat:
    def test_parse(self):
        sched = parse_schedule("a 0 4\nb 1 9/2\n# done\n")
        assert list(sched) == ["a", "b"]
        assert sched["b"] == (TropScalar(1), TropScalar(Fraction(9, 2)))

    def test_parse_errors(self):
        with pytest.raises(InstanceFormatError, match="expected"):
            parse_schedule("a 0\n")
        with pytest.raises(InstanceFormatError, match="duplicate activity"):
            parse_schedule("a 0 1\na 2 3\n")
        with pytest.raises(InstanceFormatError, match="no schedule rows"):
            parse_schedule("# nothing\n")

    def test_serialize_round_trip(self):
        sched = Schedule(
            start=TropVector([0, 1]), finish=TropVector([4, Fraction(9, 2)])
        )
        text = serialize_schedule(("alpha", "b"), sched)
        assert text == "alpha  0  4\nb      1  9/2\n"
        parsed = parse_schedule(text)
        assert parsed["alpha"] == (TropScalar(0), TropScalar(4))
        assert parsed["b"] == (TropScalar(1), TropScalar(Fraction(9, 2)))


def _result_doc(doc):
    fam = solve_makespan(doc.instance)
    hi = extract_schedule(fam, fam.u_high)
    lo = extract_schedule(fam, fam.u_low)
    return ResultDocument(
        objective="makespan",
        mode="exact",
        names=doc.names,
        theta=fam.theta,
        generator=fam.G,
        u_low=fam.u_low,
        u_high=fam.u_high,
        low=lo,
        high=hi,
        unique=lo == hi,
        title=doc.title,
        unit=doc.unit,
    )


class TestResultJson:
    def test_shape(self, doc):
        result = _result_doc(doc)
        obj = json.loads(result_to_json(result))
        assert obj["format"] == "tropsched-result/1"
        assert obj["objective"] == "makespan"
        assert obj["theta"] == "9"
        assert obj["activities"] == list(golden.NAMES)
        assert obj["unique"] is True
        assert obj["schedules"]["low"] == obj["schedules"]["high"]
        assert obj["schedules"]["high"]["start"] == [
            str(v) for v in golden.X_OPT
        ]
        assert obj["generator"][4] == ["5", "4", "1", "5", "0"]
        assert obj["verification"]["high"] == {
            "feasible": True,
            "violations": [],
        }

    def test_round_trip(self, doc):
        result = _result_doc(doc)
        text = result_to_json(result)
        again = result_from_json(text)
        assert again == result
        assert result_to_json(again) == text

    def test_serialization_is_deterministic(self, doc):
        result = _result_doc(doc)
        assert result_to_json(result) == result_to_json(result)

    def test_bottom_and_fraction_scalars(self):
        result = ResultDocument(
            objective="deviation",
            mode="exact",
            names=("a",),
            theta=TropScalar(Fraction(9, 2)),
            generator=TropMatrix([[N]]),
            u_low=TropVector([N]),
            u_high=TropVector([2]),
            low=None,
            high=Schedule(start=TropVector([0]), finish=TropVector([1])),
            unique=False,
            violations_low=None,
        )
        obj = json.loads(result_to_json(result))
        assert obj["theta"] == "9/2"
        assert obj["generator"] == [[None]]
        assert obj["schedules"]["low"] is None
        assert obj["verification"]["low"] is None
        assert result_from_json(result_to_json(result)) == result

    def test_float_mode_uses_numbers(self):
        result = ResultDocument(
            objective="makespan",
            mode="float",
            names=("a",),
            theta=TropScalar(2.5),
            generator=TropMatrix([[0.0]]),
            u_low=TropVector([0.0]),
            u_high=TropVector([1.5]),
            low=None,
            high=Schedule(start=TropVector([0.0]), finish=TropVector([2.5])),
            unique=False,
            violations_low=None,
        )
        obj = json.loads(result_to_json(result))
        assert obj["theta"] == 2.5
        assert result_from_json(result_to_json(result)).theta.value == 2.5

    def test_reject_bad_documents(self):
        with pytest.raises(InstanceFormatError, match="bad result document"):
            result_from_json("not json at all")
        with pytest.raises(InstanceFormatError, match="expected format"):
            result_from_json(json.dumps({"format": "something-else"}))
        with pytest.raises(InstanceFormatError, match="bad result document"):
            result_from_json(json.dumps({"format": "tropsched-result/1"}))
        with pytest.raises(InstanceFormatError, match="bad scalar"):
            result_from_json(
                json.dumps(
                    {
                        "format": "tropsched-result/1",
                        "objective": "makespan",
                        "mode": "exact",
                        "activities": ["a"],
                        "theta": True,
                        "generator": [[None]],
                        "u_low": [None],
                        "u_high": ["1"],
                        "schedules": {"low": None, "high": {"start": ["0"], "finish": ["1"]}},
                        "unique": False,
                        "verification": {"low": None, "high": None},
                    }
                )
            )

    def test_zero_denominator_scalar(self, doc):
        obj = json.loads(result_to_json(_result_doc(doc)))
        obj["theta"] = "1/0"
        with pytest.raises(InstanceFormatError, match="bad scalar '1/0'"):
            result_from_json(json.dumps(obj))

    @pytest.mark.parametrize(
        "cut",
        [
            lambda o: o["activities"].pop(),
            lambda o: o["generator"].pop(),
            lambda o: o["schedules"]["high"]["finish"].pop(),
            lambda o: o["u_high"].pop(),
        ],
        ids=["activities", "generator", "schedule", "u_high"],
    )
    def test_size_mismatch(self, doc, cut):
        obj = json.loads(result_to_json(_result_doc(doc)))
        cut(obj)
        with pytest.raises(InstanceFormatError, match="bad result document"):
            result_from_json(json.dumps(obj))
