"""Instance and schedule text formats plus the result JSON round trip."""

import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import golden
import randgen
from tropsched import (
    InstanceDocument,
    InstanceFormatError,
    ResultDocument,
    Schedule,
    TropMatrix,
    TropScalar,
    TropVector,
    Violation,
    extract_schedule,
    load_instance,
    parse_instance,
    parse_schedule,
    result_from_json,
    result_to_json,
    serialize_instance,
    serialize_schedule,
    solve_makespan,
    verify_schedule,
)
from tropsched import _kernels
from tropsched.cli import main

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

    @given(
        st.integers(-(10**30), 10**30),
        st.sampled_from(["", "+", "0", "00"]),
    )
    def test_integer_tokens_parse_to_exact_ints(self, k, prefix):
        tok = (prefix if k >= 0 else "-" + prefix.lstrip("+")) + str(abs(k))
        doc = parse_instance(
            f"activity a release={tok} start-by={tok} finish-by=9\n"
            f"start-finish a -> a lag={tok}\n"
        )
        inst = doc.instance
        for value in (inst.release[0].value, inst.start_finish[0, 0].value):
            assert value == Fraction(tok) and type(value) is int

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            parse_instance(MINIMAL, mode="decimal")


class TestParsedIntArrays:
    """The parser records each matrix's finite entries; its int64 array is
    built from them and must be the one its payload rows convert to."""

    @staticmethod
    def _reparse(inst):
        names = tuple(f"t{i}" for i in range(inst.n))
        text = serialize_instance(InstanceDocument(names=names, instance=inst))
        return parse_instance(text).instance

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from(["random", "layered"]))
    def test_array_equals_the_payload_conversion(self, seed, kind):
        rng = random.Random(seed)
        if kind == "random":
            inst = randgen.rand_instance(rng, nmin=1, nmax=30)
        else:
            inst = randgen.layered_instance(rng, rng.randint(1, 60))
        parsed = self._reparse(inst)
        for m in (parsed.start_start, parsed.start_finish, parsed.finish_start):
            assert m._finite is not None
            assert np.array_equal(
                m._int_array(), _kernels.from_payload_rows(m._rows)
            )

    @pytest.mark.parametrize(
        "lag, converts",
        [
            ("5/2", False),
            (str(_kernels.MAG_CAP), True),
            (str(-_kernels.MAG_CAP), True),
            (str(_kernels.MAG_CAP + 1), False),
            (str(-_kernels.MAG_CAP - 1), False),
        ],
    )
    def test_refused_entries(self, lag, converts):
        doc = parse_instance(
            "activity a start-by=9 finish-by=20\n"
            "activity b start-by=9 finish-by=20\n"
            "start-finish a -> a lag=3\n"
            "start-finish b -> b lag=3\n"
            f"start-start a -> b lag={lag}\n"
        )
        b = doc.instance.start_start
        want = _kernels.from_payload_rows(b._rows)
        assert (want is not None) is converts
        got = b._int_array()
        assert got is None if want is None else np.array_equal(got, want)

    def test_float_mode_does_not_convert(self):
        doc = parse_instance(MINIMAL, mode="float")
        assert doc.instance.start_finish._int_array() is None

    def test_rows_built_from_entries(self):
        doc = parse_instance(
            "activity a start-by=9 finish-by=20\n"
            "activity b start-by=9 finish-by=20\n"
            "activity c start-by=9 finish-by=20\n"
            "start-start c -> a lag=2\n"
            "start-start b -> b lag=-1\n"
            "start-finish c -> c lag=3\n"
            "start-finish a -> a lag=3\n"
            "start-finish b -> b lag=1/2\n"
            "start-finish a -> c lag=4\n"
        )
        inst = doc.instance
        expected = {
            "start_start": [[0, N, 2], [N, -1, N], [N, N, 0]],
            "start_finish": [[3, N, N], [N, Fraction(1, 2), N], [4, N, 3]],
            "finish_start": [[N, N, N]] * 3,
        }
        for name, rows in expected.items():
            m = getattr(inst, name)
            assert m._rowcache is None
            assert m._rows == TropMatrix(rows)._rows
        assert inst.start_finish._entries() == [
            (0, 0, 3), (1, 1, Fraction(1, 2)), (2, 0, 4), (2, 2, 3)
        ]

    @pytest.mark.parametrize("n", [25, 300])
    def test_solve_and_verify_leave_the_rows_unbuilt(self, n):
        # integer, n >= 20: reduce, the products with 1 and f~, G u, C x and
        # the self-check all read the parsed matrices' entries or int64
        # arrays, never payload rows
        parsed = self._reparse(randgen.layered_instance(random.Random(n), n))
        fam = solve_makespan(parsed)
        for u in (fam.u_low, fam.u_high):
            if u.is_nonzero:
                assert verify_schedule(parsed, extract_schedule(fam, u)).feasible
        for m in (parsed.start_start, parsed.start_finish, parsed.finish_start):
            assert m._rowcache is None


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
        # a superscript two is a digit to str.isdigit() but not to int()
        assert str(self._err("activity a start-by=\u00b2 finish-by=9\n")) == (
            "line 1: bad number '\u00b2'"
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

    def test_line_errors_precede_name_errors(self):
        # constraint names resolve once every line is read: a malformed
        # line anywhere is reported before an unknown name on an earlier one
        e = self._err(
            "start-start a -> z lag=1\nactivity -x start-by=1 finish-by=2\n"
        )
        assert "bad activity name" in str(e) and e.line == 2
        e = self._err(
            "activity a start-by=1 finish-by=2\nstart-finish a -> a lag=1\n"
            "start-start a -> z lag=1\nstart-start y -> a lag=1\n"
        )
        assert "unknown activity 'z'" in str(e) and e.line == 3
        # a number is read once per file, but a bad one is never kept
        e = self._err(
            "activity a start-by=1 finish-by=2\nstart-finish a -> a lag=1e3\n"
            "start-start a -> a lag=1e3\n"
        )
        assert "scientific notation" in str(e) and e.line == 2

    def test_structural_errors(self):
        assert "no activities defined" in str(self._err("# empty\n"))
        e = self._err("activity a start-by=1 finish-by=2\n")
        assert "is on the start side of no start-finish constraint" in str(e)
        assert "add its duration" in str(e)
        assert "start-finish a -> a lag=<duration>" in str(e)

    def test_first_activity_without_a_duration_is_named(self):
        # c is the target of a start-finish constraint, not its start side
        e = self._err(
            "activity c start-by=1 finish-by=2\n"
            "activity a start-by=1 finish-by=2\n"
            "activity b start-by=1 finish-by=2\n"
            "start-finish a -> c lag=1\n"
        )
        assert "activity 'c' is on the start side of no start-finish" in str(e)
        e = self._err(
            "activity a start-by=1 finish-by=2\n"
            "activity b start-by=1 finish-by=2\n"
            "activity c start-by=1 finish-by=2\n"
            "start-finish a -> a lag=1\n"
            "start-finish c -> c lag=1\n"
        )
        assert "'start-finish b -> b lag=<duration>'" in str(e)


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


def _reference_json(doc):
    """The result document as `json.dumps(obj, indent=2)` wrote it, built
    from public values: the layout `result_to_json` must keep byte for byte."""

    def scalar(s):
        v = s.value
        return v if v is None or isinstance(v, float) else str(v)

    def vector(vec):
        return [scalar(s) for s in vec]

    def schedule(sched):
        if sched is None:
            return None
        return {"start": vector(sched.start), "finish": vector(sched.finish)}

    def violations(vs):
        if vs is None:
            return None
        return {
            "feasible": not vs,
            "violations": [
                {
                    "kind": v.kind,
                    "where": list(v.where),
                    "amount": scalar(v.amount),
                    "detail": v.detail,
                }
                for v in vs
            ],
        }

    rows, cols = doc.generator.shape
    obj = {
        "format": "tropsched-result/1",
        "objective": doc.objective,
        "mode": doc.mode,
        "title": doc.title,
        "unit": doc.unit,
        "activities": list(doc.names),
        "theta": scalar(doc.theta),
        "generator": [
            [scalar(doc.generator[i, j]) for j in range(cols)] for i in range(rows)
        ],
        "u_low": vector(doc.u_low),
        "u_high": vector(doc.u_high),
        "schedules": {"low": schedule(doc.low), "high": schedule(doc.high)},
        "unique": doc.unique,
        "verification": {
            "low": violations(doc.violations_low),
            "high": violations(doc.violations_high),
        },
    }
    return json.dumps(obj, indent=2) + "\n"


_FINITE = st.one_of(
    st.integers(-(10**20), 10**20),
    st.fractions(max_denominator=50),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e300, -1e300, 5e-324]),
)
_PAYLOADS = st.none() | _FINITE
_TEXTS = st.one_of(
    st.sampled_from(
        ['say "hi"', "back\\slash\\", "tab\tnl\nnul\x00\x1f\x7f", "Zürich ☃ 𝄞", ""]
    ),
    st.text(max_size=12),
)


@st.composite
def result_docs(draw, generator=None):
    """A ResultDocument of arbitrary payloads and strings; `generator`, when
    given, is a strategy for the generator matrix."""
    n = draw(st.integers(1, 5))
    if generator is None:
        cols = draw(st.integers(1, n))
        rows = draw(st.lists(
            st.lists(_PAYLOADS, min_size=cols, max_size=cols), min_size=n, max_size=n
        ))
        g = TropMatrix(rows)
    else:
        g = draw(generator(n))
    cols = g.shape[1]

    def vector(size, entries=_PAYLOADS):
        return TropVector(draw(st.lists(entries, min_size=size, max_size=size)))

    def schedule():
        return Schedule(start=vector(n, _FINITE), finish=vector(n, _FINITE))

    violations = st.lists(
        st.builds(
            Violation,
            kind=_TEXTS,
            where=st.lists(st.integers(0, 9), max_size=3).map(tuple),
            amount=_PAYLOADS.map(TropScalar),
            detail=_TEXTS,
        ),
        max_size=2,
    ).map(tuple)
    low = draw(st.none() | st.builds(schedule))
    return ResultDocument(
        objective=draw(st.sampled_from(["makespan", "deviation"]) | _TEXTS),
        mode=draw(st.sampled_from(["exact", "float"])),
        names=tuple(draw(st.lists(_TEXTS, min_size=n, max_size=n))),
        theta=TropScalar(draw(_PAYLOADS)),
        generator=g,
        u_low=vector(cols),
        u_high=vector(cols),
        low=low,
        high=schedule(),
        unique=draw(st.booleans()),
        title=draw(st.none() | _TEXTS),
        unit=draw(st.none() | _TEXTS),
        violations_low=None if low is None else draw(violations),
        violations_high=draw(violations),
    )


def _int_generators(n):
    """Square int64 generators, bottoms at the sentinel or drifted above it
    up to the cutoff; read the sentinels when drawn, so they may be shrunk."""
    neg, cutoff, cap = _kernels.NEG, _kernels.BOTTOM_CUTOFF, _kernels.MAG_CAP
    entry = st.one_of(
        st.integers(-cap, cap),
        st.sampled_from([neg, cutoff, neg + 1, cutoff - 1, -cap, cap]),
        st.integers(neg, cutoff),
    )
    return st.lists(entry, min_size=n * n, max_size=n * n).map(
        lambda flat: TropMatrix._from_int_array(
            np.array(flat, dtype=np.int64).reshape(n, n)
        )
    )


def _with_payload_generator(doc):
    """`doc` with its generator as the payload rows the array boxes to."""
    arr = doc.generator._held_int_array()
    g = TropMatrix._from_rows(_kernels.to_payload_rows(arr))
    return doc.replace(generator=g)


def _array_doc(rows):
    """A result document whose generator holds the int64 array of `rows`."""
    arr = np.array(rows, dtype=np.int64)
    m, n = arr.shape
    return ResultDocument(
        objective="makespan",
        mode="exact",
        names=tuple(f"a{i}" for i in range(m)),
        theta=TropScalar(3),
        generator=TropMatrix._from_int_array(arr),
        u_low=TropVector([N] * n),
        u_high=TropVector([0] * n),
        low=None,
        high=Schedule(start=TropVector([0] * m), finish=TropVector([1] * m)),
        unique=False,
        violations_low=None,
    )


# int64 generators for the array writer, by the index it takes: "B" is a
# bottom at the sentinel, "D" one drifted up to the cutoff, "W" the largest
# magnitude the kernels admit; the offset index holds while the finite
# span is no wider than the entry count
_ARRAY_CASES = {
    "1x1": ([[7]], "offset"),
    "1x1 bottom": ([["B"]], "offset"),
    "1xn": ([[1, "B", 3, 2]], "offset"),
    "nx1": ([[1], ["D"], [3]], "offset"),
    "bottom row": ([[1, 2], ["B", "D"], [3, 4]], "offset"),
    "last entry bottom": ([[1, 2], [3, "B"]], "offset"),
    "all bottoms": ([["B", "D"], ["D", "B"]], "offset"),
    "span equals the entry count": ([[0, 4], [1, "D"]], "offset"),
    "span one past the entry count": ([[0, 5], [1, "D"]], "unique"),
    "wide": ([["W", "-W"], [0, 7]], "unique"),
    "wide 1xn": ([["W", "B", "-W"]], "unique"),
    "wide nx1": ([["W"], ["D"], ["-W"]], "unique"),
    "wide bottom row": ([["W", "-W"], ["B", "D"]], "unique"),
    "wide last entry bottom": ([[1, "-W"], ["W", "B"]], "unique"),
}


class TestResultWriter:
    """result_to_json writes the bytes `json.dumps(obj, indent=2)` wrote."""

    @settings(max_examples=100, deadline=None)
    @given(result_docs())
    def test_matches_the_indented_encoder(self, doc):
        assert result_to_json(doc) == _reference_json(doc)

    @settings(max_examples=50, deadline=None)
    @given(result_docs(generator=_int_generators))
    def test_int64_generator_matches_its_payload_rows(self, doc):
        text = result_to_json(doc)
        assert doc.generator._rowcache is None
        assert text == result_to_json(_with_payload_generator(doc))
        assert text == _reference_json(doc)

    def test_drifted_bottoms_print_null(self, small_sentinels):
        @settings(max_examples=50, deadline=None)
        @given(result_docs(generator=_int_generators))
        def check(doc):
            text = result_to_json(doc)
            assert doc.generator._rowcache is None
            assert text == result_to_json(_with_payload_generator(doc))

        check()
        doc = _array_doc(
            [[_kernels.NEG, _kernels.NEG + 7], [_kernels.BOTTOM_CUTOFF, 3]]
        )
        assert json.loads(result_to_json(doc))["generator"] == [
            [None, None],
            [None, "3"],
        ]

    @pytest.mark.parametrize("sentinels", ["real", "small"])
    @pytest.mark.parametrize("case", list(_ARRAY_CASES))
    def test_array_shapes_and_spans(self, request, monkeypatch, case, sentinels):
        if sentinels == "small":
            request.getfixturevalue("small_sentinels")
        rows, path = _ARRAY_CASES[case]
        marks = {
            "B": _kernels.NEG,
            "D": _kernels.BOTTOM_CUTOFF,
            "W": _kernels.MAG_CAP,
            "-W": -_kernels.MAG_CAP,
        }
        doc = _array_doc([[marks.get(v, v) for v in row] for row in rows])
        sorts = []
        unique = np.unique
        with monkeypatch.context() as m:
            m.setattr(np, "unique", lambda *a, **k: sorts.append(a) or unique(*a, **k))
            text = result_to_json(doc)
        assert bool(sorts) == (path == "unique")
        assert doc.generator._rowcache is None
        assert text == _reference_json(doc)
        assert text == result_to_json(_with_payload_generator(doc))

    def test_array_without_columns(self):
        doc = _array_doc(np.empty((2, 0), dtype=np.int64))
        assert doc.generator._held_int_array() is not None
        assert result_to_json(doc) == _reference_json(doc)

    def test_one_piece_per_value_and_row_end(self):
        calls = []

        def piece(v, ends_row):
            calls.append((v, ends_row))
            return f"{v}{'|' if ends_row else ','}"

        arr = np.array([[1, 2], [1, 1], [_kernels.NEG, 2]], dtype=np.int64)
        assert "".join(_kernels.json_pieces(arr, piece)) == "1,2|1,1|None,2|"
        assert sorted(calls, key=repr) == sorted(
            [(1, False), (2, True), (1, True), (None, False)], key=repr
        )

    @pytest.mark.parametrize("objective", ["makespan", "deviation"])
    def test_solver_generator_is_encoded_from_its_array(self, monkeypatch, objective):
        # n = 30: below the matvec work threshold, G u still runs on the
        # array G holds, so nothing boxes G
        def result():
            inst = randgen.layered_instance(random.Random(30), 30)
            names = tuple(f"t{i}" for i in range(30))
            return _result_doc(InstanceDocument(names=names, instance=inst))

        with_array = result()
        assert with_array.generator._held_int_array() is not None
        text = result_to_json(with_array)
        assert with_array.generator._rowcache is None
        with monkeypatch.context() as m:
            m.setattr(_kernels, "available", lambda: False)
            payload = result()
            assert payload.generator._held_int_array() is None
            assert result_to_json(payload) == text

    def test_one_activity(self):
        doc = parse_instance(
            "activity a release=0 start-by=5 finish-by=9\n"
            "start-finish a -> a lag=2\n"
        )
        result = _result_doc(doc)
        assert result_to_json(result) == _reference_json(result)

    def test_empty_violation_lists_and_non_empty_ones(self, doc):
        result = _result_doc(doc).replace(
            violations_low=(),
            violations_high=(
                Violation("release", (0,), TropScalar(Fraction(1, 2)), 'a "b"'),
            ),
        )
        text = result_to_json(result)
        assert text == _reference_json(result)
        assert '"violations": []' in text
        assert '"where": [\n            0\n          ]' in text

    def test_fixture_document_is_golden(self, capsys):
        argv = ["solve", golden.fixture("vaccination.inst"),
                "--objective", "makespan", "--format", "json"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.encode("utf-8") == golden.FIXTURES.joinpath(
            "vaccination-makespan.json"
        ).read_bytes()
