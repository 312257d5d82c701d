"""End-to-end command line behavior and exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest depends on tomli there
    import tomli as tomllib

import golden
import randgen
from tropsched import TropScalar
from tropsched import cli
from tropsched.cli import main
from tropsched.documents import InstanceDocument, serialize_instance
from tropsched.semiring import _IMPORT_DIM

NO_RELEASE = """\
activity a start-by=10 finish-by=20
activity b start-by=10 finish-by=20
start-finish a -> a lag=3
start-finish b -> b lag=4
start-start a -> b lag=1
"""

CYCLIC = """\
activity a start-by=9 finish-by=11
activity b start-by=9 finish-by=11
start-finish a -> a lag=2
start-finish b -> b lag=2
start-start a -> b lag=1
start-start b -> a lag=0
"""

LATE = """\
activity a release=9999 start-by=9999 finish-by=10001
start-finish a -> a lag=2
"""

GOOD_SCHED = """\
session-1 0 4
session-2 1 5
session-3 4 9
session-4 0 5
session-5 5 8
"""

BAD_SCHED = GOOD_SCHED.replace("session-2 1 5", "session-2 0 4")

INSTANCE = golden.fixture("vaccination.inst")
SCHEDULE = golden.fixture("vaccination-optimal.sched")
FIXTURE_RESULT = json.loads(Path(golden.fixture("vaccination-makespan.json")).read_text())
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SRC = PYPROJECT.parent / "src"


class TestSolve:
    def test_text_output(self, capsys):
        assert main(["solve", INSTANCE, "--objective", "makespan"]) == 0
        out = capsys.readouterr().out
        assert "title: Vaccination sessions" in out
        assert "objective: makespan" in out
        assert "optimum: 9" in out
        assert "status: unique optimal schedule" in out
        assert "parameter box: u_low=(0, 0, 0, 0, 0) u_high=(0, 1, 4, 0, 5)" in out
        assert "  session-3  start=4  finish=9" in out

    def test_json_output(self, capsys):
        assert main(["solve", INSTANCE, "--objective", "makespan", "--format", "json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        assert obj["format"] == "tropsched-result/1"
        assert obj["theta"] == "9"
        assert obj["unique"] is True
        assert obj["schedules"]["low"] == obj["schedules"]["high"]
        assert obj["verification"]["high"]["feasible"] is True

    def test_deviation_family(self, capsys):
        assert main(["solve", INSTANCE, "--objective", "deviation"]) == 0
        out = capsys.readouterr().out
        assert "optimum: 5" in out
        assert "status: family of optimal schedules" in out
        assert "earliest optimal schedule (u = u_low):" in out
        assert "latest optimal schedule (u = u_high):" in out
        assert "  session-3  start=5  finish=10" in out

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "result.json"
        code = main(
            [
                "solve", INSTANCE,
                "--objective", "makespan",
                "--format", "json",
                "--out", str(target),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert json.loads(target.read_text())["theta"] == "9"

    @pytest.mark.parametrize("command", ["solve", "chart"])
    @pytest.mark.parametrize(
        "target, reason",
        [("", "Is a directory"), ("missing/result.json", "No such file or directory")],
        ids=["directory", "missing-directory"],
    )
    def test_unwritable_out_is_exit_2(self, tmp_path, capsys, command, target, reason):
        out = tmp_path / target
        if command == "solve":
            argv = ["solve", INSTANCE, "--objective", "makespan", "--format", "json"]
        else:
            argv = ["chart", golden.fixture("vaccination-makespan.json"), "--member", "high"]
        assert main([*argv, "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert reason in captured.err

    def test_no_release_times(self, tmp_path, capsys):
        path = tmp_path / "free.inst"
        path.write_text(NO_RELEASE)
        assert main(["solve", str(path), "--objective", "makespan"]) == 0
        out = capsys.readouterr().out
        assert "earliest optimal schedule: none" in out
        assert "shift arbitrarily early" in out

    def test_float_mode(self, tmp_path, capsys):
        path = tmp_path / "f.inst"
        path.write_text(
            "activity a release=0.5 start-by=4.5 finish-by=9\n"
            "start-finish a -> a lag=3.5\n"
        )
        code = main(["solve", str(path), "--objective", "makespan", "--mode", "float"])
        assert code == 0
        assert "optimum: 3.5" in capsys.readouterr().out

    def test_float_mode_reads_fractions(self, tmp_path, capsys):
        # README: numbers may be fractions in either mode
        outs = []
        for lag in ("3/2", "1.5"):
            path = tmp_path / "frac.inst"
            path.write_text(NO_RELEASE.replace("lag=1\n", f"lag={lag}\n"))
            argv = ["solve", str(path), "--objective", "makespan", "--mode", "float"]
            assert main([*argv, "--format", "json"]) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["theta"] == 5.5

    @pytest.mark.parametrize(
        "lag, message",
        [
            ("3/0", "line 5: bad number '3/0': zero denominator"),
            ("1e3/2", "line 5: bad number '1e3/2'"),
        ],
    )
    def test_float_mode_bad_fraction_is_exit_2(self, tmp_path, capsys, lag, message):
        path = tmp_path / "frac.inst"
        path.write_text(NO_RELEASE.replace("lag=1\n", f"lag={lag}\n"))
        for mode in ("float", "exact"):
            argv = ["solve", str(path), "--objective", "makespan", "--mode", mode]
            assert main(argv) == 2
            assert message in capsys.readouterr().err

    def test_float_rounding_cycle_is_not_infeasible(self, tmp_path, capsys):
        # the lags of a -> b -> c -> a sum to 0, and in float to 5.55e-17
        path = tmp_path / "cycle.inst"
        path.write_text(
            "".join(
                f"activity {v} start-by=9 finish-by=9\nstart-finish {v} -> {v} lag=1\n"
                for v in "abc"
            )
            + "start-start a -> b lag=0.1\n"
            "start-start b -> c lag=0.2\n"
            "start-start c -> a lag=-0.3\n"
        )
        argv = ["solve", str(path), "--objective", "makespan", "--format", "json"]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["theta"] == "13/10"
        assert main([*argv, "--mode", "float"]) == 0
        assert abs(json.loads(capsys.readouterr().out)["theta"] - 1.3) <= 1e-9

    def test_float_overflow_is_exit_2(self, tmp_path, capsys):
        # the makespan 1e308 + 1e308 overflows to inf in float arithmetic
        path = tmp_path / "huge.inst"
        path.write_text(
            "activity a start-by=1e308 finish-by=1.7e308\n"
            "activity b start-by=1.7e308 finish-by=1.7e308\n"
            "start-finish a -> a lag=1e308\n"
            "start-finish b -> b lag=1e308\n"
            "start-start a -> b lag=1e308\n"
        )
        code = main(["solve", str(path), "--objective", "makespan", "--mode", "float"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: float arithmetic overflowed")
        assert "--mode exact" in err

    def test_float_rounding_within_the_tolerance_solves(self, tmp_path, capsys):
        # one-decimal data whose rounded sums leave u_high[0] just below
        # u_low[0]; the solver lifts it, as exact arithmetic has it equal
        path = tmp_path / "rounding.inst"
        path.write_text(
            "activity a0 release=0.1 start-by=0.2 finish-by=6.2\n"
            "activity a1 release=0.9 start-by=6.5 finish-by=8.0\n"
            "activity a2 release=0.0 start-by=3.2 finish-by=8.2\n"
            "activity a3 release=0.5 start-by=2.0 finish-by=4.7\n"
            "start-finish a0 -> a0 lag=2.4\n"
            "start-finish a1 -> a1 lag=1.9\n"
            "start-finish a2 -> a2 lag=2.5\n"
            "start-finish a3 -> a3 lag=0.4\n"
            "start-start a0 -> a3 lag=-1.6\n"
            "start-start a3 -> a2 lag=-0.2\n"
        )
        argv = ["solve", str(path), "--objective", "makespan", "--format", "json"]
        assert main(argv + ["--mode", "float"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert abs(doc["theta"] - 2.6) <= 1e-9
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["theta"] == "13/5"

    def test_float_rounding_empty_box_is_exit_2(self, tmp_path, capsys):
        # times near 1e9, where one float step is 1.2e-7: rounding leaves
        # u_high[2] below u_low[2] by more than the 1e-9 tolerance, so the
        # box stays empty; exact arithmetic solves it
        path = tmp_path / "rounding.inst"
        path.write_text(
            "activity a1 release=1000000000.6 start-by=1000000001.4"
            " finish-by=1000000005.2\n"
            "activity a2 release=1000000000.1 start-by=1000000002.8"
            " finish-by=1000000008.9\n"
            "activity a3 release=1000000001.0 start-by=1000000003.2"
            " finish-by=1000000004.7\n"
            "start-finish a1 -> a1 lag=0.1\n"
            "start-finish a2 -> a2 lag=1.9\n"
            "start-finish a3 -> a3 lag=2.9\n"
            "start-start a2 -> a1 lag=0.8\n"
        )
        code = main(["solve", str(path), "--objective", "makespan", "--mode", "float"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: float rounding left the parameter box empty")
        assert "--mode exact" in err
        assert main(["solve", str(path), "--objective", "makespan"]) == 0
        assert "optimum: 33/10" in capsys.readouterr().out

    def test_missing_file(self, capsys):
        assert main(["solve", "/nonexistent.inst", "--objective", "makespan"]) == 2
        assert "error: cannot read /nonexistent.inst" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.inst"
        path.write_text("activity a start-by=1e9 finish-by=2\n")
        assert main(["solve", str(path), "--objective", "makespan"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "line 1" in err
        assert "scientific notation" in err

    @pytest.mark.parametrize(
        "old, new, message",
        [
            (
                "finish-by=12",
                "finish-by=" + "9" * 5000,
                "line 5: bad number '99999999999999999999...': too many digits (5000)",
            ),
            (
                "lag=1\n",
                "lag=1." + "5" * 5000 + "\n",
                "line 12: bad number '1.555555555555555555...': too many digits (5001)",
            ),
        ],
        ids=["finish-by", "decimal-lag"],
    )
    def test_number_past_the_digit_limit_is_exit_2(
        self, tmp_path, capsys, old, new, message
    ):
        # more digits than the interpreter converts to an int (4,300)
        path = tmp_path / "huge.inst"
        path.write_text(Path(INSTANCE).read_text().replace(old, new, 1))
        assert main(["solve", str(path), "--objective", "makespan"]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_infeasible(self, tmp_path, capsys):
        path = tmp_path / "cyclic.inst"
        path.write_text(CYCLIC)
        assert main(["solve", str(path), "--objective", "makespan"]) == 3
        # by index first (tools parse that form), then by name
        assert capsys.readouterr().err == (
            "infeasible: cyclic precedence with positive total lag"
            " (activities 1 -> 0 -> 1): b -> a -> b\n"
        )

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("source", ["nines", "denominators"])
    def test_result_past_the_digit_limit_is_exit_2(self, tmp_path, capsys, fmt, source):
        # every input number is within the 4,300 digits an int converts,
        # but the result's numbers are not
        nines = "9" * 4300
        if source == "nines":
            text = (
                f"activity a start-by={nines} finish-by={nines}\n"
                f"activity b start-by={nines} finish-by={nines}\n"
                f"start-finish a -> a lag={nines}\n"
                "start-finish b -> b lag=1\n"
                f"start-start a -> b lag={nines}\n"
            )
        else:
            # the starts sum lags whose 1,001-digit denominators multiply
            text = "".join(
                f"activity a{i} release=0 start-by=10 finish-by=20\n"
                f"start-finish a{i} -> a{i} lag=1\n"
                for i in range(7)
            ) + "".join(
                f"start-start a{k} -> a{k + 1} lag=1/{10 ** 1000 + k + 1}\n"
                for k in range(6)
            )
        path = tmp_path / "long.inst"
        path.write_text(text)
        argv = ["solve", str(path), "--objective", "makespan", "--format", fmt]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: cannot print the result: a number has more than 4300 digits\n"
        )
        assert captured.out == ""

    def test_unexpected_exception_is_exit_4(self, capsys, monkeypatch):
        import tropsched.cli as cli

        def boom(inst):
            raise RuntimeError("kernel panic")

        monkeypatch.setattr(cli, "solve_makespan", boom)
        assert main(["solve", INSTANCE, "--objective", "makespan"]) == 4
        assert "internal error: RuntimeError: kernel panic" in capsys.readouterr().err

    def test_self_check_failure_is_exit_4(self, capsys, monkeypatch):
        import tropsched.scheduling as scheduling

        monkeypatch.setattr(scheduling, "makespan_value", lambda s: TropScalar(0))
        assert main(["solve", INSTANCE, "--objective", "makespan"]) == 4
        err = capsys.readouterr().err
        assert "internal error: schedule has objective 0, expected 9" in err


def _leaves(obj, path=()):
    """Paths to the leaves of a JSON value; an empty list or object is one."""
    if isinstance(obj, (dict, list)) and obj:
        keys = obj if isinstance(obj, dict) else range(len(obj))
        for key in keys:
            yield from _leaves(obj[key], path + (key,))
    else:
        yield path


JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.integers().map(str)
    | st.sampled_from(["\ud800", "x\udfff", "1e400", "-2E9", "1e7000000"]),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=5), inner, max_size=5),
    max_leaves=10,
)


class TestChart:
    def _result_file(self, tmp_path, objective="makespan", source=INSTANCE):
        path = tmp_path / "result.json"
        code = main(
            ["solve", source, "--objective", objective, "--format", "json", "--out", str(path)]
        )
        assert code == 0
        return str(path)

    def test_ascii_high(self, tmp_path, capsys):
        result = self._result_file(tmp_path)
        assert main(["chart", result, "--member", "high"]) == 0
        out = capsys.readouterr().out
        assert "session-3 ....#####" in out
        assert out.startswith("Vaccination sessions\n")
        assert "(time unit: hour)" in out

    def test_ascii_low_member(self, tmp_path, capsys):
        result = self._result_file(tmp_path, objective="deviation")
        assert main(["chart", result, "--member", "low"]) == 0
        assert "session-3 ....#####" in capsys.readouterr().out

    def test_svg(self, tmp_path, capsys):
        result = self._result_file(tmp_path)
        assert main(["chart", result, "--member", "high", "--format", "svg"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("<svg ")
        assert out.count('class="bar"') == 5

    def test_missing_low_member(self, tmp_path, capsys):
        src = tmp_path / "free.inst"
        src.write_text(NO_RELEASE)
        result = self._result_file(tmp_path, source=str(src))
        assert main(["chart", result, "--member", "low"]) == 2
        assert "no low member" in capsys.readouterr().err

    def test_bad_result_file(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        assert main(["chart", str(path), "--member", "high"]) == 2
        assert "bad result document" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "theta, shown",
        [
            ("1e7000000", "'1e7000000'"),
            ("-2E9", "'-2E9'"),
            ("9" * 25 + "e1", "'99999999999999999999...'"),
        ],
        ids=["huge-exponent", "exponent", "long"],
    )
    def test_exponent_scalar_is_exit_2(self, tmp_path, capsys, theta, shown):
        # Fraction() reads exponents, and "1e7000000" takes it seconds
        obj = json.loads(json.dumps(FIXTURE_RESULT))
        obj["theta"] = theta
        path = tmp_path / "result.json"
        path.write_text(json.dumps(obj))
        assert main(["chart", str(path), "--member", "high"]) == 2
        assert capsys.readouterr() == (
            "", f"error: bad scalar {shown} in result document\n"
        )

    def test_json_number_past_the_digit_limit_is_exit_2(self, tmp_path, capsys):
        text = json.dumps(FIXTURE_RESULT).replace('"theta": "9"', '"theta": 1' + "0" * 5000)
        path = tmp_path / "result.json"
        path.write_text(text)
        assert main(["chart", str(path), "--member", "high"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: bad result document: Exceeds the limit")

    @pytest.mark.parametrize("fmt", ["ascii", "svg"])
    def test_span_over_the_cap(self, tmp_path, capsys, fmt):
        # a finishes at 10001, one unit past what a chart draws
        src = tmp_path / "late.inst"
        src.write_text(LATE)
        result = self._result_file(tmp_path, source=str(src))
        argv = ["chart", result, "--member", "high", "--format", fmt]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "error: cannot chart this schedule" in captured.err
        assert "spans 10001 time units" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("fmt", ["ascii", "svg"])
    def test_span_too_long_to_print(self, tmp_path, capsys, fmt):
        # a start and a finish of 4,300 nines: their span has 4,301 digits,
        # one more than the interpreter converts to text
        obj = json.loads(json.dumps(FIXTURE_RESULT))
        obj["schedules"]["high"]["start"][0] = "-" + "9" * 4300
        obj["schedules"]["high"]["finish"][4] = "9" * 4300
        path = tmp_path / "result.json"
        path.write_text(json.dumps(obj))
        assert main(["chart", str(path), "--member", "high", "--format", fmt]) == 2
        assert capsys.readouterr() == (
            "",
            "error: cannot chart this schedule: schedule spans more than 2**63"
            " time units; a chart draws at most 10000\n",
        )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("activities", [1, 2, 3, 4, 5]),
            ("activities", "abcde"),
            ("activities", ["\ud800", "b", "c", "d", "e"]),
            ("objective", "spread"),
            ("mode", ["exact"]),
            ("title", 7),
            ("unit", ["hour"]),
            ("start", "12345"),
            ("finish", {"a": 1}),
        ],
    )
    def test_wrong_types_are_exit_2(self, tmp_path, capsys, key, value):
        path = Path(self._result_file(tmp_path))
        obj = json.loads(path.read_text())
        if key in ("start", "finish"):
            obj["schedules"]["high"][key] = value
        else:
            obj[key] = value
        path.write_text(json.dumps(obj))
        assert main(["chart", str(path), "--member", "high"]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: bad result document: {key} must be"
        )

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.sampled_from(list(_leaves(FIXTURE_RESULT))), JSON_VALUES)
    def test_any_leaf_replaced_is_exit_0_or_2(self, tmp_path, capsys, path, value):
        obj = json.loads(json.dumps(FIXTURE_RESULT))
        parent = obj
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        result = tmp_path / "result.json"
        result.write_text(json.dumps(obj))
        for member in ("low", "high"):
            for fmt in ("ascii", "svg"):
                code = main(["chart", str(result), "--member", member, "--format", fmt])
                err = capsys.readouterr().err
                assert code in (0, 2), err
                assert "internal error" not in err

    def test_short_activity_list(self, tmp_path, capsys):
        path = Path(self._result_file(tmp_path))
        obj = json.loads(path.read_text())
        obj["activities"].pop()
        path.write_text(json.dumps(obj))
        assert main(["chart", str(path), "--member", "high"]) == 2
        assert "bad result document" in capsys.readouterr().err


class TestVerify:
    def test_feasible(self, capsys):
        assert main(["verify", INSTANCE, SCHEDULE]) == 0
        out = capsys.readouterr().out
        assert "makespan: 9" in out
        assert "deviation: 5" in out
        assert "feasible" in out

    def test_violations_exit_3(self, tmp_path, capsys):
        path = tmp_path / "bad.sched"
        path.write_text(BAD_SCHED)
        assert main(["verify", INSTANCE, str(path)]) == 3
        out = capsys.readouterr().out
        assert (
            "violated start-start at session-2, session-1:"
            " x[1] >= 1 + x[0] (excess 1)" in out
        )

    def test_name_mismatches(self, tmp_path, capsys):
        path = tmp_path / "short.sched"
        path.write_text("session-1 0 4\n")
        assert main(["verify", INSTANCE, str(path)]) == 2
        assert "schedule is missing activities" in capsys.readouterr().err
        path.write_text(GOOD_SCHED + "session-9 0 1\n")
        assert main(["verify", INSTANCE, str(path)]) == 2
        assert "schedule has unknown activities: session-9" in capsys.readouterr().err

    def test_number_past_the_digit_limit_is_exit_2(self, tmp_path, capsys):
        # more digits than the interpreter converts to an int (4,300)
        path = tmp_path / "huge.sched"
        path.write_text(GOOD_SCHED.replace("session-2 1 5", "session-2 1 " + "9" * 5000))
        assert main(["verify", INSTANCE, str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: line 2: bad number '{'9' * 20}...': too many digits (5000)\n"
        )

    def test_makespan_past_the_digit_limit_is_exit_2(self, tmp_path, capsys):
        # both times have 4,300 digits; the makespan 2 * (10**4300 - 1) has one more
        inst = tmp_path / "one.inst"
        inst.write_text("activity a start-by=1 finish-by=2\nstart-finish a -> a lag=1\n")
        sched = tmp_path / "one.sched"
        sched.write_text(f"a -{'9' * 4300} {'9' * 4300}\n")
        assert main(["verify", str(inst), str(sched)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            "error: cannot print the result: a number has more than 4300 digits\n"
        )
        assert captured.out == ""

    def test_missing_instance(self, capsys):
        assert main(["verify", "/nonexistent.inst", SCHEDULE]) == 2
        assert "error: cannot read /nonexistent.inst" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "BAD", "--objective", "makespan"],
        ["verify", "BAD", SCHEDULE],
        ["verify", INSTANCE, "BAD"],
        ["chart", "BAD", "--member", "high"],
    ],
    ids=["solve-instance", "verify-instance", "verify-schedule", "chart-result"],
)
def test_non_utf8_file_is_exit_2(tmp_path, capsys, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"\xff" + Path(INSTANCE).read_bytes())
    assert main([str(bad) if a == "BAD" else a for a in argv]) == 2
    assert capsys.readouterr().err == f"error: cannot read {bad}: not UTF-8 text\n"


# One token or line of an input file replaced: every
# outcome must be a result (0), a usage or parse error (2) or an
# infeasibility or failed verification (3), printed without a traceback.
NUMBERS = st.one_of(
    st.integers(-20, 20).map(str),
    st.fractions(max_denominator=12).map(str),
    st.floats().map(repr),
    st.sampled_from([
        "-0", "+3", "--1", ".5", "-.5", "1.", "3/0", "0/0", "-7/-3", "1e3", "1e3/2",
        "1e308", "-1e308", "1.7e308", "nan", "inf", "-inf", "0x10", "١",
        "7" * 60, "-" + "7" * 60, "1/" + "3" * 40, "9" * 4301, "1." + "5" * 4300,
    ]),
)
WORDS = st.sampled_from([
    "activity", "start-start", "start-finish", "finish-start", "->", "title:",
    "unit:", "#", "=", "lag=", "lag", "release=", "start-by=", "finish-by=",
    "session-1", "session-3", "session-5", "session-9", "x", "-x", "",
])
KEYED = st.tuples(
    st.sampled_from(["lag=", "release=", "start-by=", "finish-by=", "bogus="]), NUMBERS
).map("".join)
TOKENS = NUMBERS | WORDS | KEYED | st.text(
    st.characters(blacklist_categories=("Cs",)), max_size=6
)
INSTANCE_TEXT = Path(INSTANCE).read_text()


def _mutate(data, text):
    """text with one token of one line replaced, or one whole line replaced
    by tokens, a copy of another line, or nothing."""
    lines = text.split("\n")
    i = data.draw(st.integers(0, len(lines) - 1), label="line")
    toks = lines[i].split()
    how = data.draw(st.sampled_from(["token", "line", "copy"]), label="how")
    if how == "token" and toks:
        j = data.draw(st.integers(0, len(toks) - 1), label="token")
        toks[j] = data.draw(TOKENS, label="new token")
        lines[i] = " ".join(toks)
    elif how == "copy":
        lines[i] = data.draw(st.sampled_from(lines), label="copied line")
    else:
        lines[i] = " ".join(data.draw(st.lists(TOKENS, max_size=6), label="new line"))
    return "\n".join(lines)


def _run_bounded(capsys, argv, inputs):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), err
    assert "internal error" not in err
    assert "Traceback" not in err
    # a result lists each number a bounded number of times
    assert len(out) + len(err) <= 100 * sum(len(t) for t in inputs) + 10_000


class TestFuzz:
    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.data())
    def test_instance_with_one_token_or_line_replaced(self, tmp_path, capsys, data):
        text = _mutate(data, INSTANCE_TEXT)
        path = tmp_path / "mutated.inst"
        path.write_text(text, encoding="utf-8")
        inputs = (text, GOOD_SCHED)
        for argv in (
            ["solve", str(path), "--objective", "makespan"],
            ["solve", str(path), "--objective", "deviation", "--format", "json"],
            ["solve", str(path), "--objective", "makespan", "--mode", "float"],
            ["verify", str(path), SCHEDULE],
        ):
            _run_bounded(capsys, argv, inputs)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.data())
    def test_schedule_with_one_token_or_line_replaced(self, tmp_path, capsys, data):
        text = _mutate(data, GOOD_SCHED)
        path = tmp_path / "mutated.sched"
        path.write_text(text, encoding="utf-8")
        for mode in ("exact", "float"):
            argv = ["verify", INSTANCE, str(path), "--mode", mode]
            _run_bounded(capsys, argv, (INSTANCE_TEXT, text))


class TestArgparse:
    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 2

    def test_bad_objective(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["solve", INSTANCE, "--objective", "speed"])
        assert ei.value.code == 2

    def test_one_parser_serves_every_request(self, tmp_path, capsys):
        # the parser is built once per process; each call must give what it
        # gives from a freshly built one
        result = str(tmp_path / "result.json")
        solve = ["solve", INSTANCE, "--objective", "makespan", "--format", "json"]
        assert main(solve + ["--out", result]) == 0
        calls = [
            solve,
            ["solve", INSTANCE, "--objective", "speed"],
            ["verify", INSTANCE, SCHEDULE],
            ["chart", result, "--member", "high"],
        ]

        def run(argv):
            try:
                code = main(argv)
            except SystemExit as e:
                code = e.code
            out, err = capsys.readouterr()
            return code, out, err

        cached = [run(argv) for argv in calls]
        assert [code for code, _, _ in cached] == [0, 2, 0, 0]
        for argv, seen in zip(calls, cached):
            cli._build_parser.cache_clear()
            assert run(argv) == seen


@pytest.fixture
def script_env(tmp_path):
    """Environment whose PATH finds a `tropsched` console script.

    The launcher is the one an installer writes for the `tropsched` entry of
    `[project.scripts]`: a shebang for this interpreter, an import of the
    declared function, and its return value as the exit status.  The
    checkout's pyproject.toml is read, not an installed copy's metadata.
    """
    with PYPROJECT.open("rb") as f:
        module, func = tomllib.load(f)["project"]["scripts"]["tropsched"].split(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "tropsched"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {func}\n"
        f"sys.exit({func}())\n"
    )
    script.chmod(0o755)
    path = os.environ.get("PATH", os.defpath)
    return dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{path}")


class TestConsoleScript:
    def test_installed_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tropsched.cli", "solve", INSTANCE,
             "--objective", "makespan"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "optimum: 9" in proc.stdout

    def test_script_on_path(self, script_env):
        proc = subprocess.run(
            ["tropsched", "verify", INSTANCE, SCHEDULE],
            capture_output=True,
            text=True,
            env=script_env,
        )
        assert proc.returncode == 0
        assert "feasible" in proc.stdout

    def test_script_exit_status(self, script_env, tmp_path):
        # exit 0 is also what a launcher that drops main()'s return value gives
        path = tmp_path / "bad.sched"
        path.write_text(BAD_SCHED)
        proc = subprocess.run(
            ["tropsched", "verify", INSTANCE, str(path)],
            capture_output=True,
            text=True,
            env=script_env,
        )
        assert proc.returncode == 3
        assert "violated start-start at session-2, session-1" in proc.stdout


# Runs tropsched.cli.main on each argv of the JSON list in sys.argv[1] and
# prints, per run, the exit code, the output and whether numpy is loaded
# (a None entry in sys.modules blocks the import and loads nothing).
_CHILD = """\
import contextlib, io, json, sys
{prelude}
from tropsched import _kernels
from tropsched.cli import main
runs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    runs.append([code, out.getvalue(), sys.modules.get("numpy") is not None])
print(json.dumps({{"available": _kernels.available(), "runs": runs}}))
"""


def _cli_env():
    """The environment of a new interpreter that imports tropsched from src/."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=pythonpath)


def _fresh_interpreter(code, *args):
    """Run `code` in a new interpreter that imports tropsched from src/."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _fresh_cli(argvs, prelude=""):
    out = _fresh_interpreter(_CHILD.format(prelude=prelude), json.dumps(argvs))
    return json.loads(out)


def _layered_file(tmp_path, n):
    inst = randgen.layered_instance(random.Random(n), n)
    doc = InstanceDocument(names=tuple(f"t{i}" for i in range(n)), instance=inst)
    path = tmp_path / f"layered-{n}.inst"
    path.write_text(serialize_instance(doc))
    return str(path)


class TestLazyNumpy:
    """numpy is imported only when a problem first reaches an int64 kernel,
    which, until numpy is imported, takes `semiring._IMPORT_DIM` rows."""

    def test_small_requests_do_not_import_numpy(self, tmp_path):
        result = str(tmp_path / "result.json")
        small = [
            ["solve", INSTANCE, "--objective", "makespan"],
            ["solve", INSTANCE, "--objective", "deviation", "--format", "json",
             "--out", result],
            ["verify", INSTANCE, SCHEDULE],
            ["chart", result, "--member", "low"],
            ["chart", result, "--member", "high", "--format", "svg"],
            ["solve", _layered_file(tmp_path, 10), "--objective", "makespan"],
            ["solve", _layered_file(tmp_path, 30), "--objective", "makespan"],
            ["solve", _layered_file(tmp_path, _IMPORT_DIM - 1), "--objective",
             "makespan"],
        ]
        large = ["solve", _layered_file(tmp_path, _IMPORT_DIM), "--objective",
                 "makespan"]
        runs = _fresh_cli(small + [large])["runs"]
        expected = [(0, False)] * len(small) + [(0, True)]
        assert [(code, loaded) for code, _, loaded in runs] == expected

    @pytest.mark.parametrize("imported", [True, False])
    def test_once_numpy_is_imported_small_solves_take_the_kernels(
        self, tmp_path, imported
    ):
        # the payload star and rank-one update are stubbed out, so a solve
        # that reaches them exits 4 (internal error), and exit 0 shows that
        # the int64 kernels ran them; a stubbed name must exist, or the stub
        # would only add an attribute
        prelude = (
            "import numpy\n" * imported
            + "from tropsched import _loops\n"
            "for name in ('closure', 'outer_acc'):\n"
            "    assert callable(getattr(_loops, name)), name\n"
            "    setattr(_loops, name, None)"
        )
        argv = ["solve", _layered_file(tmp_path, 30), "--objective", "makespan"]
        (run,) = _fresh_cli([argv], prelude=prelude)["runs"]
        assert run[0] == (0 if imported else 4)

    @pytest.mark.parametrize("objective", ["makespan", "deviation"])
    def test_without_numpy_the_output_is_identical(self, tmp_path, capsys, objective):
        argv = ["solve", _layered_file(tmp_path, 30), "--objective", objective,
                "--format", "json"]
        assert main(argv) == 0
        expected = capsys.readouterr().out
        child = _fresh_cli([argv], prelude='sys.modules["numpy"] = None')
        assert child["available"] is False
        assert child["runs"] == [[0, expected, False]]

    @pytest.mark.parametrize(
        "first_call",
        [
            "m = TropMatrix._from_int_array(np.full((20, 20), -1, dtype=np.int64)).star()\n"
            "assert m._rows == tuple(\n"
            "    tuple(0 if i == j else -1 for j in range(20)) for i in range(20))",
            "assert _kernels.span_fits(19, np.full((20, 20), -1, dtype=np.int64))",
        ],
        ids=["star", "span_fits"],
    )
    def test_kernels_work_as_the_first_call(self, first_call):
        _fresh_interpreter(
            "import numpy as np\n"
            "from tropsched import _kernels\n"
            "from tropsched.semiring import TropMatrix\n" + first_call
        )


# modules a CLI request loads on first use only
LAZY = {"tropsched._kernels", "tropsched.charts", "json", "fractions"}


def _importtime_cli(argv):
    """(stdout, modules imported) of `python -X importtime -m tropsched.cli
    ARGV` in a fresh interpreter, which must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "tropsched.cli", *argv],
        capture_output=True,
        text=True,
        env=_cli_env(),
    )
    assert proc.returncode == 0, proc.stderr
    # -X importtime writes "import time: self | cumulative | name"
    imported = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:")
    }
    # the package's modules are listed, so the report is complete
    assert "tropsched.documents" in imported
    return proc.stdout, imported


class TestColdStart:
    """A CLI request imports only what it runs: neither `dataclasses` nor
    `inspect`, which together cost a fresh interpreter about 10 ms, and of
    the int64 kernels, the charts, `json` and `fractions` only the ones
    its command and numbers need."""

    @pytest.fixture(scope="class")
    def loaded(self, tmp_path_factory):
        """argv -> the modules a fresh `tropsched` process imported for it."""
        result = str(tmp_path_factory.mktemp("cold") / "result.json")
        requests = {
            "text": ["solve", INSTANCE, "--objective", "makespan"],
            "json": ["solve", INSTANCE, "--objective", "makespan", "--format", "json",
                     "--out", result],
            "chart": ["chart", result, "--member", "high"],
            "verify": ["verify", INSTANCE, SCHEDULE],
        }
        return {key: _importtime_cli(argv)[1] for key, argv in requests.items()}

    def test_requests_do_not_import_dataclasses_or_inspect(self, loaded):
        for key, imported in loaded.items():
            assert not imported & {"dataclasses", "inspect"}, key

    @pytest.mark.parametrize(
        "key, wanted",
        [
            ("text", set()),
            ("verify", set()),
            ("json", {"json"}),
            ("chart", {"tropsched.charts", "json"}),
        ],
    )
    def test_requests_load_only_what_they_run(self, loaded, key, wanted):
        assert loaded[key] & LAZY == wanted

    def test_package_import_defers_charts(self):
        out = _fresh_interpreter(
            "import sys, tropsched\n"
            "print('tropsched.charts' in sys.modules)\n"
            "names = {}\n"
            "exec('from tropsched import *', names)\n"
            "from tropsched import charts\n"
            "print(sorted(set(tropsched.__all__) - set(names)))\n"
            "print(names['svg_gantt'] is charts.svg_gantt)\n"
        )
        assert out.split("\n") == ["False", "[]", "True", ""]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("lag", ["1.5", "3/2"])
    def test_decimal_instance_prints_the_same_in_a_fresh_process(
        self, tmp_path, capsys, lag, mode
    ):
        path = tmp_path / "decimal.inst"
        path.write_text(NO_RELEASE.replace("lag=1\n", f"lag={lag}\n"))
        for fmt in ("text", "json"):
            argv = ["solve", str(path), "--objective", "makespan", "--mode", mode,
                    "--format", fmt]
            assert main(argv) == 0
            out, imported = _importtime_cli(argv)
            assert out == capsys.readouterr().out
            assert ("fractions" in imported) == (mode == "exact" or "/" in lag)
