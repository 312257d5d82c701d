"""End-to-end command line behavior and exit codes."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest depends on tomli there
    import tomli as tomllib

import golden
import randgen
from tropsched import TropScalar
from tropsched.cli import main
from tropsched.documents import InstanceDocument, serialize_instance

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

    def test_float_rounding_empty_box_is_exit_2(self, tmp_path, capsys):
        # one-decimal data whose rounded sums leave u_high[0] just below
        # u_low[0]; exact arithmetic solves it
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
        code = main(["solve", str(path), "--objective", "makespan", "--mode", "float"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: float rounding left the parameter box empty")
        assert "--mode exact" in err
        assert main(["solve", str(path), "--objective", "makespan"]) == 0
        assert "optimum: 13/5" in capsys.readouterr().out

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

    def test_infeasible(self, tmp_path, capsys):
        path = tmp_path / "cyclic.inst"
        path.write_text(CYCLIC)
        assert main(["solve", str(path), "--objective", "makespan"]) == 3
        err = capsys.readouterr().err
        assert err.startswith("infeasible: cyclic precedence")

    def test_unexpected_exception_is_exit_4(self, capsys, monkeypatch):
        import tropsched.cli as cli

        def boom(inst):
            raise RuntimeError("kernel panic")

        monkeypatch.setattr(cli, "solve_makespan", boom)
        assert main(["solve", INSTANCE, "--objective", "makespan"]) == 4
        assert "internal error: RuntimeError: kernel panic" in capsys.readouterr().err

    def test_self_check_failure_is_exit_4(self, capsys, monkeypatch):
        import tropsched.cli as cli

        monkeypatch.setattr(cli, "makespan_value", lambda s: TropScalar(0))
        assert main(["solve", INSTANCE, "--objective", "makespan"]) == 4
        err = capsys.readouterr().err
        assert "internal error: extreme schedule has objective 0, expected 9" in err


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


class TestArgparse:
    def test_no_arguments(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main([])
        assert ei.value.code == 2

    def test_bad_objective(self, capsys):
        with pytest.raises(SystemExit) as ei:
            main(["solve", INSTANCE, "--objective", "speed"])
        assert ei.value.code == 2


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


def _fresh_interpreter(code, *args):
    """Run `code` in a new interpreter that imports tropsched from src/."""
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath),
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
    """numpy is imported only when a problem first reaches an int64 kernel."""

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
        ]
        large = ["solve", _layered_file(tmp_path, 30), "--objective", "makespan"]
        runs = _fresh_cli(small + [large])["runs"]
        expected = [(0, False)] * len(small) + [(0, True)]
        assert [(code, loaded) for code, _, loaded in runs] == expected

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
