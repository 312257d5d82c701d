"""Tests of the benchmark itself, at reduced sizes.

    python3 -m pytest bench/test_bench.py

They check that traced counts repeat exactly for one seed, that tracing
leaves tropsched's output byte-identical, and that the oracle agrees with
tropsched (and rejects wrong answers).
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import pytest

import oracle
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMALL = {"cli-small": 20, "solve-int": 40, "solve-rational": 12, "infeasible-chain": 30}
COUNTS = ("_calls", "_fallbacks", "_bytes", "bytes", "kernels.ops", "kernels.fast_ratio")


def small(name):
    return dataclasses.replace(workloads.WORKLOADS[name], n=SMALL[name])


@pytest.fixture(scope="module")
def lib():
    sys.path.insert(0, str(run.SRC))
    import tropsched

    return tropsched


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_counts_repeat(name):
    a, b = (run.run(small(name), 7, 0.2, 1) for _ in range(2))
    assert a["correct"] and b["correct"], a["failures"] + b["failures"]
    assert {k: m["unit"] for k, m in a["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [k for k in a["metrics"] if k.endswith(COUNTS)]
    assert "kernels.ops" in counts and "semiring.product_calls" in counts
    for k in counts:
        assert a["metrics"][k] == b["metrics"][k], k


@pytest.mark.parametrize("name", sorted(SMALL))
def test_untraced_run_is_correct(name):
    res = run.run(small(name), 3, 0.2, 0)
    assert res["correct"], res["failures"]
    assert {k: m["unit"] for k, m in res["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_tracing_leaves_output_identical(tmp_path):
    rng = random.Random(5)
    path = tmp_path / "i.inst"
    path.write_text(workloads.serialize(workloads.layered(rng, 40)))
    argv = ["solve", str(path), "--objective", "makespan", "--format", "json"]
    inproc = run.InProcess()
    plain, traced = inproc.call(argv), inproc.call(argv, trace=True)
    assert plain.rc == traced.rc == 0
    assert plain.out == traced.out
    assert traced.spans and not inproc.tracer.missing
    sub = run.Subprocess(tmp_path)
    plain, traced = sub.call(argv), sub.call(argv, trace=True)
    assert plain.rc == traced.rc == 0
    assert plain.out == traced.out == inproc.call(argv).out


@pytest.mark.parametrize("scale", [1, Fraction(3, 2)])
def test_oracle_agrees_with_tropsched(lib, scale):
    rng = random.Random(11)
    for n in (2, 5, 17, 50):
        inst = workloads.layered(rng, n, scale)
        doc = lib.parse_instance(workloads.serialize(inst))
        for obj, solve in (("makespan", lib.solve_makespan), ("deviation", lib.solve_deviation)):
            assert solve(doc.instance).theta.value == oracle.forward_optimum(inst, obj)


def test_oracle_accepts_tropsched_witness(lib):
    rng = random.Random(3)
    for n in (12, 30):
        inst = workloads.chain(rng, n, round(0.32 * n))
        doc = lib.parse_instance(workloads.serialize(inst))
        with pytest.raises(lib.InfeasibleError) as e:
            lib.solve_makespan(doc.instance)
        nodes = " -> ".join(str(i) for i in (*e.value.cycle, e.value.cycle[0]))
        assert oracle.cycle_check(inst)("", f"(activities {nodes})") is None
        rev = " -> ".join(str(i) for i in (e.value.cycle[0], *e.value.cycle[1:][::-1], e.value.cycle[0]))
        assert oracle.cycle_check(inst)("", f"(activities {rev})") is None
        assert oracle.cycle_check(inst)("", "(activities 0 -> 1 -> 0)") is not None


def test_oracle_rejects_wrong_answers(lib, tmp_path):
    rng = random.Random(2)
    inst = workloads.layered(rng, 8)
    opt = oracle.forward_optimum(inst, "makespan")
    path = tmp_path / "i.inst"
    path.write_text(workloads.serialize(inst))
    o = run.InProcess().call(["solve", str(path), "--objective", "makespan", "--format", "json"])
    assert oracle.json_check(inst, "makespan", opt)(o.out, o.err) is None
    assert oracle.json_check(inst, "makespan", opt + 1)(o.out, o.err) is not None
    doc = json.loads(o.out)
    doc["schedules"]["low"]["start"][-1] = str(Fraction(doc["schedules"]["low"]["start"][-1]) - 1)
    assert oracle.json_check(inst, "makespan", opt)(json.dumps(doc), "") is not None


def test_refuses_without_tropsched(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns(".*", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve-int", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
