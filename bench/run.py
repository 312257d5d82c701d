"""tropsched benchmark: end-to-end and per-layer figures for four workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...

Run from the repository root.  Each workload is a closed loop with one
client: requests run one after another, each checked against the
benchmark's own oracle (oracle.py) outside the timed region.  With
--trace 0 the last line of output is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run,
which wraps tropsched's callables from here (tracing.py) and alternates
traced with untraced requests to report the tracing overhead.  The line
before it, {"info": ...}, records the host, the versions, the sample count
and the percentile used for request_ms_tail.  Exit status 1 means a
correctness check failed, 2 that tropsched or its fixtures are missing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from importlib import metadata
from math import ceil
from pathlib import Path
from statistics import median
from time import perf_counter, process_time

import tracing
from workloads import FIXTURE, GOLDEN, WORKLOADS, SetupError, cli_requests, solve_requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
PY = sys.executable
ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}

SETUP_PROBES = 3  # fresh interpreters timed for setup_s; the median counts
REQUEST_TIMEOUT_S = 120


@dataclass
class Outcome:
    rc: object
    out: str
    err: str
    wall: float
    cpu: float
    layers: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)
    import_s: float | None = None


class Subprocess:
    """A request is `python -m tropsched.cli ARGV`, from spawn to exit.

    The benchmark process imports neither numpy nor tropsched here: a child
    starts out with its parent's resident size, which would otherwise set
    the children's peak.
    """

    def __init__(self, work):
        self.report = work / "child-report.json"
        self.missing = []

    def call(self, argv, trace=False):
        if trace:
            cmd = [PY, str(CHILD), str(self.report), "1", *argv]
        else:
            cmd = [PY, "-m", "tropsched.cli", *argv]
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True,
                                  timeout=REQUEST_TIMEOUT_S)
            rc, out, err = proc.returncode, proc.stdout, proc.stderr
        except subprocess.TimeoutExpired:
            rc, out, err = "timeout", "", f"killed after {REQUEST_TIMEOUT_S} s"
        wall = perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = ru1.ru_utime + ru1.ru_stime - ru0.ru_utime - ru0.ru_stime
        o = Outcome(rc, out, err, wall, cpu)
        if trace:
            try:
                rep = json.loads(self.report.read_text())
            except (OSError, ValueError):
                return o  # no report: the exit code shows the failure
            finally:
                self.report.unlink(missing_ok=True)
            o.layers, o.spans, o.import_s = rep["layers"], rep["spans"], rep["import_s"]
            self.missing = rep["missing"]
        return o

    def cli(self, argv):
        o = self.call(argv)
        return o.rc, o.out, o.err

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


class InProcess:
    """A request is one tropsched.cli.main(ARGV) call in this process."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import tropsched.cli

        self.cli = tropsched.cli
        self.tracer = tracing.Tracer()

    @property
    def missing(self):
        return self.tracer.missing

    def call(self, argv, trace=False):
        out, err = io.StringIO(), io.StringIO()
        if trace:
            self.tracer.spans = []
            self.tracer.install()
        c0 = process_time()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as e:
            rc = e.code
        except Exception as e:  # counted as a failed request
            rc = f"uncaught {type(e).__name__}: {e}"
        wall = perf_counter() - t0
        cpu = process_time() - c0
        o = Outcome(rc, out.getvalue(), err.getvalue(), wall, cpu)
        if trace:
            self.tracer.uninstall()
            o.spans = self.tracer.spans
            o.layers = tracing.request_layers(o.spans)
        return o

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def judge(req, o):
    """None when the request succeeded, else why it failed."""
    if o.rc != req.expect_rc:
        return f"exit {o.rc}, expected {req.expect_rc}: {o.err.strip()[-300:]}"
    try:
        return req.check(o.out, o.err)
    except Exception as e:  # a malformed output the check could not read
        return f"output unreadable: {type(e).__name__}: {e}"


def probe(work, argv):
    """import tropsched plus one request, timed inside a fresh interpreter."""
    report = work / "probe-report.json"
    proc = subprocess.run([PY, str(CHILD), str(report), "0", *argv], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=REQUEST_TIMEOUT_S)
    try:
        rep = json.loads(report.read_text())
    except (OSError, ValueError):
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-300:]}") from None
    finally:
        report.unlink(missing_ok=True)
    return rep["import_s"], rep["main_s"]


def ref_loop_ms():
    """A fixed pure-Python loop: how fast this host runs interpreter code."""
    t0 = perf_counter()
    acc = 0
    for i in range(200_000):
        acc = (acc + i * i) % 1_000_003
    return (perf_counter() - t0) * 1000


def python_start_ms():
    t0 = perf_counter()
    subprocess.run([PY, "-c", "pass"], check=True, timeout=60)
    return (perf_counter() - t0) * 1000


def host_probe():
    return {"ref_ms": [ref_loop_ms() for _ in range(5)],
            "python_start_ms": [python_start_ms() for _ in range(3)]}


def percentile(values, pct):
    """Nearest-rank percentile."""
    s = sorted(values)
    return s[max(0, ceil(pct / 100 * len(s)) - 1)]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit():
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(wl, seed, seconds, trace):
    """Set up, measure and check one workload; returns the result record."""
    work = HERE / ".work" / f"{wl.name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return _measure(wl, seed, seconds, trace, work)
    except SetupError as e:
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {},
                "failures": [str(e)], "info": {"workload": wl.name, "seed": seed}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _loop(runner, reqs, seconds, trace, record):
    """The timed closed loop; returns (untraced, traced, first-pass layers).

    Untraced, it runs until the requests have taken `seconds`.  Traced, it
    first traces one pass over every request, which gives counts that
    repeat for one seed, then alternates traced and untraced requests,
    switching parity each pass so that every request is seen both ways.
    """
    plain, traced, first_pass = [], [], []
    timed = 0.0
    give_up = perf_counter() + 2 * seconds + 60
    i = 0
    while perf_counter() < give_up:
        first = i < len(reqs)
        if timed >= seconds and not (trace and (first or len(plain) < 3)):
            break
        use_trace = bool(trace) and (first or (i + i // len(reqs)) % 2 == 1)
        req = reqs[i % len(reqs)]
        o = runner.call(req.argv, trace=use_trace)
        timed += o.wall
        record(req, o)
        o.out = o.err = None  # checked; kept, they would count toward peak_rss_mb
        if use_trace:
            traced.append((i, req, o))
            if first:
                first_pass.append(o.layers)
        else:
            plain.append(o)
        i += 1
    return plain, traced, first_pass


def _measure(wl, seed, seconds, trace, work):
    rng = random.Random(f"{wl.name}/{seed}")
    host0 = host_probe()
    if wl.in_process:
        reqs = solve_requests(wl, rng, work)
    else:
        runner = Subprocess(work)
        reqs = cli_requests(wl, rng, work, runner.cli)
    probes = [probe(work, reqs[0].argv) for _ in range(SETUP_PROBES)]

    failures = []
    attempted = 0

    def record(req, o):
        nonlocal attempted
        attempted += 1
        bad = judge(req, o)
        if bad:
            failures.append(f"{' '.join(req.argv)}: {bad}")

    if wl.in_process:
        runner = InProcess()
        record(reqs[0], runner.call(reqs[0].argv))  # warm-up, not timed
    plain, traced, first_pass = _loop(runner, reqs, seconds, trace, record)
    host1 = host_probe()

    walls = [o.wall for o in plain or [o for _, _, o in traced]]
    cpu_ms = median(o.cpu for o in plain or [o for _, _, o in traced]) * 1000
    host_ref = host0["ref_ms"] + host1["ref_ms"]
    host_start = host0["python_start_ms"] + host1["python_start_ms"]
    info = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": git_commit(), "cpu": cpu_model(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": _numpy_version(),
        "samples": len(walls), "tail_percentile": wl.tail_pct,
        "beyond_tail": sum(w > percentile(walls, wl.tail_pct) for w in walls),
        "request_cpu_ms_p50": cpu_ms,
        "host_ref_ms": [median(host0["ref_ms"]), median(host1["ref_ms"])],
        "host_python_start_ms": [median(host0["python_start_ms"]),
                                 median(host1["python_start_ms"])],
        "failed_ratio": len(failures) / attempted,
    }
    if trace:
        import_s = [o.import_s for _, _, o in traced if o.import_s is not None]
        metrics = {
            "cli.import_s": (median(import_s or [p[0] for p in probes]), "s"),
            **{k: (v, _unit(k)) for k, v in
               tracing.summarize([o.layers for _, _, o in traced], first_pass).items()},
            "host.ref_ms": (median(host_ref), "ms"),
            "host.python_start_ms": (median(host_start), "ms"),
            "request_cpu_ms_p50": (cpu_ms, "ms"),
            "trace.overhead_ms": ((median(o.wall for _, _, o in traced) - median(walls)) * 1000, "ms"),
            "trace.requests": (len(traced), "count"),
        }
        info["trace_targets_missing"] = runner.missing
        _write_spans(wl, seed, traced)
    else:
        metrics = {
            "setup_s": (median(a + b for a, b in probes), "s"),
            "request_ms_p50": (median(walls) * 1000, "ms"),
            "request_ms_tail": (percentile(walls, wl.tail_pct) * 1000, "ms"),
            "throughput_rps": (len(walls) / sum(walls), "1/s"),
            "peak_rss_mb": (runner.peak_rss_mb(), "MB"),
            "success_ratio": ((attempted - len(failures)) / attempted, "ratio"),
        }
    return {
        "correct": not failures, "attempted": attempted, "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "failures": failures, "info": info,
    }


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("bytes"):
        return "bytes"
    if metric.endswith("ratio"):
        return "ratio"
    if metric == "kernels.ops":
        return "ops"
    return "count"


def _numpy_version():
    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def _write_spans(wl, seed, traced):
    out = HERE / ".out"
    out.mkdir(exist_ok=True)
    with open(out / f"spans-{wl.name}-{seed}.jsonl", "w", encoding="utf-8") as fh:
        for i, req, o in traced:
            fh.write(json.dumps({"request": i, "argv": req.argv, "spans": o.spans}) + "\n")


def report(res):
    for msg in res["failures"][:10]:
        print(f"FAILED {msg}", file=sys.stderr)
    for name, m in res["metrics"].items():
        print(f"{name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"info": res["info"]}))
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))


def run_all(args):
    """Each workload in its own process, so peak memory stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [PY, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):
            res = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        total["correct"] &= res["correct"] and proc.returncode == 0
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, v in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = v
    print(json.dumps(total))
    return 0 if total["correct"] else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for need in (SRC / "tropsched" / "__init__.py", FIXTURE, GOLDEN):
        if not need.is_file():
            print(f"error: {need} not found; run from a tropsched checkout", file=sys.stderr)
            return 2
    if args.workload == "all":
        return run_all(args)
    res = run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    report(res)
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
