"""Run one tropsched CLI request in this fresh interpreter and time it.

    python3 bench/child.py REPORT TRACE ARGV...

Times `import tropsched`, then runs tropsched.cli.main(ARGV) with its output
captured, and writes {"import_s", "main_s", "rc", "layers", "spans"} as JSON
to the file REPORT.  With TRACE=1 the package's callables are wrapped first
(see tracing.py); layers and spans are empty otherwise.  Finally the captured
output is passed through and the process exits with main's exit code, so
the caller can check it like any CLI run.  tropsched must be importable
(PYTHONPATH=src from the repository root).
"""

import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from time import perf_counter

t0 = perf_counter()
import tropsched  # noqa: E402
import tropsched.cli  # noqa: E402

import_s = perf_counter() - t0

report, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
tracer = None
if trace:
    import tracing

    tracer = tracing.Tracer()
    tracer.install()
out, err = io.StringIO(), io.StringIO()
t1 = perf_counter()
with redirect_stdout(out), redirect_stderr(err):
    try:
        rc = tropsched.cli.main(argv)
    except SystemExit as e:
        rc = e.code
main_s = perf_counter() - t1
if tracer:
    tracer.uninstall()
with open(report, "w", encoding="utf-8") as fh:
    json.dump({
        "import_s": import_s,
        "main_s": main_s,
        "rc": rc,
        "layers": tracing.request_layers(tracer.spans) if tracer else {},
        "spans": tracer.spans if tracer else [],
        "missing": tracer.missing if tracer else [],
    }, fh)
sys.stdout.write(out.getvalue())
sys.stderr.write(err.getvalue())
sys.exit(rc if isinstance(rc, int) else 4)
