"""Command line interface.

    tropsched solve <instance> --objective makespan|deviation [--format json|text]
    tropsched chart <result.json> --member low|high [--format ascii|svg]
    tropsched verify <instance> <schedule>

Exit codes: 0 success, 2 parse or usage error, 3 infeasible instance (or a
schedule that fails verification), 4 internal assertion failure.
"""

from __future__ import annotations

import argparse
import math
import sys

from .charts import ascii_gantt, svg_gantt
from .documents import (
    InstanceFormatError,
    ResultDocument,
    load_instance,
    parse_schedule,
    result_from_json,
    result_to_json,
)
from .optimize import EmptyBoxError, InfeasibleError
from .semiring import TropVector
from .scheduling import (
    Schedule,
    deviation_value,
    extract_schedule,
    makespan_value,
    solve_deviation,
    solve_makespan,
    verify_schedule,
)

__all__ = ["main"]


class CliError(Exception):
    """User-facing request problem that is not a solver infeasibility."""


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tropsched",
        description="Analytic max-plus solver for temporal project scheduling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance", help="instance file path")
    p_solve.add_argument(
        "--objective",
        choices=("makespan", "deviation"),
        required=True,
        help="minimize the makespan or the start-time spread",
    )
    p_solve.add_argument("--format", choices=("json", "text"), default="text")
    p_solve.add_argument("--mode", choices=("exact", "float"), default="exact")
    p_solve.add_argument("--out", help="write the report here instead of stdout")
    p_solve.set_defaults(func=cmd_solve)

    p_chart = sub.add_parser("chart", help="draw a Gantt chart from a result")
    p_chart.add_argument("result", help="result JSON produced by solve --format json")
    p_chart.add_argument("--member", choices=("low", "high"), required=True)
    p_chart.add_argument("--format", choices=("ascii", "svg"), default="ascii")
    p_chart.add_argument("--out", help="write the chart here instead of stdout")
    p_chart.set_defaults(func=cmd_chart)

    p_verify = sub.add_parser("verify", help="check a schedule against an instance")
    p_verify.add_argument("instance", help="instance file path")
    p_verify.add_argument("schedule", help="schedule file: one 'name start finish' per line")
    p_verify.add_argument("--mode", choices=("exact", "float"), default="exact")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise CliError(f"cannot read {path}: not UTF-8 text") from e


def _load(path, mode):
    try:
        return load_instance(path, mode=mode)
    except OSError as e:
        raise CliError(f"cannot read {path}: {e}") from e
    except UnicodeDecodeError as e:
        raise CliError(f"cannot read {path}: not UTF-8 text") from e


def cmd_solve(args):
    doc = _load(args.instance, args.mode)
    inst = doc.instance
    solver = solve_makespan if args.objective == "makespan" else solve_deviation
    try:
        fam = solver(inst)
    except EmptyBoxError as e:
        if args.mode != "float":
            raise
        raise CliError(
            "float rounding left the parameter box empty (u_low exceeds"
            " u_high); use --mode exact"
        ) from e

    try:
        high = extract_schedule(fam, fam.u_high)
        low = extract_schedule(fam, fam.u_low) if fam.u_low.is_nonzero else None
    except ValueError as e:
        # an activity whose finish no start-finish constraint defines
        raise CliError(str(e)) from e

    if args.mode == "float":
        _check_finite(fam.theta, low, high)

    # solver output must verify against the raw constraints before leaving
    tol = 0 if args.mode == "exact" else 1e-9
    for sched in (low, high):
        if sched is None:
            continue
        report = verify_schedule(inst, sched, tol=tol)
        if not report.feasible:
            bad = report.violations[0]
            raise AssertionError(
                f"extreme schedule violates its instance: {bad.detail}"
            )
        value = (
            makespan_value(sched)
            if args.objective == "makespan"
            else deviation_value(sched.start)
        )
        diff = value.value - fam.theta.value
        if not (-tol <= diff <= tol):
            raise AssertionError(
                f"extreme schedule has objective {value}, expected {fam.theta}"
            )

    unique = low is not None and low == high
    result = ResultDocument(
        objective=args.objective,
        mode=args.mode,
        title=doc.title,
        unit=doc.unit,
        names=doc.names,
        theta=fam.theta,
        generator=fam.G,
        u_low=fam.u_low,
        u_high=fam.u_high,
        low=low,
        high=high,
        unique=unique,
        violations_low=() if low is not None else None,
        violations_high=(),
    )
    if args.format == "json":
        _emit(result_to_json(result), args.out)
    else:
        _emit(_render_text(result), args.out)
    return 0


def _check_finite(theta, *schedules):
    """Float sums can overflow to inf (or inf - inf to nan); that is a
    limit of the input's size, not a solver fault."""
    values = [theta.value]
    for sched in schedules:
        if sched is not None:
            values += sched.start._e + sched.finish._e
    if any(v is not None and not math.isfinite(v) for v in values):
        raise CliError(
            "float arithmetic overflowed: the optimum or a schedule time is"
            " not finite; use smaller numbers or --mode exact"
        )


def _render_text(result):
    lines = []
    if result.title:
        lines.append(f"title: {result.title}")
    lines.append(f"objective: {result.objective}")
    lines.append(f"optimum: {result.theta}")
    if result.unique:
        lines.append("status: unique optimal schedule")
    else:
        lines.append("status: family of optimal schedules")
    lines.append(f"parameter box: u_low={result.u_low} u_high={result.u_high}")
    name_w = max(len(nm) for nm in result.names)

    def block(label, sched):
        lines.append(f"{label}:")
        for i, nm in enumerate(result.names):
            lines.append(
                f"  {nm.ljust(name_w)}  start={sched.start[i]}"
                f"  finish={sched.finish[i]}"
            )

    if result.unique:
        block("schedule", result.high)
    else:
        if result.low is not None:
            block("earliest optimal schedule (u = u_low)", result.low)
        else:
            lines.append(
                "earliest optimal schedule: none"
                " (no release times: optimal schedules shift arbitrarily early)"
            )
        block("latest optimal schedule (u = u_high)", result.high)
    return "\n".join(lines) + "\n"


def cmd_chart(args):
    result = result_from_json(_read(args.result))
    sched = result.low if args.member == "low" else result.high
    if sched is None:
        raise CliError(
            "result has no low member: without release times the optimal"
            " schedules shift arbitrarily early"
        )
    title = result.title or f"{result.objective} = {result.theta}"
    render = ascii_gantt if args.format == "ascii" else svg_gantt
    try:
        text = render(result.names, sched, title=title, unit=result.unit)
    except ValueError as e:
        raise CliError(f"cannot chart this schedule: {e}") from e
    _emit(text, args.out)
    return 0


def cmd_verify(args):
    doc = _load(args.instance, args.mode)
    rows = parse_schedule(_read(args.schedule), mode=args.mode)
    missing = [nm for nm in doc.names if nm not in rows]
    extra = [nm for nm in rows if nm not in doc.names]
    if missing:
        raise CliError(f"schedule is missing activities: {', '.join(missing)}")
    if extra:
        raise CliError(f"schedule has unknown activities: {', '.join(extra)}")
    sched = Schedule(
        start=TropVector(rows[nm][0] for nm in doc.names),
        finish=TropVector(rows[nm][1] for nm in doc.names),
    )
    report = verify_schedule(doc.instance, sched)
    print(f"makespan: {makespan_value(sched)}")
    print(f"deviation: {deviation_value(sched.start)}")
    if report.feasible:
        print("feasible")
        return 0
    for v in report.violations:
        spots = ", ".join(doc.names[k] for k in v.where)
        print(f"violated {v.kind} at {spots}: {v.detail} (excess {v.amount})")
    return 3


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, InstanceFormatError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return 3
    except AssertionError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
