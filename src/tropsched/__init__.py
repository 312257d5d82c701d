"""Max-plus algebra and analytic temporal project scheduling.

The semiring layer supplies exact tropical scalars, vectors, and matrices.
On top of it, the optimization layer minimizes x~ A x under precedence and
box constraints, and the scheduling layer turns project instances (lags,
durations, release times, deadlines) into complete parametric families of
optimal schedules, for either the makespan or the start-time spread.
"""

from .semiring import (
    BOTTOM,
    ONE,
    PositiveCycleError,
    TropMatrix,
    TropScalar,
    TropVector,
    outer,
    solve_leq,
)
from .optimize import (
    EmptyBoxError,
    GeneralProblem,
    InfeasibleError,
    RankOneProblem,
    SolutionFamily,
    family_contains,
    family_member,
    solve_general,
    solve_rank_one,
)
from .scheduling import (
    FloatOverflowError,
    ProjectInstance,
    Schedule,
    ScheduleFamily,
    ScheduleReport,
    Violation,
    brute_force_oracle,
    deviation_value,
    extract_schedule,
    makespan_value,
    reduce_instance,
    solve_deviation,
    solve_makespan,
    verify_schedule,
)
from .documents import (
    InstanceDocument,
    InstanceFormatError,
    ResultDocument,
    load_instance,
    parse_instance,
    parse_schedule,
    result_from_json,
    result_to_json,
    serialize_instance,
    serialize_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "BOTTOM",
    "ONE",
    "PositiveCycleError",
    "TropMatrix",
    "TropScalar",
    "TropVector",
    "outer",
    "solve_leq",
    "EmptyBoxError",
    "GeneralProblem",
    "InfeasibleError",
    "RankOneProblem",
    "SolutionFamily",
    "family_contains",
    "family_member",
    "solve_general",
    "solve_rank_one",
    "FloatOverflowError",
    "ProjectInstance",
    "Schedule",
    "ScheduleFamily",
    "ScheduleReport",
    "Violation",
    "brute_force_oracle",
    "deviation_value",
    "extract_schedule",
    "makespan_value",
    "reduce_instance",
    "solve_deviation",
    "solve_makespan",
    "verify_schedule",
    "InstanceDocument",
    "InstanceFormatError",
    "ResultDocument",
    "load_instance",
    "parse_instance",
    "parse_schedule",
    "result_from_json",
    "result_to_json",
    "serialize_instance",
    "serialize_schedule",
    "ascii_gantt",
    "svg_gantt",
    "__version__",
]


def __getattr__(name):
    # the chart functions load `charts` on first access, so that a request
    # that draws no chart does not import it
    if name in ("ascii_gantt", "svg_gantt"):
        from . import charts

        return getattr(charts, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
