"""Text formats: instance files, schedule files, and result JSON.

The instance format is line oriented.  '#' starts a comment, blank lines
are ignored, and numbers are parsed as exact rationals ("5", "-3", "4.5",
"9/2") unless mode="float" is requested, which reads floats (a fraction
exactly, then rounded once); scientific notation is rejected in exact
mode.  A file holds optional "title:" / "unit:" lines, one "activity"
line per activity, and one line per temporal constraint:

    title: Vaccination sessions
    unit: hour

    activity session-1 release=0 start-by=4 finish-by=12

    start-start  session-1 -> session-2 lag=1
    start-finish session-1 -> session-1 lag=4
    finish-start session-1 -> session-3 lag=0

"<kind> a -> b lag=v" bounds b by a: the start (or finish) of a plus v is
a lower bound on the start (or finish) of b.  Omitting release leaves the
activity unconstrained from below.  Every activity must appear on the
start side of some start-finish constraint (usually its own duration).
The start-start diagonal defaults to the identity lag 0.

Only the result writer and reader import `json`, and only a number with
a "." or "/" imports `fractions`, so a text request on integer data loads
neither.
"""

from __future__ import annotations

import functools
import re

from ._record import Record
from .scheduling import OBJECTIVES, ProjectInstance, Schedule, Violation
from .semiring import BOTTOM, TropMatrix, TropScalar, TropVector, _p_str

__all__ = [
    "InstanceFormatError",
    "InstanceDocument",
    "ResultDocument",
    "parse_instance",
    "load_instance",
    "serialize_instance",
    "parse_schedule",
    "serialize_schedule",
    "result_to_json",
    "result_from_json",
]

RESULT_FORMAT = "tropsched-result/1"

_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.+:-]*\Z")
_EXACT_NUM_RE = re.compile(r"[+-]?(?:\d+(?:\.\d+)?|\.\d+|\d+/\d+)\Z")

_KINDS = ("start-start", "start-finish", "finish-start")
_ACTIVITY_KEYS = ("release", "start-by", "finish-by")


class InstanceFormatError(ValueError):
    """A document could not be parsed; line carries the 1-based line number."""

    def __init__(self, message, *, line=None):
        self.line = line
        super().__init__(message if line is None else f"line {line}: {message}")


def _parse_number(tok, mode, line):
    if mode == "exact":
        return _parse_exact(tok, line, sci_hint=True)
    if "/" in tok:
        # a fraction is read exactly, then rounded once
        try:
            return float(_parse_exact(tok, line, sci_hint=False))
        except OverflowError:
            raise InstanceFormatError(f"bad number {tok!r}", line=line)
    try:
        v = float(tok)
    except ValueError:
        raise InstanceFormatError(f"bad number {tok!r}", line=line)
    if v != v or v in (float("inf"), float("-inf")):
        raise InstanceFormatError(f"bad number {tok!r}", line=line)
    return v


def _parse_exact(tok, line, *, sci_hint):
    # isdecimal() accepts exactly the pattern's unsigned \d+, the common case
    if not (tok.isdecimal() or _EXACT_NUM_RE.match(tok)):
        hint = (
            " (scientific notation is not allowed in exact mode)"
            if sci_hint and "e" in tok.lower()
            else ""
        )
        raise InstanceFormatError(f"bad number {tok!r}{hint}", line=line)
    try:
        if "." in tok or "/" in tok:
            from fractions import Fraction

            return Fraction(tok)
        return int(tok)
    except ZeroDivisionError:
        raise InstanceFormatError(f"bad number {tok!r}: zero denominator", line=line)
    except ValueError:
        # past the interpreter's limit on the digits of an int (4,300
        # by default), so the token is long: show its start
        shown = tok[:20] + "..."
        digits = sum(c.isdecimal() for c in tok)
        raise InstanceFormatError(
            f"bad number {shown!r}: too many digits ({digits})", line=line
        )


class InstanceDocument(Record):
    """A parsed instance file: activity names plus the instance matrices."""

    names: tuple[str, ...]
    instance: ProjectInstance
    title: str | None = None
    unit: str | None = None

    @property
    def n(self):
        return len(self.names)


def parse_instance(text, *, mode="exact"):
    """Parse instance text into an InstanceDocument.

    Missing start-start self-lags default to the identity lag 0 (they
    carry no constraint either way).
    """
    if mode not in ("exact", "float"):
        raise ValueError("mode must be 'exact' or 'float'")
    title = None
    unit = None
    names: list[str] = []
    index: dict[str, int] = {}
    acts: list[dict] = []
    raw_cons: list[tuple] = []
    numbers = {}

    def number(tok, ln):
        # a project file repeats a few numbers: each is read once, as a payload
        v = numbers.get(tok)
        if v is None:
            v = numbers[tok] = TropScalar(_parse_number(tok, mode, ln)).value
        return v

    # each line is split once; constraint lines, most of a project file,
    # are tried first, and the names they use are resolved after the
    # activity lines are all read
    for ln, line in enumerate(text.splitlines(), 1):
        if "#" in line:
            line = line[: line.index("#")]
        toks = line.split()
        if not toks:
            continue
        head = toks[0]
        if head in _KINDS:
            if len(toks) != 5 or toks[2] != "->" or toks[4][:4] != "lag=":
                raise InstanceFormatError(
                    f"expected '{head} <from> -> <to> lag=<number>'", line=ln
                )
            lag = number(toks[4][4:], ln)
            raw_cons.append((head, toks[1], toks[3], lag, ln))
        elif head == "activity":
            if len(toks) < 2:
                raise InstanceFormatError("activity needs a name", line=ln)
            name = toks[1]
            if not _NAME_RE.match(name):
                raise InstanceFormatError(f"bad activity name {name!r}", line=ln)
            if name in index:
                raise InstanceFormatError(f"duplicate activity {name!r}", line=ln)
            fields = {}
            for tok in toks[2:]:
                key, eq, val = tok.partition("=")
                if not eq or key not in _ACTIVITY_KEYS:
                    raise InstanceFormatError(
                        f"bad activity field {tok!r}"
                        f" (expected release= / start-by= / finish-by=)",
                        line=ln,
                    )
                if key in fields:
                    raise InstanceFormatError(f"duplicate field {key!r}", line=ln)
                fields[key] = number(val, ln)
            for key in ("start-by", "finish-by"):
                if key not in fields:
                    raise InstanceFormatError(
                        f"activity {name!r} is missing {key}=", line=ln
                    )
            index[name] = len(names)
            names.append(name)
            acts.append(fields)
        elif head.startswith("title:"):
            if title is not None:
                raise InstanceFormatError("duplicate title", line=ln)
            title = line.strip()[len("title:"):].strip() or None
        elif head.startswith("unit:"):
            if unit is not None:
                raise InstanceFormatError("duplicate unit", line=ln)
            unit = line.strip()[len("unit:"):].strip() or None
        else:
            raise InstanceFormatError(f"unknown directive {head!r}", line=ln)

    if not names:
        raise InstanceFormatError("no activities defined")
    n = len(names)
    finite = {kind: {} for kind in _KINDS}
    for kind, src, dst, lag, ln in raw_cons:
        j = index.get(src)
        i = index.get(dst)
        if j is None or i is None:
            nm = src if j is None else dst
            raise InstanceFormatError(f"unknown activity {nm!r}", line=ln)
        # "src -> dst" bounds dst from src: row dst, column src
        lags = finite[kind]
        if (i, j) in lags:
            raise InstanceFormatError(
                f"duplicate constraint {kind} {src} -> {dst}", line=ln
            )
        lags[i, j] = lag

    sf_sources = {j for _, j in finite["start-finish"]}
    for j, name in enumerate(names):
        if j not in sf_sources:
            raise InstanceFormatError(
                f"activity {name!r} is on the start side of no start-finish"
                f" constraint; add its duration, e.g."
                f" 'start-finish {name} -> {name} lag=<duration>'"
            )
    ss = finite["start-start"]
    for i in range(n):
        ss.setdefault((i, i), 0)

    def matrix(kind):
        entries = [(i, j, v) for (i, j), v in finite[kind].items()]
        return TropMatrix._from_entries((n, n), entries)

    inst = ProjectInstance(
        start_start=matrix("start-start"),
        start_finish=matrix("start-finish"),
        finish_start=matrix("finish-start"),
        release=TropVector._from_payloads(a.get("release") for a in acts),
        start_deadline=TropVector._from_payloads(a["start-by"] for a in acts),
        finish_deadline=TropVector._from_payloads(a["finish-by"] for a in acts),
    )
    return InstanceDocument(
        names=tuple(names), instance=inst, title=title, unit=unit
    )


def load_instance(path, *, mode="exact"):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    try:
        return parse_instance(text, mode=mode)
    except InstanceFormatError as e:
        raise InstanceFormatError(f"{path}: {e.args[0]}") from e


def serialize_instance(doc):
    """Instance text that parses back to an equal document (exact data)."""
    inst = doc.instance
    names = doc.names
    lines = []
    if doc.title:
        lines.append(f"title: {doc.title}")
    if doc.unit:
        lines.append(f"unit: {doc.unit}")
    if lines:
        lines.append("")
    for i, nm in enumerate(names):
        parts = [f"activity {nm}"]
        rel = inst.release[i]
        if not rel.is_bottom:
            parts.append(f"release={rel}")
        parts.append(f"start-by={inst.start_deadline[i]}")
        parts.append(f"finish-by={inst.finish_deadline[i]}")
        lines.append(" ".join(parts))
    lines.append("")
    for kind, mat in (
        ("start-start", inst.start_start),
        ("start-finish", inst.start_finish),
        ("finish-start", inst.finish_start),
    ):
        for i, j, v in mat._entries():
            if kind == "start-start" and i == j and v == 0:
                continue
            lines.append(f"{kind} {names[j]} -> {names[i]} lag={_p_str(v)}")
    return "\n".join(lines) + "\n"


def parse_schedule(text, *, mode="exact"):
    """Parse 'name start finish' lines into an ordered name -> times dict."""
    out: dict[str, tuple[TropScalar, TropScalar]] = {}
    for ln, raw in enumerate(text.splitlines(), 1):
        line = raw
        pos = line.find("#")
        if pos != -1:
            line = line[:pos]
        line = line.strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 3:
            raise InstanceFormatError(
                "expected '<activity> <start> <finish>'", line=ln
            )
        name = toks[0]
        if name in out:
            raise InstanceFormatError(f"duplicate activity {name!r}", line=ln)
        start = _parse_number(toks[1], mode, ln)
        finish = _parse_number(toks[2], mode, ln)
        out[name] = (TropScalar(start), TropScalar(finish))
    if not out:
        raise InstanceFormatError("no schedule rows found")
    return out


def serialize_schedule(names, sched):
    width = max(len(nm) for nm in names)
    return "".join(
        f"{nm.ljust(width)}  {sched.start[i]}  {sched.finish[i]}\n"
        for i, nm in enumerate(names)
    )


class ResultDocument(Record):
    """A solved family plus its extreme schedules, ready for JSON transport.

    low is None when the release vector is the zero vector: the family is
    then closed under shifting schedules earlier, so no earliest extreme
    exists.  The verification fields record the violation reports of the
    extremes (always empty for solver output; kept so external results can
    round-trip).
    """

    objective: str
    mode: str
    names: tuple[str, ...]
    theta: TropScalar
    generator: TropMatrix
    u_low: TropVector
    u_high: TropVector
    low: Schedule | None
    high: Schedule
    unique: bool
    title: str | None = None
    unit: str | None = None
    violations_low: tuple[Violation, ...] | None = ()
    violations_high: tuple[Violation, ...] = ()


def _scalar_json(s):
    return _payload_json(s.value)


def _payload_json(v):
    if v is None:
        return None
    if isinstance(v, float):
        return v
    return str(v)


def _scalar_from_json(o):
    if o is None:
        return BOTTOM
    if isinstance(o, str):
        # not Fraction(o): it reads exponents, and "1e7000000" takes seconds
        try:
            return TropScalar(_parse_exact(o, None, sci_hint=False))
        except InstanceFormatError:
            shown = o if len(o) <= 20 else o[:20] + "..."
            raise InstanceFormatError(
                f"bad scalar {shown!r} in result document"
            ) from None
    if isinstance(o, bool) or not isinstance(o, (int, float)):
        raise InstanceFormatError(f"bad scalar {o!r} in result document")
    return TropScalar(o)


def _vector_json(payloads):
    """JSON list of a payload tuple (`TropVector._e` or a matrix row)."""
    return [_payload_json(v) for v in payloads]


def _list_from_json(obj, what):
    if not isinstance(obj, list):
        raise InstanceFormatError(f"bad result document: {what} must be a list")
    return obj


def _vector_from_json(obj, what):
    return TropVector(_scalar_from_json(o) for o in _list_from_json(obj, what))


def _is_text(v):
    """A string that can be written out: JSON escapes can spell lone
    surrogates, which UTF-8 cannot encode."""
    if not isinstance(v, str):
        return False
    try:
        v.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def _text_from_json(obj, key):
    """obj[key]: a string, or None when it is null or absent."""
    text = obj.get(key)
    if text is not None and not _is_text(text):
        raise InstanceFormatError(
            f"bad result document: {key} must be a string or null"
        )
    return text


def _names_from_json(obj):
    if not all(_is_text(nm) for nm in _list_from_json(obj, "activities")):
        raise InstanceFormatError(
            "bad result document: activities must be a list of strings"
        )
    return tuple(obj)


def _choice_from_json(obj, key, choices):
    if obj[key] not in choices:
        raise InstanceFormatError(
            f"bad result document: {key} must be one of {', '.join(choices)}"
        )
    return obj[key]


def _flag_from_json(obj, key):
    # not bool(obj[key]): it reads "false" as True and null as False
    if not isinstance(obj[key], bool):
        raise InstanceFormatError(
            f"bad result document: {key} must be true or false"
        )
    return obj[key]


def _schedule_json(sched):
    if sched is None:
        return None
    return {
        "start": _vector_json(sched.start._e),
        "finish": _vector_json(sched.finish._e),
    }


def _schedule_from_json(obj):
    if obj is None:
        return None
    return Schedule(
        start=_vector_from_json(obj["start"], "start"),
        finish=_vector_from_json(obj["finish"], "finish"),
    )


def _violations_json(violations):
    if violations is None:
        return None
    return {
        "feasible": not violations,
        "violations": [
            {
                "kind": v.kind,
                "where": list(v.where),
                "amount": _scalar_json(v.amount),
                "detail": v.detail,
            }
            for v in violations
        ],
    }


def _violations_from_json(obj):
    if obj is None:
        return None
    return tuple(
        Violation(
            kind=v["kind"],
            where=tuple(v["where"]),
            amount=_scalar_from_json(v["amount"]),
            detail=v["detail"],
        )
        for v in obj["violations"]
    )


# a placeholder for the generator: json.dumps(obj, indent=2) lays out the
# rest of the document, and the generator's rows replace this member's value
_GENERATOR = "generator rows"
_GENERATOR_MEMBER = '\n  "generator": '


def _row_piece(v, ends_row):
    """The piece `_kernels.json_pieces` repeats for a generator entry: its
    line break and indent, its token, then "," or its row's close and the
    next row's open."""
    import json

    end = "\n    ],\n    [" if ends_row else ","
    return "\n      " + json.dumps(_payload_json(v)) + end


@functools.cache
def _flat_encoder():
    """The C encoder, separating the entries of a generator row as the
    indented encoder does."""
    import json

    return json.JSONEncoder(separators=(",\n      ", ": "))


def _append_generator_rows(g, out):
    """Append the generator's rows to `out`, laid out as `json.dumps(obj,
    indent=2)` lays out a member of `obj`: an int64 generator as the pieces
    `_kernels.json_pieces` repeats, one per entry, with no entry boxed into
    a payload; payload rows with one C-encoder call each."""
    n, cols = g.shape
    arr = g._held_int_array()
    if not cols:
        # no entries, so none to box, whatever form the generator holds
        rows = ["[]"] * n
    elif arr is not None:
        from . import _kernels

        out.append("[\n    [")
        out.extend(_kernels.json_pieces(arr, _row_piece))
        # the last entry closes its row and opens no next one
        out[-1] = out[-1][: -len(",\n    [")]
        out.append("\n  ]")
        return
    else:
        encode = _flat_encoder().encode
        rows = [
            "[\n      " + encode(_vector_json(row))[1:-1] + "\n    ]"
            for row in g._rows
        ]
    out.append("[\n    " + ",\n    ".join(rows) + "\n  ]" if rows else "[]")


def result_to_json(doc):
    """The result document as `json.dumps(obj, indent=2)` writes it, with a
    trailing newline.  That call lays out everything but the generator,
    whose n x n entries `_append_generator_rows` lays out in its place."""
    import json

    obj = {
        "format": RESULT_FORMAT,
        "objective": doc.objective,
        "mode": doc.mode,
        "title": doc.title,
        "unit": doc.unit,
        "activities": list(doc.names),
        "theta": _scalar_json(doc.theta),
        "generator": _GENERATOR,
        "u_low": _vector_json(doc.u_low._e),
        "u_high": _vector_json(doc.u_high._e),
        "schedules": {
            "low": _schedule_json(doc.low),
            "high": _schedule_json(doc.high),
        },
        "unique": doc.unique,
        "verification": {
            "low": _violations_json(doc.violations_low),
            "high": _violations_json(doc.violations_high),
        },
    }
    # a JSON string holds no raw line break, and a nested member is indented
    # deeper, so this text occurs only where the top-level member is
    head, _, tail = json.dumps(obj, indent=2).partition(
        _GENERATOR_MEMBER + json.dumps(_GENERATOR)
    )
    out = [head + _GENERATOR_MEMBER]
    _append_generator_rows(doc.generator, out)
    out.append(tail + "\n")
    return "".join(out)


def result_from_json(text):
    import json

    try:
        obj = json.loads(text)
    except ValueError as e:
        # JSONDecodeError, or an int past the interpreter's digit limit
        raise InstanceFormatError(f"bad result document: {e}") from e
    if not isinstance(obj, dict) or obj.get("format") != RESULT_FORMAT:
        raise InstanceFormatError(
            f"bad result document: expected format {RESULT_FORMAT!r}"
        )
    try:
        doc = ResultDocument(
            objective=_choice_from_json(obj, "objective", OBJECTIVES),
            mode=_choice_from_json(obj, "mode", ("exact", "float")),
            title=_text_from_json(obj, "title"),
            unit=_text_from_json(obj, "unit"),
            names=_names_from_json(obj["activities"]),
            theta=_scalar_from_json(obj["theta"]),
            generator=TropMatrix(
                _vector_from_json(row, "a generator row")
                for row in _list_from_json(obj["generator"], "generator")
            ),
            u_low=_vector_from_json(obj["u_low"], "u_low"),
            u_high=_vector_from_json(obj["u_high"], "u_high"),
            low=_schedule_from_json(obj["schedules"]["low"]),
            high=_schedule_from_json(obj["schedules"]["high"]),
            unique=_flag_from_json(obj, "unique"),
            violations_low=_violations_from_json(obj["verification"]["low"]),
            violations_high=_violations_from_json(obj["verification"]["high"]),
        )
    except (KeyError, TypeError, ValueError) as e:
        if isinstance(e, InstanceFormatError):
            raise
        raise InstanceFormatError(f"bad result document: {e}") from e
    _check_sizes(doc)
    return doc


def _check_sizes(doc):
    """Activities, generator rows and schedules share one length; the
    parameter box matches the generator's columns."""
    n = len(doc.names)
    rows, cols = doc.generator.shape
    lengths = [rows] + [
        len(v)
        for sched in (doc.low, doc.high)
        if sched is not None
        for v in (sched.start, sched.finish)
    ]
    if any(m != n for m in lengths):
        raise InstanceFormatError(
            f"bad result document: {n} activities but generator or"
            " schedules of another length"
        )
    if len(doc.u_low) != cols or len(doc.u_high) != cols:
        raise InstanceFormatError(
            "bad result document: parameter box does not match the"
            f" generator's {cols} columns"
        )
