"""ASCII and SVG Gantt rendering.

Column k of the ASCII grid covers the time interval (k-1, k], so a bar
[x, y] with integer endpoints fills columns x+1 through y.
"""

import pytest

import golden
from tropsched import charts
from tropsched import (
    Schedule,
    TropVector,
    ascii_gantt,
    extract_schedule,
    solve_deviation,
    solve_makespan,
    svg_gantt,
)

MAKESPAN_CHART = """\
Vaccination sessions
          123456789
session-1 ####.....
session-2 .####....
session-3 ....#####
session-4 #####....
session-5 .....###.
(time unit: hour)
"""

DEVIATION_HIGH_CHART = """\
                   1
          1234567890
session-1 ####......
session-2 .####.....
session-3 .....#####
session-4 #####.....
session-5 .....###..
"""


def bar_span(line, name_w):
    bar = line[name_w + 1:]
    first = bar.index("#")
    last = len(bar) - 1 - bar[::-1].index("#")
    return first + 1, last + 1  # 1-based columns


class TestAsciiGantt:
    def test_makespan_chart(self, inst):
        fam = solve_makespan(inst)
        sched = extract_schedule(fam, fam.u_high)
        out = ascii_gantt(
            golden.NAMES, sched, title=golden.TITLE, unit=golden.UNIT
        )
        assert out == MAKESPAN_CHART

    def test_deviation_high_chart(self, inst):
        fam = solve_deviation(inst)
        sched = extract_schedule(fam, fam.u_high)
        assert ascii_gantt(golden.NAMES, sched) == DEVIATION_HIGH_CHART

    def test_bar_spans(self, inst):
        fam = solve_makespan(inst)
        sched = extract_schedule(fam, fam.u_high)
        lines = ascii_gantt(golden.NAMES, sched).splitlines()
        rows = [ln for ln in lines if ln.startswith("session-")]
        spans = [bar_span(ln, 9) for ln in rows]
        assert spans == [(1, 4), (2, 5), (5, 9), (1, 5), (6, 8)]

    def test_negative_times_shift_the_origin(self):
        sched = Schedule(
            start=TropVector([-2, 0]), finish=TropVector([1, 3])
        )
        out = ascii_gantt(("a", "bb"), sched)
        assert out == (
            "   10123\n"
            "a  ###..\n"
            "bb ..###\n"
            "(columns start at time -2)\n"
        )

    def test_fractional_bar_fills_touched_columns(self):
        sched = Schedule(start=TropVector([0.5]), finish=TropVector([2.5]))
        assert ascii_gantt(("job",), sched) == "    123\njob ###\n"

    def test_size_mismatch(self):
        sched = Schedule(start=TropVector([0]), finish=TropVector([1]))
        with pytest.raises(ValueError, match="sizes differ"):
            ascii_gantt(("a", "b"), sched)


class TestSvgGantt:
    def test_structure(self, inst):
        fam = solve_makespan(inst)
        sched = extract_schedule(fam, fam.u_high)
        out = svg_gantt(golden.NAMES, sched, title=golden.TITLE, unit=golden.UNIT)
        assert out.startswith("<svg ")
        assert out.rstrip().endswith("</svg>")
        assert 'xmlns="http://www.w3.org/2000/svg"' in out
        assert out.count('class="bar"') == 5
        assert "Vaccination sessions" in out
        for nm in golden.NAMES:
            assert nm in out

    def test_deterministic(self, inst):
        fam = solve_makespan(inst)
        sched = extract_schedule(fam, fam.u_high)
        a = svg_gantt(golden.NAMES, sched)
        b = svg_gantt(golden.NAMES, sched)
        assert a == b

    def test_escapes_markup(self):
        sched = Schedule(start=TropVector([0]), finish=TropVector([1]))
        out = svg_gantt(("a",), sched, title="a < b & c")
        assert "a &lt; b &amp; c" in out
        assert "a < b" not in out

    def test_size_mismatch(self):
        sched = Schedule(start=TropVector([0]), finish=TropVector([1]))
        with pytest.raises(ValueError, match="sizes differ"):
            svg_gantt(("a", "b"), sched)


class TestSpanCap:
    """A chart draws one column (or grid line) per time unit, so a span
    over the cap is refused before anything is drawn."""

    @pytest.mark.parametrize("render", [ascii_gantt, svg_gantt])
    def test_span_just_over_the_cap(self, render):
        cap = charts._MAX_SPAN
        at_cap = Schedule(start=TropVector([cap - 3]), finish=TropVector([cap]))
        assert "a" in render(("a",), at_cap)
        over = Schedule(start=TropVector([cap - 3]), finish=TropVector([cap + 1]))
        with pytest.raises(ValueError, match=f"spans {cap + 1} time units"):
            render(("a",), over)

    @pytest.mark.parametrize("render", [ascii_gantt, svg_gantt])
    def test_shifted_origin_counts(self, render):
        cap = charts._MAX_SPAN
        over = Schedule(start=TropVector([-1, 0]), finish=TropVector([0, cap]))
        with pytest.raises(ValueError, match=f"spans {cap + 1} time units"):
            render(("a", "b"), over)
