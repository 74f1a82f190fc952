"""Artifact writers: `csv_text` against `csv.writer`, and `line_chart`'s polylines against
the per-point rendering they replaced."""

import csv
import io
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from depinsim import charts
from depinsim.charts import _fmt, line_chart
from depinsim.engine import csv_text


def per_point_polylines(x, series):
    """Each series' polyline points as `line_chart` drew them one point at a time, through
    `px`/`py` closures and two `_fmt` calls a point: the oracle of the bulk rendering."""
    all_y = [v for values in series.values() for v in values]
    y_lo, y_hi = min(all_y), max(all_y)
    if y_lo == y_hi:
        pad = abs(y_lo) * 0.1 or 1.0
        y_lo, y_hi = y_lo - pad, y_hi + pad
    x_lo, x_hi = min(x), max(x)
    if x_lo == x_hi:
        x_lo, x_hi = x_lo - 1, x_hi + 1
        if x_lo == x_hi:
            pad = abs(x_lo) * 0.1
            x_lo, x_hi = x_lo - pad, x_hi + pad
    plot_w = charts._LINE_WIDTH - charts._MARGIN_LEFT - charts._MARGIN_RIGHT
    plot_h = charts._LINE_HEIGHT - charts._MARGIN_TOP - charts._MARGIN_BOTTOM

    def px(value):
        return charts._MARGIN_LEFT + (value - x_lo) / (x_hi - x_lo) * plot_w

    def py(value):
        return charts._MARGIN_TOP + (y_hi - value) / (y_hi - y_lo) * plot_h

    return [" ".join(f"{_fmt(px(xi))},{_fmt(py(yi))}" for xi, yi in zip(x, values)) for values in series.values()]


FLOATS = st.floats(-1e300, 1e300) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e300, -1e300])


@st.composite
def chart_data(draw):
    """One to three aligned series over months or floats.  The ints of one chart lie in one window
    2**53 wide within [-2**53, 2**53]: Python subtracts two ints exactly, float64 rounds a
    difference beyond 2**53, so a wider spread is not a case of equal coordinates."""
    n = draw(st.integers(1, 40))
    if draw(st.booleans()):
        start = draw(st.integers(0, 1200))
        x = list(range(start, start + n))
    else:
        x = draw(st.lists(FLOATS, min_size=n, max_size=n))
    base = draw(st.integers(-2**53, 0))
    ints = st.integers(0, 2**53).map(lambda offset: base + offset) | st.sampled_from([base, base + 2**53])
    column = (st.lists(ints, min_size=n, max_size=n) | st.lists(FLOATS, min_size=n, max_size=n)
              | (ints | FLOATS).map(lambda value: [value] * n))  # a flat series
    series = {f"s{i}": draw(column) for i in range(draw(st.integers(1, 3)))}
    return x, series


class TestLineChart:
    @settings(max_examples=300, deadline=None)
    @given(data=chart_data())
    @example(data=([1, 2, 3], {"price": [1.0, 4.0, 2.0]}))
    @example(data=([5], {"nodes": [0], "users": [0.0]}))  # one point, flat: both axes padded
    @example(data=([0.0, 1.0], {"a": [-0.0, 0.0], "b": [5e-324, -5e-324]}))
    @example(data=([1, 2], {"a": [-2**53, 0], "b": [-1, 1 - 2**53]}))
    @example(data=([2.0**60], {"a": [1.0]}))  # one x beyond 2**53, which x - 1 and x + 1 round back to
    @example(data=([9007199254740996.0], {"a": [1.0]}))
    @example(data=([2.0**53], {"a": [1.0]}))  # x - 1 rounds away from x, x + 1 back to it
    def test_polylines_equal_the_per_point_rendering(self, data):
        x, series = data
        assert re.findall(r'<polyline points="([^"]*)"', line_chart(x, series)) == per_point_polylines(x, series)

    @settings(max_examples=200, deadline=None)
    @given(ints=st.lists(st.integers(0, 1200) | st.integers(-2**100, 2**100), min_size=1, max_size=20))
    @example(ints=[2**60])  # 2**60 - 1 and 2**60 + 1 round back to 2**60: the chart pads it, as a float
    @example(ints=[2**60, 2**60 + 1])
    def test_int_x_draws_as_its_floats(self, ints):
        series = {"a": [float(i) for i in range(len(ints))]}
        assert line_chart(ints, series) == line_chart([float(v) for v in ints], series)

    def test_decimal_zeros_are_stripped_as_fmt_strips_them(self):
        # Coordinates written "%.2f" as "34.00", "353.50", "353.90" and "230.00": whole and one-decimal.
        x, series = [0, 1, 2, 4], {"a": [320, 0.5, 0.1, 0]}
        (points,) = re.findall(r'<polyline points="([^"]*)"', line_chart(x, series))
        assert points == per_point_polylines(x, series)[0] == "72,34 230,353.5 388,353.9 704,354"


IDENTIFIERS = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,12}", fullmatch=True)
FIELDS = (st.integers() | st.floats(allow_nan=True, allow_infinity=True)
          | st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 0, 1e300, 5e-324]) | IDENTIFIERS)


@st.composite
def tables(draw):
    columns = draw(st.integers(1, 6))
    header = draw(st.lists(IDENTIFIERS, min_size=columns, max_size=columns))
    rows = draw(st.lists(st.tuples(*[FIELDS] * columns), max_size=12))
    return header, rows


def writer_text(header, rows):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


class TestCsvText:
    @settings(max_examples=200, deadline=None)
    @given(table=tables())
    def test_equals_csv_writer(self, table):
        header, rows = table
        assert csv_text(header, iter(rows)) == writer_text(header, rows)

    def test_compare_rows_are_dict_values(self):
        row = {"policy": "heuristic", "patience": 1, "seeds": 2, "efficiency_mean": 0.5}
        assert csv_text(row.keys(), [row.values()]) == "policy,patience,seeds,efficiency_mean\nheuristic,1,2,0.5\n"

    @settings(max_examples=100, deadline=None)
    @given(table=tables(), bad=st.sampled_from([",", '"', "\n", "\r"]), data=st.data())
    def test_a_field_that_needs_quoting_raises(self, table, bad, data):
        header, rows = table
        rows = [list(row) for row in rows] + [list(header)]
        row = data.draw(st.integers(0, len(rows) - 1))
        column = data.draw(st.integers(0, len(header) - 1))
        rows[row][column] = data.draw(st.builds("{}{}{}".format, IDENTIFIERS | st.just(""), st.just(bad),
                                                IDENTIFIERS | st.just("")))
        *rows, header = rows
        with pytest.raises(ValueError, match="needs quoting"):
            csv_text(header, rows)

    @pytest.mark.parametrize("header, rows", [(("a",), [("x",), ("",)]), (("",), [("x",)]), ((), [()])])
    def test_an_empty_line_raises(self, header, rows):
        # csv.writer writes a lone empty field as '""'; with no quoting, its line would read back as no field.
        with pytest.raises(ValueError, match="needs quoting"):
            csv_text(header, rows)

    @pytest.mark.parametrize("row", [(1,), (1, 2, 3), ()])
    def test_a_row_of_another_length_raises(self, row):
        with pytest.raises(ValueError, match="must hold 2 fields"):
            csv_text(("a", "b"), [(1, 2), row])
