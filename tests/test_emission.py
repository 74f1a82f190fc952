"""Artifact writers: `csv_text` against `csv.writer`, and `line_chart`'s polylines against
the per-point rendering they replaced."""

import csv
import io
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from depinsim import charts
from depinsim.charts import _fmt, _fmt_tick, _points, line_chart
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
    # Exact ties of the hundredths, which "%.2f" rounds half to even: px 72.125, 72.375, 72.625 and
    # py 34.625, 35.875, 37.125.
    @example(data=([0, 1, 3, 5, 5056], {"a": [256, 255.5, 254.5, 253.5, 0]}))
    # On and next to the plot box's edges, px 72 and 704, py 34 and 354.
    @example(data=([0.0, 5e-324, 1 - 2**-53, 1.0], {"a": [1.0, 1 - 2**-53, 5e-324, 0.0]}))
    @example(data=([-1e300, 1e300], {"a": [-1e300, 1e300], "b": [1e300, -1e300]}))
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

    @settings(max_examples=200, deadline=None)
    @given(ints=st.lists(st.integers(0, 1200) | st.integers(-2**100, 2**100), min_size=1, max_size=20))
    @example(ints=[2**62 + 511, 2**62 + 513])  # one float apart, two ints apart: read as ints, py was 163874
    def test_int_series_draw_as_their_floats(self, ints):
        x = list(range(len(ints)))
        assert line_chart(x, {"a": ints}) == line_chart(x, {"a": [float(v) for v in ints]})

    def test_decimal_zeros_are_stripped_as_fmt_strips_them(self):
        # Coordinates written "%.2f" as "34.00", "353.50", "353.90" and "230.00": whole and one-decimal.
        x, series = [0, 1, 2, 4], {"a": [320, 0.5, 0.1, 0]}
        (points,) = re.findall(r'<polyline points="([^"]*)"', line_chart(x, series))
        assert points == per_point_polylines(x, series)[0] == "72,34 230,353.5 388,353.9 704,354"

    def test_ties_round_half_to_even(self):
        # px 72.125, 72.375, 72.625 and py 34.625, 35.875, 37.125 are exact doubles.
        x, series = [0, 1, 3, 5, 5056], {"a": [256, 255.5, 254.5, 253.5, 0]}
        (points,) = re.findall(r'<polyline points="([^"]*)"', line_chart(x, series))
        assert points == per_point_polylines(x, series)[0] == "72,34 72.12,34.62 72.38,35.88 72.62,37.12 704,354"

    @pytest.mark.parametrize("value", [1.7e308, -1.7e308, sys.float_info.max, -sys.float_info.max])
    def test_a_flat_series_near_the_float_maximum_keeps_a_finite_axis(self, value):
        # Padded by a tenth of its value, the axis would end at +-inf and every point read nan.
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no overflow or invalid-value RuntimeWarning either
            svg = line_chart([1, 2, 3], {"a": [value] * 3})
            flat_x = line_chart([value], {"a": [1.0]})
        assert "nan" not in svg and "inf" not in svg and "nan" not in flat_x and "inf" not in flat_x
        # The axis ends at the float maximum on the side its pad overflowed, and a tenth away on the other.
        pad = abs(value) * 0.1
        labels = re.findall(r'text-anchor="end">([^<]*)<', svg)  # the y ticks, lowest first
        assert [labels[0], labels[-1]] == [_fmt_tick(max(value - pad, -sys.float_info.max)),
                                          _fmt_tick(min(value + pad, sys.float_info.max))]
        (points,) = re.findall(r'<polyline points="([^"]*)"', svg)
        assert len({point.split(",")[1] for point in points.split()}) == 1

    @pytest.mark.parametrize("x, series, message", [
        ([1.0, float("nan")], {"a": [1.0, 2.0]}, "x holds nan"),
        ([1.0, float("inf")], {"a": [1.0, 2.0]}, "x holds inf"),
        ([1.0, 2.0], {"a": [1.0, 2.0], "b": [1.0, -float("inf")]}, "series 'b' holds -inf"),
        ([1.0, 2.0], {"a": [float("nan"), 2.0]}, "series 'a' holds nan"),
        ([-1e308, 1e308], {"a": [1.0, 2.0]}, r"the x axis spans \[-1e\+308, 1e\+308\]"),
        ([1.0, 2.0], {"a": [-1e308, 0.0], "b": [0.0, 1e308]}, r"the y axis spans \[-1e\+308, 1e\+308\]"),
        ([1.0, 2.0], {}, "needs at least one series"),
        ([], {"a": []}, "needs at least one x value"),
    ])
    def test_unchartable_input_raises(self, x, series, message):
        with pytest.raises(ValueError, match=message):
            line_chart(x, series)


class TestPoints:
    """`_points` against `_fmt`, one coordinate at a time."""

    @staticmethod
    def per_value(xs, ys):
        return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in zip(xs.tolist(), ys.tolist()))

    def test_every_eighth_below_1000(self):
        # A double on a tie of the hundredths, (2k + 1) / 200, is an odd multiple of 1/8: these are all of them.
        values = np.arange(8000) / 8
        assert _points(values, values[::-1]) == self.per_value(values, values[::-1])

    def test_random_doubles_inside_the_plot_box(self):
        rng = np.random.default_rng(41)
        xs = rng.uniform(72, 704, 100_000)
        ys = rng.uniform(34, 354, 100_000)
        ends = np.array([72.0, 704.0, 34.0, 354.0, np.nextafter(72, 704), np.nextafter(704, 0), 72.005, 703.995])
        xs, ys = np.concatenate((xs, ends)), np.concatenate((ys, ends[::-1]))
        assert _points(xs, ys) == self.per_value(xs, ys)

    def test_a_whole_part_beyond_the_table_raises(self):
        with pytest.raises(IndexError):
            _points(np.array([1000.0]), np.array([34.0]))


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
