"""Tests for table rendering and sparklines.

(The sweep behaviours are tested over ``repro sweep`` in
``tests/test_cli.py``.)
"""

from repro.analysis.report import format_table


class TestSparkline:
    def test_monotone_series(self):
        from repro.analysis.report import sparkline

        text = sparkline([8, 4, 2, 1, 0.5, 0.25])
        assert text[0] == "█"
        assert text[-1] == "▁"
        assert len(text) == 6

    def test_flat_series(self):
        from repro.analysis.report import sparkline

        assert sparkline([3, 3, 3]) == "▁▁▁"

    def test_empty(self):
        from repro.analysis.report import sparkline

        assert sparkline([]) == ""

    def test_explicit_bounds(self):
        from repro.analysis.report import sparkline

        # with a wider explicit range, mid values render lower
        free = sparkline([0, 5, 10])
        clamped = sparkline([0, 5, 10], lo=0, hi=100)
        assert free[-1] == "█"
        assert clamped[-1] != "█"


class TestReport:
    def test_renders_markdown_table(self):
        text = format_table(
            [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], title="T"
        )
        assert "## T" in text
        assert "| a " in text
        assert "| 22" in text

    def test_column_subset_and_order(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_empty_rows(self):
        assert "(no data)" in format_table([], title="T")

    def test_float_formatting(self):
        text = format_table([{"v": 0.5}])
        assert "0.5" in text
