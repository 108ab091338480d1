"""R2xx — integer quorum arithmetic rules."""

from __future__ import annotations


def codes(result):
    return [d.code for d in result.diagnostics]


class TestFloatDivision:
    def test_division_in_threshold_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def at_least_third(count, n_v):
                    return count >= n_v / 3
                """
            }
        )
        assert codes(result) == ["R201"]

    def test_cross_multiplied_form_passes(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/good.py": """\
                def at_least_third(count, n_v):
                    return count > 0 and 3 * count >= n_v
                """
            }
        )
        assert result.ok

    def test_division_outside_comparison_passes(self, lint_tree):
        # Approximate agreement legitimately averages values; only
        # divisions feeding a comparison are threshold math.
        result = lint_tree(
            {
                "repro/core/good.py": """\
                def midpoint(lo, hi):
                    return (lo + hi) / 2
                """
            }
        )
        assert result.ok

    def test_floor_division_passes(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/good.py": """\
                def half_plus(n_v):
                    return n_v // 2 + 3
                """
            }
        )
        assert result.ok

    def test_rule_scoped_to_protocol_layers(self, lint_tree):
        result = lint_tree(
            {
                "repro/analysis/ok.py": """\
                def rate(hits, total):
                    return 1.0 if hits >= total / 2 else 0.0
                """
            }
        )
        assert result.ok


class TestRounding:
    def test_math_ceil_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                import math

                def quorum(count, n_v):
                    return count >= math.ceil(n_v / 3)
                """
            }
        )
        assert "R202" in codes(result)

    def test_bare_floor_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/baselines/bad.py": """\
                from math import floor

                def quorum(count, votes):
                    return count >= floor(votes * 2 / 3)
                """
            }
        )
        assert "R202" in codes(result)


class TestFractionLiteral:
    def test_two_thirds_literal_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def quorum(count, n_v):
                    return count >= 0.66 * n_v
                """
            }
        )
        assert codes(result) == ["R203"]

    def test_zero_and_one_bounds_pass(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/good.py": """\
                def valid(rate):
                    return 0.0 <= rate <= 1.0
                """
            }
        )
        assert result.ok


class TestSeededViolationCli:
    def test_float_threshold_fails_with_location(self, lint_cli, tmp_path):
        bad = tmp_path / "repro" / "core" / "floaty.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "def accept(count, n_v):\n"
            "    return count >= 2 * n_v / 3\n",
            encoding="utf-8",
        )
        proc = lint_cli(tmp_path)
        assert proc.returncode == 1
        assert "floaty.py:2:" in proc.stdout
        assert "R201" in proc.stdout
