"""R603 — unordered-iteration escape analysis."""

from __future__ import annotations

from repro.lint import all_program_rules, all_rules, run_paths

from .conftest import FIXTURES


def _lint(root):
    return run_paths([root], all_rules(), program_rules=all_program_rules())


def _r603(result):
    return [d for d in result.diagnostics if d.code == "R603"]


class TestUnorderedEscape:
    def test_three_interprocedural_positives(self):
        result = _lint(FIXTURES / "order_escape")
        found = _r603(result)
        assert len(found) == 3
        assert {d.code for d in result.diagnostics} == {"R603"}

    def test_append_escape_with_unorderedness_from_callee(self):
        # The iterable's unordered-ness comes from sender_view(), one
        # call away; the .append() inside the loop is the escape.
        result = _lint(FIXTURES / "order_escape")
        assert any(
            d.line == 13 and ".append()" in d.message
            for d in _r603(result)
        )

    def test_call_mediated_sink_two_hops(self):
        # stash_deep -> stash -> bucket.append: the loop variable
        # reaches an ordered container two calls away.
        result = _lint(FIXTURES / "order_escape")
        assert any("stash_deep" in d.message for d in _r603(result))

    def test_yield_escape_through_iter_wrapper(self):
        result = _lint(FIXTURES / "order_escape")
        assert any(
            d.line == 30 and "yields" in d.message for d in _r603(result)
        )

    def test_commutative_and_sorted_loops_stay_silent(self):
        # The clean functions in the same file: set folds, post-loop
        # sorted(), and sorted-iterable loops need no suppressions.
        result = _lint(FIXTURES / "order_escape")
        flagged_lines = {d.line for d in _r603(result)}
        assert flagged_lines == {13, 22, 30}

    def test_real_core_suppression_sites_are_clean_under_r603(self):
        # The commutative set ops of total_order/parallel_consensus:
        # R603's escape reasoning needs no suppression for them.
        result = _lint(FIXTURES / "clean_corpus")
        assert not _r603(result)


class TestSupersession:
    """R603 reports every input the old syntactic set-iteration ban did."""

    def test_first_of_fresh_set_flagged(self, lint_tree):
        files = {
            "repro/core/bad.py": """\
            def first(inbox):
                for sender in set(inbox.raw()):
                    return sender
            """
        }
        assert {d.code for d in lint_tree(files).diagnostics} == {"R603"}

    def test_selector_tie_check_carried_over(self, lint_tree):
        # max() without key= over an unordered view lets iteration
        # order break the tie.
        files = {
            "repro/core/bad.py": """\
            def leader(votes):
                return max(votes.keys())
            """
        }
        result = lint_tree(files)
        assert {d.code for d in result.diagnostics} == {"R603"}

    def test_selector_with_key_stays_silent(self, lint_tree):
        files = {
            "repro/core/good.py": """\
            def leader(votes):
                return max(votes.items(), key=lambda kv: (len(kv[1]),))
            """
        }
        assert lint_tree(files).ok
