"""R601/R602 — interprocedural taint, pinned by the fixture corpora.

Every positive here crosses at least one call boundary: the syntactic
R1xx/R2xx rules see nothing in these trees.
"""

from __future__ import annotations

from repro.lint import all_program_rules, all_rules, run_paths

from .conftest import FIXTURES


def _lint(root, codes=None):
    program = all_program_rules()
    if codes:
        program = [r for r in program if r.code in codes]
    return run_paths([root], all_rules(), program_rules=program)


def _findings(result, code):
    return [d for d in result.diagnostics if d.code == code]


class TestGlobalKnowledgeTaint:
    def test_three_interprocedural_positives(self):
        result = _lint(FIXTURES / "taint_membership")
        found = _findings(result, "R601")
        assert len(found) == 3
        # and nothing else fires on the corpus
        assert {d.code for d in result.diagnostics} == {"R601"}

    def test_flow_through_re_export_chain(self):
        result = _lint(FIXTURES / "taint_membership")
        lines = {
            (d.path.rsplit("/", 1)[-1], d.line): d.message
            for d in _findings(result, "R601")
        }
        assert ("proto.py", 9) in lines  # exported_roster via re-export
        assert "exported_roster" in lines[("proto.py", 9)]

    def test_flow_through_container(self):
        result = _lint(FIXTURES / "taint_membership")
        messages = [d.message for d in _findings(result, "R601")]
        assert any("roster_frozen" in m for m in messages)

    def test_argument_into_core_flagged_at_caller(self):
        result = _lint(FIXTURES / "taint_membership")
        by_file = [
            d
            for d in _findings(result, "R601")
            if d.path.endswith("driver.py")
        ]
        assert len(by_file) == 1
        assert "parameter 'voters'" in by_file[0].message

    def test_clean_core_idioms_stay_silent(self):
        result = _lint(FIXTURES / "clean_corpus")
        assert result.ok


class TestFloatQuorumTaint:
    def test_three_interprocedural_positives(self):
        result = _lint(FIXTURES / "taint_float")
        found = _findings(result, "R602")
        assert len(found) == 3
        assert {d.code for d in result.diagnostics} == {"R602"}

    def test_call_borne_float_reaches_compare(self):
        result = _lint(FIXTURES / "taint_float")
        assert any(
            d.line == 14 and "float-tainted value" in d.message
            for d in _findings(result, "R602")
        )

    def test_two_hop_flow_through_passthrough(self):
        result = _lint(FIXTURES / "taint_float")
        assert any(d.line == 20 for d in _findings(result, "R602"))

    def test_sink_parameter_flagged_at_call_site(self):
        result = _lint(FIXTURES / "taint_float")
        sink = [
            d
            for d in _findings(result, "R602")
            if "reaches a quorum comparison inside" in d.message
        ]
        assert len(sink) == 1
        assert "'meets()'" in sink[0].message

    def test_exact_integer_quorums_stay_silent(self):
        result = _lint(FIXTURES / "clean_corpus")
        assert not _findings(result, "R602")


class TestSyntacticRulesSeeNothing:
    def test_per_file_rules_alone_miss_every_seeded_flow(self):
        # The whole reason for phase two: with the program passes off,
        # these corpora look perfectly clean.
        for corpus in ("taint_membership", "taint_float"):
            result = run_paths([FIXTURES / corpus], all_rules())
            assert result.ok, corpus
