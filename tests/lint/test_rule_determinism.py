"""R3xx — determinism rules."""

from __future__ import annotations


def codes(result):
    return [d.code for d in result.diagnostics]


class TestDirectRandomImport:
    def test_import_flagged_in_sim(self, lint_tree):
        result = lint_tree({"repro/sim/bad.py": "import random\n"})
        assert codes(result) == ["R301"]

    def test_from_import_flagged(self, lint_tree):
        result = lint_tree(
            {"repro/core/bad.py": "from random import choice\n"}
        )
        assert codes(result) == ["R301"]

    def test_rng_module_is_sanctioned(self, lint_tree):
        result = lint_tree({"repro/sim/rng.py": "import random\n"})
        assert result.ok

    def test_analysis_layer_is_sanctioned(self, lint_tree):
        result = lint_tree({"repro/analysis/boot.py": "import random\n"})
        assert result.ok

    def test_seeded_rng_import_passes(self, lint_tree):
        result = lint_tree(
            {
                "repro/sim/good.py": (
                    "from repro.sim.rng import Random, make_rng\n"
                )
            }
        )
        assert result.ok


class TestWallClock:
    def test_time_time_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/sim/bad.py": """\
                import time

                def now():
                    return time.time()
                """
            }
        )
        assert codes(result) == ["R302"]

    def test_datetime_now_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                from datetime import datetime

                def stamp():
                    return datetime.now()
                """
            }
        )
        assert codes(result) == ["R302"]

    def test_net_layer_may_use_wall_clock(self, lint_tree):
        result = lint_tree(
            {
                "repro/net/ok.py": """\
                import time

                def pace():
                    time.sleep(0.01)
                    return time.monotonic()
                """
            }
        )
        assert result.ok

    def test_simulated_time_attribute_passes(self, lint_tree):
        # engine.time / ctx.time are logical clocks, not wall clocks;
        # only calls on the 'time' module are flagged.
        result = lint_tree(
            {
                "repro/asyncsim/good.py": """\
                def when(engine):
                    return engine.time
                """
            }
        )
        assert result.ok


class TestUnseededRandomCall:
    def test_module_level_call_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/sim/bad.py": """\
                import random  # repro-lint: disable=R301 -- isolate R303
                def flip():
                    return random.random() < 0.5
                """
            }
        )
        assert codes(result) == ["R303"]

    def test_seeded_instance_calls_pass(self, lint_tree):
        result = lint_tree(
            {
                "repro/sim/good.py": """\
                from repro.sim.rng import make_rng

                def flip(seed):
                    rng = make_rng(seed)
                    return rng.random() < 0.5
                """
            }
        )
        assert result.ok


class TestUnorderedIteration:
    # Ordered idioms stay clean.  An iteration order that does leak into
    # a run is caught on the run itself, by the hash-seed stream test
    # (tests/integration/test_hash_seed_determinism.py).
    def test_max_with_total_order_key_passes(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/good.py": """\
                def best(votes):
                    return max(
                        votes.items(),
                        key=lambda kv: (len(kv[1]), repr(kv[0])),
                    )
                """
            }
        )
        assert result.ok

    def test_sorted_iteration_passes(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/good.py": """\
                def ordered(inbox):
                    return [s for s in sorted(inbox.senders())]
                """
            }
        )
        assert result.ok


class TestSeededViolationCli:
    def test_random_import_fails_with_location(self, lint_cli, tmp_path):
        bad = tmp_path / "repro" / "sim" / "chaotic.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import os\nimport random\n", encoding="utf-8")
        proc = lint_cli(tmp_path)
        assert proc.returncode == 1
        assert "chaotic.py:2:" in proc.stdout
        assert "R301" in proc.stdout
