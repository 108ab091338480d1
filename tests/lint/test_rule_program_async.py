"""R701 — shared state across await points in the async runtime."""

from __future__ import annotations

from repro.lint import all_rules, run_paths

from .conftest import FIXTURES


def _lint(root):
    return run_paths([root], all_rules())


def _r701(result):
    return [d for d in result.diagnostics if d.code == "R701"]


class TestAwaitSharedState:
    def test_three_seeded_positives(self):
        result = _lint(FIXTURES / "await_state")
        found = _r701(result)
        assert len(found) == 3
        assert {d.code for d in result.diagnostics} == {"R701"}

    def test_check_then_act_across_await(self):
        result = _lint(FIXTURES / "await_state")
        assert any(
            "'self.busy' was checked before an await" in d.message
            for d in _r701(result)
        )

    def test_stale_snapshot_detected_cross_method(self):
        # 'queue' is only known to be shared because note() mutates it
        # in a *different* method — the shared-attr set spans the class.
        result = _lint(FIXTURES / "await_state")
        assert any(
            "snapshot 'pending' of 'self.queue'" in d.message
            for d in _r701(result)
        )

    def test_read_modify_write_detected(self):
        result = _lint(FIXTURES / "await_state")
        assert any("'self.round'" in d.message for d in _r701(result))

    def test_revalidated_and_local_only_stay_silent(self):
        result = _lint(FIXTURES / "await_state")
        flagged_lines = {d.line for d in _r701(result)}
        # safe() and local_only() contribute nothing
        assert flagged_lines == {19, 25, 32}

    def test_sync_layers_not_checked(self, lint_tree):
        # The same pattern in core/ is not an R701 concern: core code
        # never runs under the cooperative scheduler.
        files = {
            "repro/core/state.py": """\
            class Holder:
                def __init__(self):
                    self.busy = False

                def flip(self):
                    if not self.busy:
                        self.busy = True
            """
        }
        assert lint_tree(files).ok

    def test_immutable_attrs_not_flagged(self, lint_tree):
        # Attributes never mutated anywhere in the class are not
        # shared state; snapshots of them are safe across awaits.
        files = {
            "repro/asyncsim/cfg.py": """\
            class Runner:
                def __init__(self, config):
                    self.config = config
                    self.seen = []

                def mark(self, item):
                    self.seen.append(item)

                async def run(self):
                    cfg = self.config
                    await self.tick()
                    return cfg

                async def tick(self):
                    return None
            """
        }
        assert lint_tree(files).ok

    def test_current_async_runtime_is_clean(self, lint_cli):
        proc = lint_cli("src/repro/asyncsim", "--select", "R701")
        assert proc.returncode == 0, proc.stdout + proc.stderr
