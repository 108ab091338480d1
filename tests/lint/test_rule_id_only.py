"""R1xx — the id-only model rules."""

from __future__ import annotations


def codes(result):
    return [d.code for d in result.diagnostics]


class TestForbiddenImport:
    def test_network_import_in_core_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                from repro.sim.network import SyncNetwork
                """
            }
        )
        assert codes(result) == ["R101"]

    def test_submodule_prefix_flagged(self, lint_tree):
        result = lint_tree(
            {"repro/core/bad.py": "import repro.net.cluster\n"}
        )
        assert codes(result) == ["R101"]

    def test_sanctioned_imports_pass(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/good.py": """\
                from repro.sim.inbox import Inbox
                from repro.sim.message import Message
                from repro.sim.node import NodeApi, Protocol
                """
            }
        )
        assert result.ok

    def test_rule_scoped_to_protocol_layers(self, lint_tree):
        # The same import is fine in the adversary layer: Byzantine
        # nodes are omniscient by assumption.
        result = lint_tree(
            {
                "repro/adversary/ok.py": (
                    "from repro.sim.network import AdversaryView\n"
                )
            }
        )
        assert result.ok


class TestGlobalMembershipSurface:
    def test_network_nodes_read_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def peek(network):
                    return len(network.node_ids)
                """
            }
        )
        assert codes(result) == ["R102"]

    def test_config_n_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def quorum(config, count):
                    return 3 * count >= config.n
                """
            }
        )
        assert codes(result) == ["R102"]

    def test_engine_membership_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def spy(network):
                    return network.membership
                """
            }
        )
        assert codes(result) == ["R102"]

    def test_frozen_self_membership_passes(self, lint_tree):
        # The sanctioned pattern: a locally observed view frozen from
        # the ViewTracker (see EarlyConsensus.membership).
        result = lint_tree(
            {
                "repro/core/good.py": """\
                class P:
                    def restrict(self, inbox):
                        return [
                            m for m in inbox if m.sender in self.membership
                        ]
                """
            }
        )
        assert result.ok


class TestKnownPopulationParameter:
    def test_n_and_f_parameters_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                class P:
                    def __init__(self, value, n, f):
                        self.quorum = n - f
                """
            }
        )
        assert codes(result) == ["R103", "R103"]

    def test_baselines_layer_out_of_scope(self, lint_tree):
        # The classical comparators know n and f by definition.
        result = lint_tree(
            {
                "repro/baselines/classic.py": """\
                class P:
                    def __init__(self, value, n, f):
                        self.quorum = n - f
                """
            }
        )
        assert result.ok

    def test_n_v_parameter_passes(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/good.py": """\
                def at_least_third(count, n_v):
                    return count > 0 and 3 * count >= n_v
                """
            }
        )
        assert result.ok


class TestSeededViolationCli:
    def test_id_only_violation_fails_with_location(
        self, lint_cli, tmp_path
    ):
        bad = tmp_path / "repro" / "core" / "sneaky.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "def count_everyone(network):\n"
            "    return len(network.nodes)\n",
            encoding="utf-8",
        )
        proc = lint_cli(tmp_path)
        assert proc.returncode == 1
        assert "sneaky.py:2:" in proc.stdout
        assert "R102" in proc.stdout
