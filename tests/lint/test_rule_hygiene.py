"""R4xx — protocol hygiene rules."""

from __future__ import annotations


def codes(result):
    return [d.code for d in result.diagnostics]


class TestOutboxInProtocol:
    def test_outbox_import_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": (
                    "from repro.sim.message import Outbox\n"
                )
            }
        )
        assert codes(result) == ["R401"]

    def test_outbox_construction_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def smuggle():
                    return Outbox()
                """
            }
        )
        assert codes(result) == ["R401"]

    def test_message_import_passes(self, lint_tree):
        # Protocols may build Message values for *local* counting (the
        # substitution rule); only the send path is fenced off.
        result = lint_tree(
            {
                "repro/core/good.py": (
                    "from repro.sim.message import Message\n"
                )
            }
        )
        assert result.ok

    def test_sim_layer_may_use_outbox(self, lint_tree):
        result = lint_tree(
            {
                "repro/sim/ok.py": """\
                from repro.sim.message import Outbox

                def fresh():
                    return Outbox()
                """
            }
        )
        assert result.ok


class TestPrivateApiAccess:
    def test_outbox_attribute_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def bypass(api, dest, kind):
                    api._outbox.send(dest, kind, None, None)
                """
            }
        )
        assert codes(result) == ["R402"]

    def test_known_contacts_attribute_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def everyone(api):
                    return api._known_contacts
                """
            }
        )
        assert codes(result) == ["R402"]

    def test_public_api_passes(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/good.py": """\
                def greet(api, dest):
                    if api.knows(dest):
                        api.send(dest, "hello")
                    else:
                        api.broadcast("hello")
                """
            }
        )
        assert result.ok


class TestSenderStamping:
    def test_stamped_call_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def forge(send, victim):
                    return send.stamped(victim)
                """
            }
        )
        assert codes(result) == ["R403"]

    def test_network_layer_stamps_freely(self, lint_tree):
        result = lint_tree(
            {
                "repro/sim/ok.py": """\
                def deliver(send, sender):
                    return send.stamped(sender)
                """
            }
        )
        assert result.ok


class TestInboxInternalsAccess:
    def test_messages_attribute_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def peek(inbox):
                    return inbox._messages[0]
                """
            }
        )
        assert codes(result) == ["R404"]

    def test_index_attribute_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def steal(inbox):
                    return inbox._index
                """
            }
        )
        assert codes(result) == ["R404"]

    def test_index_cache_chain_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def poison(inbox):
                    inbox.index._by_kind = {}
                """
            }
        )
        assert codes(result) == ["R404"]

    def test_derived_memo_table_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def poke(inbox, key):
                    return inbox.index._derived[key]
                """
            }
        )
        assert codes(result) == ["R404"]

    def test_derived_memo_write_flagged_without_index_chain(
        self, lint_tree
    ):
        # The tally-plane memo tables are fenced by name, so even a
        # build callback holding a bare InboxIndex cannot write them.
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def poison(idx, key, value):
                    idx._derived[key] = value
                """
            }
        )
        assert codes(result) == ["R404"]

    def test_restrictions_cache_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def steal(idx, frozen_view):
                    return idx._restrictions[frozen_view]
                """
            }
        )
        assert codes(result) == ["R404"]

    def test_derive_and_restricted_to_pass(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/good.py": """\
                def count(inbox, frozen_view):
                    box = inbox.restricted_to(frozen_view)
                    return box.derive(
                        ("missing", frozen_view),
                        lambda idx: frozen_view - idx.all_senders,
                    )
                """
            }
        )
        assert result.ok

    def test_query_methods_pass(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/good.py": """\
                def count(inbox, frozen_view):
                    box = inbox.restricted_to(frozen_view)
                    return box.best_payload("input")
                """
            }
        )
        assert result.ok

    def test_own_best_helper_not_confused_with_index_cache(
        self, lint_tree
    ):
        # EarlyConsensus has a _best *method*; only Inbox internals and
        # `.index._xxx` chains are fenced off.
        result = lint_tree(
            {
                "repro/core/good.py": """\
                class Proto:
                    def _best(self, inbox, kind):
                        return inbox.best_payload(kind)

                    def run(self, inbox):
                        return self._best(inbox, "input")
                """
            }
        )
        assert result.ok

    def test_columnar_cols_handle_flagged(self, lint_tree):
        # Fenced by name: even a bare index handle (inside a derive
        # callback, say) cannot reach the column store.
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def peek(idx):
                    return idx._cols.senders
                """
            }
        )
        assert codes(result) == ["R405"]

    def test_index_chain_to_cols_trips_both_fences(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def peek(inbox):
                    return inbox.index._cols.senders
                """
            }
        )
        assert codes(result) == ["R404", "R405"]

    def test_columnar_intern_table_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def poison(plane, payload):
                    plane._payload_ids[payload] = 0
                """
            }
        )
        assert codes(result) == ["R405"]

    def test_columnar_view_via_index_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def raw(inbox):
                    return inbox.index.columns
                """
            }
        )
        assert codes(result) == ["R405"]

    def test_columnar_plane_via_index_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def raw(inbox):
                    return inbox.index.plane
                """
            }
        )
        assert codes(result) == ["R405"]

    def test_plain_columns_name_elsewhere_passes(self, lint_tree):
        # Only the `.index.columns` / `.index.plane` chains are fenced;
        # unrelated attributes with those names stay legal.
        result = lint_tree(
            {
                "repro/core/good.py": """\
                def width(table):
                    return len(table.columns)
                """
            }
        )
        assert result.ok

    def test_sim_layer_may_stage_columns(self, lint_tree):
        result = lint_tree(
            {
                "repro/sim/ok.py": """\
                def stage(net, cols):
                    net._cols = cols
                    return cols._built
                """
            }
        )
        assert result.ok

    def test_sim_layer_may_touch_internals(self, lint_tree):
        result = lint_tree(
            {
                "repro/sim/ok.py": """\
                def alias(inbox):
                    return inbox._messages
                """
            }
        )
        assert result.ok


class TestCommitteeInternalsAccess:
    def test_gossip_state_read_flagged(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/bad.py": """\
                def peek(node):
                    return node._gossip.decision_votes
                """
            }
        )
        assert codes(result) == ["R406", "R406"]

    def test_implicit_agreement_owns_its_state(self, lint_tree):
        result = lint_tree(
            {
                "repro/core/implicit_agreement.py": """\
                class OutcomeGossip:
                    def __init__(self):
                        self.decision_votes = {}
                        self.linger_left = 0
                """
            }
        )
        assert result.ok


class TestSeededViolationCli:
    def test_hygiene_violation_fails_with_location(
        self, lint_cli, tmp_path
    ):
        bad = tmp_path / "repro" / "core" / "forger.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "def forge(api, dest):\n"
            "    api._outbox.send(dest, 'x', None, None)\n",
            encoding="utf-8",
        )
        proc = lint_cli(tmp_path)
        assert proc.returncode == 1
        assert "forger.py:2:" in proc.stdout
        assert "R402" in proc.stdout
