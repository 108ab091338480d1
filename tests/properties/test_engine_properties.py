"""Property-based tests for the simulation engine itself.

Hypothesis generates random send scripts; the engine must uphold the
model's delivery guarantees regardless: exactly-once delivery of
distinct messages, one-round latency, truthful sender stamping, and
byte-for-byte determinism.
"""

from hypothesis import given, settings, strategies as st

from repro.sim.inbox import Inbox
from repro.sim.message import Send
from repro.sim.network import SyncNetwork
from repro.sim.node import NodeApi, Protocol

fast = settings(max_examples=25, deadline=None)

#: (round, kind, payload, broadcast?) scripts for a scripted node.
script_entries = st.lists(
    st.tuples(
        st.integers(min_value=1, max_value=5),  # send round
        st.sampled_from(["a", "b", "c"]),  # kind
        st.integers(min_value=0, max_value=3),  # payload
    ),
    max_size=12,
)


class ScriptedNode(Protocol):
    """Broadcasts per a (round -> messages) script; records all receipt."""

    def __init__(self, script):
        super().__init__()
        self.script = script
        self.received: list = []

    def on_round(self, api: NodeApi, inbox: Inbox) -> None:
        self.received.append([(m.sender, m.kind, m.payload) for m in inbox])
        for round_no, kind, payload in self.script:
            if round_no == api.round:
                api.broadcast(kind, payload)


def run_pair(script_a, script_b, rounds=7):
    net = SyncNetwork(seed=0)
    a, b = ScriptedNode(script_a), ScriptedNode(script_b)
    net.add_correct(1, a)
    net.add_correct(2, b)
    net.run(rounds, until_all_halted=False)
    return a, b


class TestEngineProperties:
    @fast
    @given(script=script_entries)
    def test_every_distinct_send_delivered_exactly_once(self, script):
        a, b = run_pair(script, [])
        # b's total receipt of each distinct (round, kind, payload)
        # equals 1 (duplicates within a round collapse)
        expected = {(r + 1, k, p) for r, k, p in script}
        seen = []
        for round_index, inbox in enumerate(b.received, start=1):
            for sender, kind, payload in inbox:
                assert sender == 1
                seen.append((round_index, kind, payload))
        assert sorted(set(seen)) == sorted(expected)
        assert len(seen) == len(set(seen))

    @fast
    @given(script=script_entries)
    def test_delivery_latency_is_exactly_one_round(self, script):
        a, b = run_pair(script, [])
        for round_no, kind, payload in script:
            inbox = b.received[round_no]  # 0-indexed list, round+1 slot
            assert (1, kind, payload) in inbox

    @fast
    @given(script_a=script_entries, script_b=script_entries)
    def test_determinism(self, script_a, script_b):
        first = run_pair(script_a, script_b)
        second = run_pair(script_a, script_b)
        assert first[0].received == second[0].received
        assert first[1].received == second[1].received

    @fast
    @given(script=script_entries)
    def test_self_delivery_matches_peer_delivery(self, script):
        a, b = run_pair(script, [])
        a_seen = [
            [(k, p) for s, k, p in inbox] for inbox in a.received
        ]
        b_seen = [
            [(k, p) for s, k, p in inbox] for inbox in b.received
        ]
        assert a_seen == b_seen


class TestByzantineStampingProperty:
    @fast
    @given(
        claimed=st.integers(min_value=0, max_value=10**6),
        kind=st.sampled_from(["x", "echo", "input"]),
    )
    def test_sender_stamp_cannot_be_forged(self, claimed, kind):
        class Forger:
            def on_round(self, view):
                # whatever id the adversary *claims*, Send has no sender
                # field; the payload smuggles the claim instead
                return [Send(kind, (("i-am", claimed),))]

        net = SyncNetwork(seed=0)
        listener = ScriptedNode([])
        net.add_correct(1, listener)
        net.add_byzantine(2, Forger())
        net.run(3, until_all_halted=False)
        for inbox in listener.received:
            for sender, _kind, _payload in inbox:
                assert sender in (1, 2)
                if _payload == ("i-am", claimed):
                    assert sender == 2
