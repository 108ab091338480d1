"""End-to-end tests of the TCP runtime: the same protocols, real sockets.

These pace rounds by the wall clock on localhost, so they are
timing-dependent by nature: a runner thread stalled for a whole round
period misses that round's messages, and in the id-only model a node
that hears nobody decides alone.  The period is therefore wide — several
times the longest stall seen on a shared two-core box (50–70 ms) — and
assertions stick to safety (agreement/validity) with generous round
budgets.
"""

import time

import pytest

from repro.core import (
    ApproximateAgreement,
    ByzantineRenaming,
    EarlyConsensus,
    InteractiveConsistency,
)
from repro.net import LocalCluster, NetPeer

PERIOD = 0.2  # see the module docstring


class TestPeer:
    def test_peer_to_peer_delivery(self):
        a, b = NetPeer(1), NetPeer(2)
        book = [a.address, b.address]
        a.start(book)
        b.start(book)
        try:
            assert a.send_to(2, round_no=1, kind="hello", payload=("x", 9))
            deadline = time.monotonic() + 2.0
            frames = []
            while time.monotonic() < deadline and not frames:
                frames = b.take_round(1)
                time.sleep(0.01)
            assert frames and frames[0]["payload"] == ("x", 9)
            assert frames[0]["sender"] == 1
        finally:
            a.stop()
            b.stop()

    def test_loopback_self_delivery(self):
        peer = NetPeer(5)
        peer.start([peer.address])
        try:
            peer.broadcast(round_no=2, kind="note", payload=1)
            assert peer.take_round(2)[0]["sender"] == 5
        finally:
            peer.stop()

    def test_unreachable_destination_reported(self):
        peer = NetPeer(1)
        peer.start([peer.address])
        try:
            assert not peer.send_to(999, 1, "hello")
        finally:
            peer.stop()

    def test_stale_rounds_purged(self):
        peer = NetPeer(1)
        peer.start([peer.address])
        try:
            peer.broadcast(1, "old")
            peer.broadcast(5, "new")
            assert peer.take_round(5)
            assert peer.frames_dropped == 1
        finally:
            peer.stop()


class TestClusterProtocols:
    def test_consensus_unanimous(self):
        cluster = LocalCluster(
            4, lambda nid, i: EarlyConsensus(1), period=PERIOD
        )
        outputs = cluster.run(timeout=15)
        assert len(outputs) == 4
        assert set(outputs.values()) == {1}

    def test_consensus_mixed_inputs(self):
        cluster = LocalCluster(
            5, lambda nid, i: EarlyConsensus(i % 2), period=PERIOD
        )
        outputs = cluster.run(timeout=20)
        assert len(outputs) == 5
        assert len(set(outputs.values())) == 1

    def test_approximate_agreement(self):
        cluster = LocalCluster(
            5,
            lambda nid, i: ApproximateAgreement(float(i)),
            period=PERIOD,
            max_rounds=10,
        )
        outputs = cluster.run(timeout=10)
        values = list(outputs.values())
        assert len(values) == 5
        assert 0.0 <= min(values) <= max(values) <= 4.0
        assert max(values) - min(values) <= 2.0

    def test_renaming(self):
        cluster = LocalCluster(
            5, lambda nid, i: ByzantineRenaming(), period=PERIOD
        )
        outputs = cluster.run(timeout=15)
        assert len(outputs) == 5
        assert len(set(outputs.values())) == 1
        (assignment,) = set(outputs.values())
        assert len(assignment) == 5

    def test_interactive_consistency(self):
        cluster = LocalCluster(
            4, lambda nid, i: InteractiveConsistency(i * 10), period=PERIOD
        )
        outputs = cluster.run(timeout=20)
        assert len(outputs) == 4
        assert len(set(outputs.values())) == 1
        (vector,) = set(outputs.values())
        assert sorted(v for _n, v in vector) == [0, 10, 20, 30]

    def test_byzantine_members_via_cluster_api(self):
        from repro.adversary import QuorumSplitterStrategy
        from repro.core import EarlyConsensus as EC

        cluster = LocalCluster(
            5,
            lambda nid, i: EC(i % 2),
            period=PERIOD,
            byzantine=1,
            strategy_factory=lambda nid, i: QuorumSplitterStrategy(
                EC(0)
            ),
        )
        outputs = cluster.run(timeout=25)
        assert len(outputs) == 5
        assert len(set(outputs.values())) == 1
        assert cluster.byzantine_ids  # the attacker really ran

    def test_byzantine_requires_strategy(self):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            LocalCluster(
                4, lambda nid, i: EarlyConsensus(0), byzantine=1
            )

    def test_silent_node_tolerated(self):
        """One peer never started (fail-stop before round 1): with
        n = 4 > 3·1 the others still decide."""

        class Never(EarlyConsensus):
            def on_round(self, api, inbox):
                self.halted = True  # sends nothing, ever

        def factory(nid, i):
            return Never(0) if i == 3 else EarlyConsensus(1)

        cluster = LocalCluster(4, factory, period=PERIOD)
        outputs = cluster.run(timeout=20)
        live = {n: v for n, v in outputs.items() if v is not None}
        assert len(live) == 3
        assert set(live.values()) == {1}
