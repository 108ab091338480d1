"""Simulator adversaries attacking TCP clusters via ByzantineRunner."""

import time

from repro.adversary import QuorumSplitterStrategy, RandomNoiseStrategy
from repro.core import EarlyConsensus
from repro.net import ByzantineRunner, LockstepRunner, NetPeer

PERIOD = 0.08  # generous: these tests share the host with the full suite


def attempt_twice(run):
    """Timing-dependent TCP tests get one retry with a slower clock.

    A loaded host can slip a 0.08s round boundary; a genuine protocol
    bug fails deterministically on both attempts."""
    first = run(PERIOD)
    if first is not None:
        return first
    second = run(PERIOD * 2)
    assert second is not None, "failed on both clock rates"
    return second


def run_attacked_cluster(strategy_builder, correct=5, seed=0,
                         period=PERIOD):
    from repro.sim.rng import make_rng, sparse_ids

    rng = make_rng(seed)
    ids = sparse_ids(correct + 1, rng)
    correct_ids, byz_id = ids[:correct], ids[correct]

    peers = {node_id: NetPeer(node_id) for node_id in ids}
    address_book = [peer.address for peer in peers.values()]
    for peer in peers.values():
        peer.start(address_book)

    protocols = {}
    runners = []
    for index, node_id in enumerate(correct_ids):
        protocol = EarlyConsensus(index % 2)
        protocols[node_id] = protocol
        runners.append(
            LockstepRunner(
                peers[node_id], protocol, period=period, max_rounds=80
            )
        )
    byz_runner = ByzantineRunner(
        peers[byz_id],
        strategy_builder(),
        correct_ids=frozenset(correct_ids),
        period=period,
        max_rounds=80,
    )

    start = time.monotonic() + 0.2
    for runner in runners:
        runner.start(start)
    byz_runner.start(start)
    deadline = time.monotonic() + 30
    try:
        while time.monotonic() < deadline:
            if all(p.halted for p in protocols.values()):
                break
            time.sleep(0.02)
    finally:
        for runner in runners:
            runner.join(1.0)
        for peer in peers.values():
            peer.stop()
    return protocols


class TestByzantineOverTcp:
    def test_splitter_cannot_break_agreement(self):
        def run(period):
            protocols = run_attacked_cluster(
                lambda: QuorumSplitterStrategy(EarlyConsensus(0)),
                period=period,
            )
            halted = [p for p in protocols.values() if p.halted]
            if len(halted) < 5:
                return None  # timing slip: retry slower
            return {p.output for p in halted}

        outputs = attempt_twice(run)
        assert len(outputs) == 1

    def test_noise_cannot_break_agreement(self):
        def run(period):
            protocols = run_attacked_cluster(
                lambda: RandomNoiseStrategy(rate=4),
                seed=3,
                period=period,
            )
            halted = [p for p in protocols.values() if p.halted]
            if len(halted) < 5:
                return None
            return {p.output for p in halted}

        outputs = attempt_twice(run)
        assert len(outputs) == 1


class WireTap:
    """Stands in for a NetPeer: records the frames a runner hands it."""

    def __init__(self, node_id, peers):
        self.node_id = node_id
        self._peers = dict.fromkeys(peers)
        self.frames = []
        self.broadcasts = []

    def take_round(self, round_no):
        return []

    def send_to(self, dest, round_no, kind, payload, instance):
        self.frames.append((dest, round_no, kind, payload, instance))

    def broadcast(self, round_no, kind, payload, instance):
        self.broadcasts.append((round_no, kind, payload, instance))


class TestFanOutFraming:
    def test_equivocator_still_sends_one_frame_per_recipient(self):
        # The strategy hands back one multicast per story; the wire has
        # no multicast, so the runner must address every recipient.
        from repro.adversary import EquivocatorStrategy
        from repro.sim.node import Protocol

        class Beacon(Protocol):
            def on_round(self, api, inbox):
                api.broadcast("input", 1)

        tap = WireTap(50, peers=(1, 2, 3, 4, 50))
        runner = ByzantineRunner(
            tap,
            EquivocatorStrategy(Beacon()),
            correct_ids=frozenset({1, 2, 3, 4}),
        )
        runner.round = 1
        runner._execute_round()
        assert tap.broadcasts == []
        assert tap.frames == [
            (1, 1, "input", 1, None),
            (2, 1, "input", 1, None),
            (3, 1, "input", 0, None),
            (4, 1, "input", 0, None),
            (50, 1, "input", 0, None),
        ]
