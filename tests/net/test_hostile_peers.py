"""Net-runtime robustness: raw-socket attackers.

A Byzantine node on a real network is not constrained to our peer
implementation — it can open sockets and send arbitrary bytes.  These
tests throw malformed frames, oversized lengths, garbage kinds, and
protocol-shaped-but-hostile traffic at a running cluster; the correct
peers must neither crash nor disagree.
"""

import socket
import struct
import time

from repro.core import EarlyConsensus
from repro.net import LocalCluster, NetPeer
from repro.net.wire import encode_frame

PERIOD = 0.2  # wall-clock rounds: wider than any stall a shared box adds


def blast(address, payload_bytes):
    """Open a raw connection and send arbitrary bytes."""
    try:
        with socket.create_connection(
            (address.host, address.port), timeout=1.0
        ) as sock:
            sock.sendall(payload_bytes)
            time.sleep(0.02)
    except OSError:
        pass


class TestMalformedTraffic:
    def test_garbage_bytes_do_not_crash_peer(self):
        peer = NetPeer(1)
        peer.start([peer.address])
        try:
            blast(peer.address, b"\x00\x00\x00\x05notjs")
            blast(peer.address, b"complete garbage with no framing")
            peer.broadcast(1, "alive")
            assert peer.take_round(1)  # still serving
        finally:
            peer.stop()

    def test_oversized_length_prefix_closes_connection(self):
        peer = NetPeer(1)
        peer.start([peer.address])
        try:
            blast(peer.address, struct.pack(">I", 1 << 30))
            peer.broadcast(1, "alive")
            assert peer.take_round(1)
        finally:
            peer.stop()

    def test_valid_frame_wrong_schema(self):
        peer = NetPeer(1)
        peer.start([peer.address])
        try:
            body = b'{"round": "x"}'
            blast(peer.address, struct.pack(">I", len(body)) + body)
            peer.broadcast(1, "alive")
            assert peer.take_round(1)
        finally:
            peer.stop()


class HostileConsensusAttacker:
    """A raw-socket Byzantine node: floods every peer with conflicting
    consensus messages stamped for every round."""

    def __init__(self, node_id, addresses):
        self.node_id = node_id
        self.addresses = addresses

    def attack(self, rounds=30):
        for address in self.addresses:
            try:
                with socket.create_connection(
                    (address.host, address.port), timeout=1.0
                ) as sock:
                    for round_no in range(1, rounds):
                        value = round_no % 2
                        for kind in ("init", "input", "prefer",
                                     "strongprefer", "echo"):
                            sock.sendall(
                                encode_frame(
                                    round_no, self.node_id, kind, value
                                )
                            )
            except OSError:
                continue


class TestHostileConsensus:
    def test_consensus_survives_raw_socket_attacker(self):
        cluster = LocalCluster(
            4, lambda nid, i: EarlyConsensus(1), period=PERIOD
        )
        address_book = [p.address for p in cluster.peers.values()]
        for peer in cluster.peers.values():
            peer.start(address_book)
        start = time.monotonic() + 0.2
        for runner in cluster.runners.values():
            runner.start(start)
        # the attacker fires mid-protocol from outside the cluster
        attacker = HostileConsensusAttacker(999999, address_book)
        attacker.attack()
        deadline = time.monotonic() + 20
        try:
            while time.monotonic() < deadline:
                if all(p.halted for p in cluster.protocols.values()):
                    break
                time.sleep(0.02)
            outputs = cluster.outputs()
        finally:
            for runner in cluster.runners.values():
                runner.join(timeout=1.0)
            for peer in cluster.peers.values():
                peer.stop()
        # n_v = 5 (4 real + the attacker), g = 4 > 2·1: safe
        assert len(outputs) == 4
        assert set(outputs.values()) == {1}
