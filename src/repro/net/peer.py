"""A threaded TCP peer.

Each peer runs a listening socket plus one reader thread per inbound
connection; outbound messages open (and cache) one connection per
destination.  Received frames land in a thread-safe queue keyed by their
round stamp; the lock-step runner drains them at round boundaries.

Failure handling is deliberately blunt: a peer that cannot be reached is
simply skipped (in the Byzantine model a dead peer is just a faulty
node), and malformed frames close the offending connection.

Security note: frames carry a sender stamp that this demonstration
runtime takes at face value.  The id-only model requires unforgeable
sender identities; a deployment gets them from the transport (TLS with
client certificates, or per-link MACs), which is orthogonal to the
protocol logic and out of scope here.  The simulator, by contrast,
enforces stamping structurally and is where adversarial experiments run.
"""

from __future__ import annotations

import socket
import threading
from collections import defaultdict
from dataclasses import dataclass

from repro.net.wire import encode_frame, read_frame
from repro.types import NodeId


@dataclass(frozen=True)
class PeerAddress:
    """Transport-level addressing: (node id, host, port).

    The address book is the broadcast domain, not protocol knowledge —
    protocols never see it.
    """

    node_id: NodeId
    host: str
    port: int


class NetPeer:
    """One node's network endpoint."""

    def __init__(self, node_id: NodeId, host: str = "127.0.0.1", port: int = 0):
        self.node_id = node_id
        self._server = socket.create_server((host, port))
        self._server.settimeout(0.2)
        self.host, self.port = self._server.getsockname()
        self._peers: dict[NodeId, PeerAddress] = {}
        self._outbound: dict[NodeId, socket.socket] = {}
        self._inbox_lock = threading.Lock()
        self._by_round: dict[int, list[dict]] = defaultdict(list)
        self._running = threading.Event()
        self._threads: list[threading.Thread] = []
        self.frames_received = 0
        self.frames_dropped = 0

    @property
    def address(self) -> PeerAddress:
        return PeerAddress(self.node_id, self.host, self.port)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self, address_book: list[PeerAddress]) -> None:
        """Learn the broadcast domain and begin accepting connections."""
        self._peers = {a.node_id: a for a in address_book}
        self._running.set()
        acceptor = threading.Thread(
            target=self._accept_loop, name=f"peer-{self.node_id}-accept",
            daemon=True,
        )
        acceptor.start()
        self._threads.append(acceptor)

    def stop(self) -> None:
        self._running.clear()
        try:
            self._server.close()
        except OSError:
            pass
        # A snapshot: a runner thread that was not joined (a Byzantine
        # runner, or a join that timed out) may still be opening a
        # connection in ``_connection_to`` while we tear down.
        for sock in list(self._outbound.values()):
            try:
                sock.close()
            except OSError:
                pass
        self._outbound.clear()

    # ------------------------------------------------------------------
    # Receiving
    # ------------------------------------------------------------------
    def _accept_loop(self) -> None:
        while self._running.is_set():
            try:
                conn, _addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return
            reader = threading.Thread(
                target=self._read_loop,
                args=(conn,),
                name=f"peer-{self.node_id}-read",
                daemon=True,
            )
            reader.start()
            self._threads.append(reader)

    def _read_loop(self, conn: socket.socket) -> None:
        with conn:
            while self._running.is_set():
                try:
                    frame = read_frame(conn)
                except (ValueError, OSError):
                    return  # malformed or broken: drop the connection
                if frame is None:
                    return
                with self._inbox_lock:
                    self.frames_received += 1
                    self._by_round[frame["round"]].append(frame)

    def take_round(
        self, round_no: int, max_round: int | None = None
    ) -> list[dict]:
        """Drain all frames stamped with *round_no*.

        Also purges (counting them in :attr:`frames_dropped`) frames
        from already-consumed rounds (``< round_no``) and — when
        *max_round* is given — frames stamped further ahead than any
        honest peer could be (``> max_round``): with a shared start
        instant, a peer is at most one round ahead of the caller, so a
        farther-future stamp is forged or corrupt and must not sit in
        the queue waiting to be consumed at face value later.
        """
        with self._inbox_lock:
            frames = self._by_round.pop(round_no, [])
            if max_round is None:
                bogus = [r for r in self._by_round if r < round_no]
            else:
                bogus = [
                    r
                    for r in self._by_round
                    if r < round_no or r > max_round
                ]
            for r in bogus:
                self.frames_dropped += len(self._by_round.pop(r))
        return frames

    # ------------------------------------------------------------------
    # Sending
    # ------------------------------------------------------------------
    def _connection_to(self, node_id: NodeId) -> socket.socket | None:
        sock = self._outbound.get(node_id)
        if sock is not None:
            return sock
        address = self._peers.get(node_id)
        if address is None:
            return None
        try:
            sock = socket.create_connection(
                (address.host, address.port), timeout=1.0
            )
        except OSError:
            return None
        self._outbound[node_id] = sock
        return sock

    def send_to(
        self,
        dest: NodeId,
        round_no: int,
        kind: str,
        payload=None,
        instance=None,
    ) -> bool:
        """Send one message; False when the destination is unreachable."""
        if dest == self.node_id:
            # Loopback without touching the network (self-delivery).
            with self._inbox_lock:
                self.frames_received += 1
                self._by_round[round_no].append(
                    {
                        "round": round_no,
                        "sender": self.node_id,
                        "kind": kind,
                        "payload": payload,
                        "instance": instance,
                    }
                )
            return True
        sock = self._connection_to(dest)
        if sock is None:
            return False
        frame = encode_frame(round_no, self.node_id, kind, payload, instance)
        try:
            sock.sendall(frame)
            return True
        except OSError:
            self._outbound.pop(dest, None)
            try:
                sock.close()
            except OSError:
                pass
            return False

    def broadcast(
        self, round_no: int, kind: str, payload=None, instance=None
    ) -> int:
        """Send to every address in the domain (including self)."""
        delivered = 0
        for node_id in sorted(self._peers):
            delivered += self.send_to(
                node_id, round_no, kind, payload, instance
            )
        return delivered
