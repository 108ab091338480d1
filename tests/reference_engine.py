"""A naive reference engine: the model, one recipient at a time.

The oracle of the engine-equivalence suites.  It shares no staging,
dedup or collection code with :mod:`repro.sim.network` — no columns, no
shared tuples or indexes, no recipient groups, no bus: one list of
value-deduplicated broadcasts per round, one list of directs per node,
every fan-out form expanded to scalar sends, one private
:class:`~tests.naive_inbox.NaiveInbox` per recipient — no index code
either.  It does share the model (``Message``, ``NodeApi``, the
adversary's view) and the ``make_rng(seed)`` stream
handed to Byzantine strategies, so the same population must behave the
same here and on ``SyncNetwork``, node for node, message for message.
"""

from repro.obs.events import ProtocolEvent
from repro.sim.membership import MembershipSchedule
from repro.sim.message import BROADCAST, Outbox, expand_sends
from repro.sim.network import AdversaryView, SyncNetwork
from repro.sim.node import NodeApi
from repro.sim.rng import make_rng

from tests.naive_inbox import NaiveInbox


class ReferenceNetwork:
    def __init__(self, seed=0, rushing=False, membership=None):
        self.rushing = rushing
        self.membership = membership or MembershipSchedule()
        self.round = 0
        self.trace = []  # the protocols' semantic events, in order
        self.delivered = {}  # (round, recipient) -> messages handed over
        #: (sender, kind, payload, instance, dest, staged) per scalar send.
        self.sent = []
        self._rng = make_rng(seed)
        self._behaviours = {}  # id -> (behaviour, byzantine)
        self._alive = set()
        self._contacts = {}
        self._broadcasts = []
        self._direct = {}

    def add_byzantine(self, node_id, strategy):
        self.add_correct(node_id, strategy, byzantine=True)

    def add_correct(self, node_id, behaviour, byzantine=False):
        assert node_id not in self._alive
        self._behaviours[node_id] = (behaviour, byzantine)
        self._alive.add(node_id)
        self._contacts[node_id] = set()

    def remove(self, node_id):
        self._alive.discard(node_id)

    def protocols(self):
        return {n: b for n, (b, byz) in self._behaviours.items() if not byz}

    def _ids(self, byzantine):
        """Alive node ids of one kind, ascending (the run order)."""
        ids = sorted(self._alive)
        return [n for n in ids if self._behaviours[n][1] == byzantine]

    def run(self, max_rounds, until_all_halted=True):
        for _ in range(max_rounds):
            self.step()
            running = (self._behaviours[n][0] for n in self._ids(False))
            if until_all_halted and all(p.halted for p in running):
                break

    def step(self):
        self.round += 1
        for spec in self.membership.joins_at(self.round):
            self.add_correct(spec.node_id, spec.factory(), spec.byzantine)
        for spec in self.membership.leaves_at(self.round):
            self.remove(spec.node_id)
        inboxes = {}
        for node in self._alive:
            mine = list(self._broadcasts)
            for message in self._direct.get(node, ()):
                if message not in mine:
                    mine.append(message)
            self._contacts[node].update(m.sender for m in mine)
            if mine:
                self.delivered[self.round, node] = tuple(mine)
            inboxes[node] = NaiveInbox(mine)
        self._broadcasts, self._direct = [], {}

        def sink(round_no, node, event, detail):
            self.trace.append(ProtocolEvent(round_no, node, event, dict(detail)))

        traffic = []
        for node in self._ids(False):
            protocol = self._behaviours[node][0]
            if not protocol.halted:
                outbox = Outbox()
                contacts = frozenset(self._contacts[node])
                api = NodeApi(node, self.round, contacts, outbox, sink)
                protocol.on_round(api, inboxes[node])
                traffic.extend((node, send) for send in outbox)
        alive = frozenset(self._alive)
        correct = frozenset(n for n in alive if not self._behaviours[n][1])
        byzantine = alive - correct
        heard = tuple(traffic) if self.rushing else ()
        for node in self._ids(True):
            view = AdversaryView(
                node, self.round, inboxes[node], alive, correct, byzantine,
                self._rng, heard,
            )
            sends = list(self._behaviours[node][0].on_round(view))
            traffic.extend((node, send) for send in expand_sends(sends))
        for sender, send in traffic:
            message = send.stamped(sender)
            dest = None if send.dest is BROADCAST else send.dest
            if dest is None:
                staged = message not in self._broadcasts
                if staged:
                    self._broadcasts.append(message)
            else:
                staged = dest in self._alive
                if staged:
                    self._direct.setdefault(dest, []).append(message)
            self.sent.append(
                (sender, send.kind, send.payload, send.instance, dest, staged)
            )


def per_send_events(bus) -> list:
    """A live list of every send published on *bus*, at scalar-send
    granularity whichever bulk form the engine emitted."""
    sent = []
    bus.subscribe(sent.append, "send")
    bus.subscribe(lambda e: sent.extend(e.expanded()), "send-batch")
    bus.subscribe(lambda e: sent.extend(e.expanded()), "send-multicast")
    return sent


def assert_matches_reference(make, rounds, until_all_halted=True):
    """Run one population on ``make(SyncNetwork)`` and on
    ``make(ReferenceNetwork)`` and compare rounds, every correct node's
    final state, the semantic stream, every scalar send with its staged
    flag and every recipient's deliveries.  Returns both networks."""
    engine, reference = make(SyncNetwork), make(ReferenceNetwork)
    delivered, sent = {}, per_send_events(engine.bus)
    engine.bus.subscribe(
        lambda e: delivered.update({(e.round, e.recipient): tuple(e.messages)}),
        "deliver",
    )
    for net in (engine, reference):
        net.run(rounds, until_all_halted)
    assert engine.round == reference.round
    final = [
        {n: (p.halted, p.output, p.decided_round) for n, p in ps.items()}
        for ps in (engine.protocols(), reference.protocols())
    ]
    assert final[0] == final[1]
    assert list(engine.trace) == reference.trace
    assert [
        (e.sender, e.kind, e.payload, e.instance, e.dest, e.staged)
        for e in sent
    ] == reference.sent
    assert delivered == reference.delivered
    return engine, reference
