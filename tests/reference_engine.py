"""A naive reference engine: the model, one recipient at a time.

The oracle of the engine-equivalence suites and of the drawn
differential (``tests/integration/test_differential.py``).  It shares
no staging, dedup or collection code with :mod:`repro.sim.network` — no
columns, no shared tuples or indexes, no recipient groups, no bus: one
ordered set of value-deduplicated broadcasts per round, one list of
directs per node, every send row read through its per-send view, one
private :class:`~tests.naive_inbox.NaiveInbox` per recipient — no index
code either.  It does share the model (``Message``, ``NodeApi``, the
adversary's view) and the two model inputs a run draws from its seed:
the ``make_rng(seed)`` stream handed to Byzantine strategies and, when
lossy, the delivery mask.  So the same population must behave the same
here and on ``SyncNetwork``, node for node, message for message.
"""

from itertools import compress

from repro.errors import ReproError, RoundLimitExceeded
from repro.obs.events import ProtocolEvent
from repro.sim.membership import MembershipSchedule
from repro.sim.message import BROADCAST, Outbox, expand_sends
from repro.sim.network import AdversaryView, SyncNetwork
from repro.sim.node import NodeApi
from repro.sim.rng import make_rng

from tests.naive_inbox import NaiveInbox


class ReferenceNetwork:
    """*mask* is the engine's delivery-mask contract
    (``SyncNetwork._collect``): asked once per alive recipient with at
    least one row, in registration order, as ``mask(recipient, rows)``
    over the round's broadcasts then the recipient's deduplicated
    directs; ``None`` keeps every row, else one keep flag per row."""

    def __init__(self, seed=0, rushing=False, membership=None, mask=None):
        self.rushing = rushing
        self.membership = membership or MembershipSchedule()
        self.mask = mask
        self.round = 0
        self.trace = []  # the protocols' semantic events, in order
        self.delivered = {}  # (round, recipient) -> messages handed over
        #: (sender, kind, payload, instance, dest, staged) per logical send.
        self.sent = []
        self._rng = make_rng(seed)
        self._behaviours = {}  # id -> (behaviour, byzantine)
        #: Alive ids in registration order; a rejoin goes to the end.
        self._alive = {}
        self._contacts = {}
        self._broadcasts = {}  # deduplicated, in staging order
        self._direct = {}

    def add_byzantine(self, node_id, strategy):
        self.add_correct(node_id, strategy, byzantine=True)

    def add_correct(self, node_id, behaviour, byzantine=False):
        assert node_id not in self._alive
        self._behaviours[node_id] = (behaviour, byzantine)
        self._alive[node_id] = None
        self._contacts[node_id] = set()

    def remove(self, node_id):
        self._alive.pop(node_id, None)

    def protocols(self):
        return {n: b for n, (b, byz) in self._behaviours.items() if not byz}

    def _ids(self, byzantine):
        """Alive node ids of one kind, ascending (the run order)."""
        ids = sorted(self._alive)
        return [n for n in ids if self._behaviours[n][1] == byzantine]

    def run(self, max_rounds, until_all_halted=True):
        for _ in range(max_rounds):
            self.step()
            if until_all_halted and not self._running():
                return
        if until_all_halted and self._running():
            raise RoundLimitExceeded(max_rounds, self._running())

    def _running(self):
        """Alive correct ids that have not halted, ascending."""
        behaviours = self._behaviours
        return [n for n in self._ids(False) if not behaviours[n][0].halted]

    def step(self):
        self.round += 1
        for spec in self.membership.joins_at(self.round):
            self.add_correct(spec.node_id, spec.factory(), spec.byzantine)
        for spec in self.membership.leaves_at(self.round):
            self.remove(spec.node_id)
        inboxes = {}
        for node in self._alive:
            mine = list(self._broadcasts)
            mine.extend(
                dict.fromkeys(
                    message
                    for message in self._direct.get(node, ())
                    if message not in self._broadcasts
                )
            )
            if mine and self.mask is not None:
                keep = self.mask(node, len(mine))
                if keep is not None:
                    mine = list(compress(mine, keep))
            self._contacts[node].update(m.sender for m in mine)
            if mine:
                self.delivered[self.round, node] = tuple(mine)
            inboxes[node] = NaiveInbox(mine)
        self._broadcasts, self._direct = {}, {}

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
                    self._broadcasts[message] = None
            else:
                staged = dest in self._alive
                if staged:
                    self._direct.setdefault(dest, []).append(message)
            self.sent.append(
                (sender, send.kind, send.payload, send.instance, dest, staged)
            )


def per_send_events(bus) -> list:
    """A live list of every logical send published on *bus*: each send
    row's per-send view."""
    sent = []
    bus.subscribe(lambda e: sent.extend(e.expanded()), "send")
    return sent


def assert_matches_reference(make, rounds, until_all_halted=True):
    """Run one population on ``make(SyncNetwork)`` and on
    ``make(ReferenceNetwork)`` and compare how each run ended (a
    :class:`~repro.errors.ReproError` such as the round limit, or
    none), rounds, every correct node's final state, every alive node's
    contacts, the semantic stream, every logical send with its staged
    flag and every recipient's deliveries.  Returns both networks."""
    engine, reference = make(SyncNetwork), make(ReferenceNetwork)
    delivered, sent = {}, per_send_events(engine.bus)
    engine.bus.subscribe(
        lambda e: delivered.update({(e.round, e.recipient): tuple(e.messages)}),
        "deliver",
    )
    endings = []
    for net in (engine, reference):
        try:
            net.run(rounds, until_all_halted)
            endings.append(None)
        except ReproError as error:
            endings.append(repr(error))
    assert endings[0] == endings[1]
    assert engine.round == reference.round
    final = [
        {n: (p.halted, p.output, p.decided_round) for n, p in ps.items()}
        for ps in (engine.protocols(), reference.protocols())
    ]
    assert final[0] == final[1]
    # A founder with no direct message reads the engine's shared pool
    # of broadcast senders.
    contacts = {
        n: set(engine._contact_pool if s.contacts_shared else s.contacts)
        for n, s in engine._nodes.items()
        if s.alive
    }
    assert contacts == {n: reference._contacts[n] for n in reference._alive}
    assert list(engine.trace) == reference.trace
    assert [
        (e.sender, e.kind, e.payload, e.instance, e.dest, e.staged)
        for e in sent
    ] == reference.sent
    assert delivered == reference.delivered
    return engine, reference
