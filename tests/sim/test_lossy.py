"""The lossy-network ablation instrument.

Print fresh grid digests (see :class:`TestLossRidesThePlane`) with::

    PYTHONPATH=src python -m tests.sim.test_lossy
"""

import hashlib
import io

import pytest

from repro.adversary import EquivocatorStrategy, RandomNoiseStrategy
from repro.core.consensus import EarlyConsensus
from repro.core.parallel_consensus import ParallelConsensus
from repro.core.reliable_broadcast import ReliableBroadcast
from repro.errors import ConfigurationError, SimulationError
from repro.obs import JsonlSink
from repro.sim.lossy import LossyNetwork
from repro.sim.membership import MembershipSchedule
from repro.sim.network import SyncNetwork
from repro.sim.rng import make_rng, sparse_ids


def populate(net, seed, protocol=EarlyConsensus):
    """Seven sparse-id nodes with alternating inputs; returns the ids."""
    ids = sparse_ids(7, make_rng(seed))
    for index, node_id in enumerate(ids):
        net.add_correct(node_id, protocol(index % 2))
    return ids


def consensus_run(drop_rate, seed=0, max_rounds=60):
    net = LossyNetwork(drop_rate, seed=seed)
    populate(net, seed)
    net.run(max_rounds)
    return net


class TestLossyNetwork:
    def test_validates_rate(self):
        with pytest.raises(ValueError):
            LossyNetwork(1.5)
        with pytest.raises(ValueError):
            LossyNetwork(-0.1)

    def test_zero_rate_is_exactly_sync_network(self):
        lossless = consensus_run(0.0)
        plain = SyncNetwork(seed=0)
        populate(plain, 0)
        plain.run(60)
        assert lossless.outputs() == plain.outputs()
        assert lossless.dropped == 0

    def test_drops_are_counted_and_seeded(self):
        a = consensus_run(0.1, seed=3, max_rounds=25)
        b = consensus_run(0.1, seed=3, max_rounds=25)
        assert a.dropped == b.dropped > 0

    def test_full_loss_delivers_nothing(self):
        rng = make_rng(1)
        ids = sparse_ids(4, rng)
        net = LossyNetwork(1.0, seed=1)
        for node_id in ids:
            net.add_correct(node_id, ReliableBroadcast(ids[0], "m"))
        net.run(6, until_all_halted=False)
        assert net.metrics.deliveries_total == 0

    def test_heavy_loss_erodes_consensus(self):
        """The synchrony assumption is load-bearing: at 40% loss the
        protocol misbehaves (non-termination or disagreement) on most
        seeds."""
        broken = 0
        for seed in range(6):
            try:
                net = consensus_run(0.4, seed=seed, max_rounds=60)
                outputs = net.outputs()
                if len(set(outputs.values())) != 1 or len(outputs) != 7:
                    broken += 1
            except SimulationError:
                broken += 1
        assert broken >= 3

    def test_light_loss_sometimes_survives(self):
        """Sanity for the instrument itself: 1% loss is survivable at
        least sometimes — erosion is gradual, not a cliff."""
        survived = 0
        for seed in range(6):
            try:
                net = consensus_run(0.01, seed=seed, max_rounds=80)
                if len(set(net.outputs().values())) == 1:
                    survived += 1
            except SimulationError:
                pass
        assert survived >= 3


class Keeper(EarlyConsensus):
    """EarlyConsensus that also keeps every inbox object it is handed."""

    def __init__(self, value):
        super().__init__(value)
        self.inboxes = {}

    def on_round(self, api, inbox):
        self.inboxes[api.round] = inbox
        super().on_round(api, inbox)


# ----------------------------------------------------------------------
# The 120-run grid: four traffic shapes x five drop rates x six seeds,
# pinned to digests recorded on the commit before the loss filter became
# a row mask (when LossyNetwork still rode a second, object engine).
# Event schema v2 re-recorded them: each run's stream gained its v2
# header, a run-start naming the population and a closing run-end line,
# and nothing else in any row changed.
# ----------------------------------------------------------------------
GRID_RATES = (0.0, 0.01, 0.2, 0.6, 1.0)
GRID_SEEDS = range(6)

#: shape -> sha256 over that shape's 30 runs, recorded on the parent.
PARENT_GRID_DIGESTS = {
    "plain": "89985bd19f157541921e6ab2677568902c15d1a8ac46abfec003edaee544e12f",
    "byzantine": "8898e1af897d52257196562354f9826273d9537aa6115f29a3a0df2caf631e0a",
    "churn": "4b5b1cb9d5288fece2511048dc6e9c541184e1f2f91852077d4b7d1221370798",
    "parallel": "ab9d091b55bc3e379fdc1dbabb7c0e7ac6202f076a59b10d850dfe4a677d6a9c",
}


def grid_net(shape: str, drop_rate: float, seed: int) -> LossyNetwork:
    ids = sparse_ids(7, make_rng(seed))
    schedule = MembershipSchedule()
    if shape == "churn":
        schedule.join(3, 5, lambda: EarlyConsensus(1))
        schedule.join(4, 6, RandomNoiseStrategy, byzantine=True)
        schedule.leave(5, ids[1])
        schedule.leave(7, 6)
    net = LossyNetwork(drop_rate, seed, shape == "byzantine", schedule)
    for index, node_id in enumerate(ids):
        if shape == "parallel":
            inputs = {"a": index % 2, ("b", index % 3): index}
            net.add_correct(node_id, ParallelConsensus(inputs))
        else:
            net.add_correct(node_id, EarlyConsensus(index % 2))
    if shape == "byzantine":
        net.add_byzantine(1, EquivocatorStrategy(EarlyConsensus(1)))
        net.add_byzantine(2, EquivocatorStrategy(EarlyConsensus(0)))
        net.add_byzantine(3, RandomNoiseStrategy())
    return net


def grid_row(shape: str, drop_rate: float, seed: int) -> tuple:
    """Everything observable about one lossy run: its whole JSONL event
    file (rounds, sends with staged flags, every delivered batch, the
    semantic stream), how it ended, the drops and every contact set."""
    net = grid_net(shape, drop_rate, seed)
    stream = io.StringIO()
    with JsonlSink(net.bus, stream):
        try:
            net.run(30)
            ending = repr(sorted(net.outputs().items()))
        except SimulationError as error:
            ending = repr(error)
    contacts = sorted((n, sorted(s.contacts)) for n, s in net._nodes.items())
    return stream.getvalue(), ending, net.dropped, contacts


def grid_digest(shape: str) -> str:
    rows = [
        grid_row(shape, rate, seed)
        for rate in GRID_RATES
        for seed in GRID_SEEDS
    ]
    assert any(row[2] for row in rows), "the grid must actually drop"
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestLossRidesThePlane:
    """Message loss is a row mask on the one delivery path, not a
    second engine."""

    def test_lossy_runs_ride_the_columnar_plane(self):
        net = LossyNetwork(0.2, seed=2)
        events = []
        net.bus.subscribe(events.append, "plane-stats")
        populate(net, 2, Keeper)
        net.run(8, until_all_halted=False)
        assert net.dropped > 0 and net._plane is not None
        summary = net.metrics.summary()
        assert summary["columnar_active"] is True
        assert "plane_fallback" not in summary
        # One cumulative stats event per round, none of them a downgrade.
        assert [e.round for e in events] == list(range(1, 9))
        assert events[-1].unique_payloads > 0

    def test_lossless_recipients_share_one_inbox_like_sync_network(self):
        for net in (LossyNetwork(0.0, seed=4), SyncNetwork(seed=4)):
            ids = populate(net, 4, Keeper)
            net.run(60)
            for round_no in (2, 3, 4):
                boxes = [net.protocol_of(n).inboxes[round_no] for n in ids]
                assert len(boxes[0]) >= len(ids)
                assert all(box is boxes[0] for box in boxes)

    @pytest.mark.parametrize("shape", list(PARENT_GRID_DIGESTS))
    def test_grid_matches_parent_recording(self, shape):
        # Fails if the draw order, the all-dropped skip, contact
        # tracking or the ``deliver`` payload drift.
        assert grid_digest(shape) == PARENT_GRID_DIGESTS[shape]

    def test_masking_one_recipient_leaves_the_rest_on_the_shared_index(
        self,
    ):
        # The property a message adversary relies on: a mask is paid
        # for by the recipients it touches, nobody else.
        net = SyncNetwork(seed=3)
        asked = []

        def mask(recipient, rows):
            asked.append(recipient)
            if recipient == victim:
                return [row % 2 == 0 for row in range(rows)]

        net._delivery_mask = mask
        ids = populate(net, 3, Keeper)
        victim = ids[2]
        delivered = {}
        net.bus.subscribe(
            lambda e: delivered.update({e.recipient: tuple(e.messages)}),
            "deliver",
        )
        net.step()
        net.step()
        assert asked == ids  # once per recipient, in node order
        boxes = {node: net.protocol_of(node).inboxes[2] for node in ids}
        others = [boxes[node] for node in ids if node != victim]
        assert all(box is others[0] for box in others)
        assert boxes[victim] is not others[0]
        full = tuple(others[0])
        assert tuple(boxes[victim]) == full[::2] != full
        assert delivered[victim] == full[::2]
        assert delivered[ids[0]] == full
        # Contacts grow from the kept senders only.
        assert net._nodes[victim].contacts == {m.sender for m in full[::2]}
        assert net._nodes[ids[0]].contacts == {m.sender for m in full}
        # A verdict of the wrong length is refused, not truncated.
        net._delivery_mask = lambda recipient, rows: [True] * (rows - 1)
        with pytest.raises(ConfigurationError, match="delivery mask"):
            net.step()


if __name__ == "__main__":
    print({shape: grid_digest(shape) for shape in PARENT_GRID_DIGESTS})
