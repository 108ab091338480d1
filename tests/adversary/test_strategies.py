"""Unit tests for the Byzantine strategy implementations."""

import random

from repro.adversary import (
    CrashStrategy,
    EchoForgerStrategy,
    EquivocatorStrategy,
    MembershipLiarStrategy,
    PresentOnlyStrategy,
    QuorumSplitterStrategy,
    RandomNoiseStrategy,
    SilentStrategy,
    ValueInjectorStrategy,
)
from repro.adversary.simple import HalfCrashStrategy
from repro.sim.inbox import Inbox
from repro.sim.message import BROADCAST, MulticastSend, expand_sends
from repro.sim.network import AdversaryView
from repro.sim.node import Protocol


class Beacon(Protocol):
    """Honest protocol that broadcasts a value every round."""

    def __init__(self, value=1):
        super().__init__()
        self.value = value

    def on_round(self, api, inbox):
        api.broadcast("input", self.value)


def view(round_no=1, node_id=50, all_nodes=(1, 2, 3, 4, 50), inbox=()):
    nodes = frozenset(all_nodes)
    return AdversaryView(
        node_id=node_id,
        round=round_no,
        inbox=Inbox(inbox),
        all_nodes=nodes,
        correct_nodes=nodes - {node_id},
        byzantine_nodes=frozenset({node_id}),
        rng=random.Random(0),
        correct_traffic=(),
    )


def scalar_sends(strategy, view):
    """The strategy's output for one round, one ``Send`` per recipient
    (fan-outs leave the strategy as single multicast entries)."""
    return list(expand_sends(strategy.on_round(view)))


class TestSilentAndPresent:
    def test_silent_sends_nothing_ever(self):
        strategy = SilentStrategy()
        for round_no in range(1, 5):
            assert list(strategy.on_round(view(round_no))) == []

    def test_present_only_announces_once(self):
        strategy = PresentOnlyStrategy()
        first = list(strategy.on_round(view(1)))
        assert len(first) == 1
        assert first[0].kind == "present"
        assert first[0].dest is BROADCAST
        assert list(strategy.on_round(view(2))) == []


class TestCrash:
    def test_honest_before_crash(self):
        strategy = CrashStrategy(Beacon(), crash_round=3)
        sends = list(strategy.on_round(view(1)))
        assert sends and sends[0].kind == "input"

    def test_silent_from_crash_round(self):
        strategy = CrashStrategy(Beacon(), crash_round=2)
        assert list(strategy.on_round(view(1)))
        assert list(strategy.on_round(view(2))) == []
        assert list(strategy.on_round(view(3))) == []

    def test_half_crash_partial_broadcast(self):
        strategy = HalfCrashStrategy(Beacon(), crash_round=2)
        sends = scalar_sends(strategy, view(2))
        # broadcast exploded to only the lower half of 5 nodes
        assert len(sends) == 2
        assert all(s.dest is not BROADCAST for s in sends)
        assert list(strategy.on_round(view(3))) == []


class TestEquivocator:
    def test_splits_values_between_halves(self):
        strategy = EquivocatorStrategy(Beacon(1))
        sends = scalar_sends(strategy, view(1))
        by_dest = {s.dest: s.payload for s in sends}
        assert len(by_dest) == 5
        payloads = set(by_dest.values())
        assert payloads == {1, 0}  # 1 mutated to 0 for binary

    def test_each_story_leaves_as_one_multicast(self):
        strategy = EquivocatorStrategy(Beacon(1))
        raw = list(strategy.on_round(view(1)))
        assert [type(s) for s in raw] == [MulticastSend, MulticastSend]
        # Every entry a strategy returns answers ``.dest`` (per-send
        # consumers and the benchmark's tracer read it).
        assert [s.dest for s in raw] == [(1, 2), (3, 4, 50)]
        assert all(s.dest is not BROADCAST for s in raw)
        assert [s.payload for s in raw] == [1, 0]

    def test_nobody_to_tell_means_no_entry(self):
        # One victim: the lower half is empty, so only the twisted
        # story goes out (no empty multicast).
        strategy = EquivocatorStrategy(Beacon(1), targets=frozenset({3}))
        raw = list(strategy.on_round(view(1)))
        assert [s.dest for s in raw] == [(3,), (1, 2, 4, 50)]

    def test_respects_kind_filter(self):
        strategy = EquivocatorStrategy(
            Beacon(1), kinds=frozenset({"other"})
        )
        sends = list(strategy.on_round(view(1)))
        assert len(sends) == 1
        assert sends[0].dest is BROADCAST  # untouched

    def test_payload_free_messages_untouched(self):
        class InitOnly(Protocol):
            def on_round(self, api, inbox):
                api.broadcast("init")

        strategy = EquivocatorStrategy(InitOnly())
        sends = list(strategy.on_round(view(1)))
        assert len(sends) == 1
        assert sends[0].kind == "init"

    def test_mutations(self):
        from repro.adversary.equivocator import _default_mutate

        assert _default_mutate(0) == 1
        assert _default_mutate(1) == 0
        assert _default_mutate(5) == -5
        assert _default_mutate(2.5) == -2.5
        assert _default_mutate("v") == "v'"
        assert _default_mutate((0, "a")) == (1, "a'")
        assert _default_mutate(None) is None


class TestForgers:
    def test_echo_forger_emits_forged_echo(self):
        strategy = EchoForgerStrategy()
        sends = list(strategy.on_round(view(1)))
        kinds = [s.kind for s in sends]
        assert "present" in kinds
        assert "echo" in kinds
        echo = next(s for s in sends if s.kind == "echo")
        assert echo.payload == ("forged", 1)  # blames smallest correct id

    def test_echo_forger_announces_once(self):
        strategy = EchoForgerStrategy()
        strategy.on_round(view(1))
        sends = list(strategy.on_round(view(2)))
        assert [s.kind for s in sends] == ["echo"]

    def test_membership_liar_phantoms(self):
        strategy = MembershipLiarStrategy(phantoms=3)
        sends = list(strategy.on_round(view(1)))
        echoes = [s for s in sends if s.kind == "echo"]
        assert len(echoes) == 3
        assert all(p.payload >= 10**7 for p in echoes)

    def test_membership_liar_partial_present(self):
        strategy = MembershipLiarStrategy(phantoms=0)
        sends = list(strategy.on_round(view(1)))
        presents = [s for s in sends if s.kind == "present"]
        assert len(presents) == 2  # lower half of 5 nodes
        assert list(strategy.on_round(view(2))) == []  # one-time lie


class TestInjectorAndNoise:
    def test_value_injector_splits_extremes(self):
        strategy = ValueInjectorStrategy(low=-9.0, high=9.0)
        sends = list(strategy.on_round(view(1)))
        payloads = {s.payload for s in sends}
        assert payloads == {-9.0, 9.0}
        assert len(sends) == 5

    def test_noise_respects_rate_and_vocabulary(self):
        strategy = RandomNoiseStrategy(rate=4, vocabulary=("junk",))
        sends = list(strategy.on_round(view(1)))
        assert len(sends) == 4
        assert all(s.kind == "junk" for s in sends)

    def test_noise_deterministic_given_rng(self):
        a = list(RandomNoiseStrategy(rate=5).on_round(view(1)))
        b = list(RandomNoiseStrategy(rate=5).on_round(view(1)))
        assert a == b


class TestSplitter:
    def test_opinion_kinds_split(self):
        strategy = QuorumSplitterStrategy(Beacon(1), value_a="a", value_b="b")
        sends = scalar_sends(strategy, view(1))
        assert {s.payload for s in sends} == {"a", "b"}
        assert len(sends) == 5  # one per node, split across the halves
        by_dest = {s.dest: s.payload for s in sends}
        ordered = sorted(by_dest)
        assert all(by_dest[d] == "a" for d in ordered[:2])
        assert all(by_dest[d] == "b" for d in ordered[2:])

    def test_non_opinion_kinds_pass_through(self):
        class PresentBeacon(Protocol):
            def on_round(self, api, inbox):
                api.broadcast("present", "x")

        strategy = QuorumSplitterStrategy(PresentBeacon())
        sends = list(strategy.on_round(view(1)))
        assert len(sends) == 1
        assert sends[0].payload == "x"
