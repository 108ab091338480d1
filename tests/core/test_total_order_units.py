"""Unit tests for total-order helpers and lifecycle flags."""

from repro.core.parallel_consensus import ParallelConsensusMachine
from repro.core.total_order import TotalOrderNode, events_from_dict
from repro.scenario import ChurnSpec, RunSpec, run_spec
from repro.sim.network import SyncNetwork
from repro.sim.rng import make_rng, sparse_ids


class TestEventsFromDict:
    def test_lookup(self):
        source = events_from_dict({3: "a", 7: "b"})
        assert source(3) == "a"
        assert source(7) == "b"
        assert source(4) is None

    def test_empty_plan(self):
        source = events_from_dict({})
        assert source(1) is None


class TestLifecycle:
    def build(self, count=5, seed=0):
        rng = make_rng(seed)
        ids = sparse_ids(count, rng)
        net = SyncNetwork(seed=seed)
        nodes = {}
        for node_id in ids:
            node = TotalOrderNode()
            nodes[node_id] = node
            net.add_correct(node_id, node)
        return net, nodes

    def test_request_leave_flag_triggers_departure(self):
        net, nodes = self.build()
        net.run(10, until_all_halted=False)
        leaver_id, leaver = next(iter(nodes.items()))
        leaver.request_leave()
        net.run(25, until_all_halted=False)
        assert leaver.halted
        survivors = [n for nid, n in nodes.items() if nid != leaver_id]
        assert all(leaver_id not in s.participants for s in survivors)

    def test_seed_bootstrap_counts_everyone(self):
        net, nodes = self.build(count=6)
        net.run(4, until_all_halted=False)
        for node in nodes.values():
            assert node.joined
            assert len(node.participants) == 6

    def test_local_rounds_aligned(self):
        net, nodes = self.build()
        net.run(12, until_all_halted=False)
        locals_ = {node.local_round for node in nodes.values()}
        assert len(locals_) == 1

    def test_default_event_source_is_silent(self):
        net, nodes = self.build()
        net.run(30, until_all_halted=False)
        for node in nodes.values():
            assert node.chain == []

    def test_events_stamped_with_local_round(self):
        rng = make_rng(3)
        ids = sparse_ids(4, rng)
        net = SyncNetwork(seed=3)
        nodes = {}
        for node_id in ids:
            node = TotalOrderNode(
                event_source=events_from_dict({4: "only-event"})
            )
            nodes[node_id] = node
            net.add_correct(node_id, node)
        net.run(45, until_all_halted=False)
        chain = next(iter(nodes.values())).chain
        # events witnessed at local round 4 are collected at round 5
        assert chain and all(entry[0] == 5 for entry in chain)
        assert len(chain) == 4


class TestMachineScheduling:
    """Quiescent machines are not run: a node pays for the machines
    somebody is talking to, not for its finality window."""

    @staticmethod
    def churn_campaign_op(monkeypatch, seed, never_final=False):
        """One ``churn-campaign`` op (the CI campaign-smoke spec);
        returns (machine ``on_round`` calls, machine-rounds held)."""
        counts = {"stepped": 0, "held": 0}
        on_round = ParallelConsensusMachine.on_round
        run_machines = TotalOrderNode._run_machines

        def counting_on_round(machine, api, inbox):
            counts["stepped"] += 1
            return on_round(machine, api, inbox)

        def counting_run_machines(node, api, inbox):
            counts["held"] += len(node.machines)
            return run_machines(node, api, inbox)

        with monkeypatch.context() as patch:
            patch.setattr(
                ParallelConsensusMachine, "on_round", counting_on_round
            )
            patch.setattr(
                TotalOrderNode, "_run_machines", counting_run_machines
            )
            if never_final:
                patch.setattr(
                    TotalOrderNode, "_is_final", lambda node, r: False
                )
            result = run_spec(
                RunSpec(
                    protocol="total-order",
                    n=9,
                    f=2,
                    churn=ChurnSpec("rate", {"start": 10, "stop": 30}),
                    protocol_params={"event_last": 26, "event_every": 4},
                    max_rounds=48,
                    seed=seed,
                )
            )
        assert result.rounds == 48
        return counts["stepped"], counts["held"]

    def test_most_machine_rounds_are_not_run(self, monkeypatch):
        for seed in (11, 12, 13):
            stepped, held = self.churn_campaign_op(monkeypatch, seed)
            assert held > 4000
            assert 5 * stepped < 2 * held  # under 40 %

    def test_cost_is_independent_of_finished_machines_held(
        self, monkeypatch
    ):
        # Stretch the finality window to "forever": every node keeps
        # every machine it ever started, and runs exactly as many.
        stepped, held = self.churn_campaign_op(monkeypatch, seed=11)
        hoarding, hoarded = self.churn_campaign_op(
            monkeypatch, seed=11, never_final=True
        )
        assert hoarded > held + 1000
        assert hoarding == stepped
