"""Membership edge cases, end to end through the scenario layer.

Three corners the dynamic model has to survive (satellites of the
scenario-layer refactor):

* a node forcibly removed and later rejoining under the *same id*
  (crash-recover) — the engine must re-admit it as a fresh joiner;
* a join whose arrival would violate ``n > 3f`` — refused up front;
* a forced leave of a node that already departed — a no-op, mirroring
  an adversary wasting a removal.
"""

import pytest

from repro.analysis.verdicts import ChainPrefix
from repro.errors import ConfigurationError
from repro.scenario import (
    ChurnSpec,
    RunSpec,
    materialize,
    predict_population,
    run_spec,
)
from repro.sim.runner import run_scenario

from tests.conftest import assert_holds


class TestLeaveThenRejoinSameId:
    def spec(self):
        return RunSpec(
            protocol="total-order",
            n=9,
            f=2,
            churn=ChurnSpec(
                "crash-recover", {"pairs": 1, "first": 16, "gap": 8}
            ),
            seed=3,
            max_rounds=80,
        )

    def test_rejoined_node_is_alive_with_a_consistent_chain(self):
        spec = self.spec()
        scenario = materialize(spec)
        victim = scenario.membership.leaves[0].node_id
        assert scenario.membership.joins[0].node_id == victim

        result = run_spec(spec)
        assert victim in result.network.alive_ids
        # The rejoined node is a *fresh* protocol instance: it came back
        # through the join handshake, not with its pre-crash state.
        rejoined = result.network.protocols()[victim]
        assert rejoined.joined
        assert_holds(result, ChainPrefix())

    def test_rejoin_round_is_fresh_registration(self):
        # Materializing twice yields identical schedules — determinism
        # of the rejoin round matters for replay artifacts.
        first = materialize(self.spec()).membership
        second = materialize(self.spec()).membership
        assert [(j.round, j.node_id) for j in first.joins] == [
            (j.round, j.node_id) for j in second.joins
        ]


class TestJoinViolatingResiliency:
    def test_byzantine_join_breaking_n_gt_3f_is_refused(self):
        # Every schedule reaches the engine through the scenario
        # layer's validation: a join that makes a round start with
        # n <= 3f is refused before anything runs.
        spec = RunSpec(
            protocol="total-order", n=4, f=1, seed=2, max_rounds=40
        )
        correct, byz = predict_population(spec)
        assert len(correct) == 3 and len(byz) == 1
        # A second Byzantine joiner at round 10 makes n=5, f=2.
        from repro.scenario import validate_schedule
        from repro.sim.membership import MembershipSchedule

        schedule = MembershipSchedule()
        schedule.join(10, 999_983, lambda: None, byzantine=True)
        with pytest.raises(ConfigurationError, match="n > 3f"):
            validate_schedule(schedule, correct, byz)


class TestLeaveOfDepartedNode:
    def test_double_leave_is_a_noop(self):
        spec = RunSpec(
            protocol="total-order",
            n=9,
            f=2,
            protocol_params={"leavers": 1, "leave_base": 30},
            seed=5,
            max_rounds=70,
        )
        scenario = materialize(spec)
        correct, _ = predict_population(spec)
        # The registry's leave plan makes founder 0 depart voluntarily
        # at round 30; force-removing it again later must change nothing.
        from repro.sim.membership import MembershipSchedule

        schedule = MembershipSchedule()
        schedule.leave(45, correct[0])
        schedule.leave(50, 999_979)  # never a member at all
        scenario.membership = schedule
        result = run_scenario(scenario)
        assert correct[0] not in result.network.alive_ids
        assert_holds(result, ChainPrefix())
