"""Churn generators: determinism, parameter validation, schedule shape."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.scenario import (
    ChurnSpec,
    RunSpec,
    build_membership,
    get_protocol,
    predict_population,
    resolve,
    validate_schedule,
)
from repro.sim.membership import MembershipSchedule


def spec_with(churn: ChurnSpec, **overrides) -> RunSpec:
    kwargs = dict(
        protocol="total-order", n=9, f=2, seed=7, max_rounds=80,
        churn=churn,
    )
    kwargs.update(overrides)
    return RunSpec(**kwargs)


def schedule_for(spec: RunSpec) -> MembershipSchedule:
    correct, byz = predict_population(spec)
    return build_membership(spec, get_protocol(spec.protocol), correct, byz)


def shape(schedule: MembershipSchedule):
    """The comparable part of a schedule (factories are callables)."""
    return (
        [(j.round, j.node_id, j.byzantine) for j in schedule.joins],
        [(leave.round, leave.node_id) for leave in schedule.leaves],
    )


class TestDeterminism:
    @pytest.mark.parametrize(
        "churn",
        [
            ChurnSpec("rate", {"join_rate": 0.2, "leave_rate": 0.1}),
            ChurnSpec("crash-recover", {"pairs": 2}),
            ChurnSpec("bursts", {"count": 3, "joins": 2, "leaves": 1}),
        ],
    )
    def test_same_spec_same_schedule(self, churn):
        spec = spec_with(churn)
        assert shape(schedule_for(spec)) == shape(schedule_for(spec))

    def test_different_seed_different_schedule(self):
        churn = ChurnSpec("rate", {"join_rate": 0.3, "leave_rate": 0.15})
        first = schedule_for(spec_with(churn, seed=1))
        second = schedule_for(spec_with(churn, seed=2))
        assert shape(first) != shape(second)

    def test_churn_stream_independent_of_engine_randomness(self):
        # Same seed, different rushing flag: the schedule is a function
        # of the spec seed alone, not of anything the engine draws.
        churn = ChurnSpec("rate", {"join_rate": 0.3})
        base = spec_with(churn, seed=5)
        assert shape(schedule_for(base)) == shape(
            schedule_for(dataclasses.replace(base, rushing=True))
        )


class TestRate:
    def test_caps_respected(self):
        churn = ChurnSpec(
            "rate",
            {"join_rate": 1.0, "leave_rate": 1.0, "start": 10,
             "stop": 40, "max_joins": 3, "max_leaves": 2},
        )
        schedule = schedule_for(spec_with(churn))
        assert len(schedule.joins) == 3
        assert len(schedule.leaves) == 2

    def test_leaves_never_break_resiliency(self):
        churn = ChurnSpec(
            "rate", {"join_rate": 0.0, "leave_rate": 1.0, "start": 10,
                     "stop": 60},
        )
        spec = spec_with(churn)
        schedule = schedule_for(spec)
        # n=9 f=2: resiliency holds down to 7 alive, so at most two of
        # the seven correct founders may ever be removed.
        assert len(schedule.leaves) == 2

    def test_unknown_param_rejected(self):
        churn = ChurnSpec("rate", {"jion_rate": 0.5})
        with pytest.raises(ConfigurationError, match="jion_rate"):
            schedule_for(spec_with(churn))


class TestCrashRecover:
    def test_same_id_leaves_then_rejoins(self):
        spec = spec_with(
            ChurnSpec("crash-recover", {"pairs": 1, "first": 16, "gap": 8})
        )
        schedule = schedule_for(spec)
        joins, leaves = shape(schedule)
        assert len(joins) == len(leaves) == 1
        assert joins[0][1] == leaves[0][1]  # same node id
        assert joins[0][0] == leaves[0][0] + 8
        correct, _ = predict_population(spec)
        assert leaves[0][1] in correct

    def test_gap_below_two_rejected(self):
        churn = ChurnSpec("crash-recover", {"gap": 1})
        with pytest.raises(ConfigurationError, match="gap"):
            schedule_for(spec_with(churn))

    def test_overlapping_downtimes_count_every_victim(self):
        # Victims go down every 4 rounds for 5: two are down at once,
        # leaving n=9, f=3 — refused before any seed is drawn.
        churn = ChurnSpec(
            "crash-recover", {"pairs": 2, "gap": 5, "spacing": 4}
        )
        spec = spec_with(churn, n=11, f=3)
        with pytest.raises(ConfigurationError, match="n=9, f=3"):
            resolve(spec)
        resolve(dataclasses.replace(spec, n=12))

    def test_more_pairs_than_founders_rejected(self):
        churn = ChurnSpec("crash-recover", {"pairs": 99})
        with pytest.raises(ConfigurationError, match="pairs"):
            schedule_for(spec_with(churn))


class TestBursts:
    def test_yank_lands_at_admission_round(self):
        spec = spec_with(
            ChurnSpec(
                "bursts",
                {"first": 14, "period": 7, "count": 2, "joins": 2,
                 "leaves": 1},
            )
        )
        joins, leaves = shape(schedule_for(spec))
        assert len(joins) == 4 and len(leaves) == 2
        for burst, round_no in enumerate((14, 21)):
            burst_joiners = [j[1] for j in joins if j[0] == round_no]
            yanked = [lv[1] for lv in leaves if lv[0] == round_no + 3]
            assert len(yanked) == 1
            assert yanked[0] in burst_joiners

    def test_cannot_yank_more_than_joined(self):
        churn = ChurnSpec("bursts", {"joins": 1, "leaves": 2})
        with pytest.raises(ConfigurationError, match="yank"):
            schedule_for(spec_with(churn))


class TestGuards:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown churn kind"):
            schedule_for(spec_with(ChurnSpec("meteor", {})))

    def test_protocol_without_joiner_rejected(self):
        spec = spec_with(
            ChurnSpec("rate", {"join_rate": 1.0}), protocol="consensus"
        )
        with pytest.raises(ConfigurationError, match="join handshake"):
            schedule_for(spec)


class TestValidateSchedule:
    def test_join_of_alive_id_rejected(self):
        schedule = MembershipSchedule()
        schedule.join(5, 1, lambda: None)
        with pytest.raises(ConfigurationError, match="still alive"):
            validate_schedule(schedule, [1, 2, 3, 4], [])

    def test_byzantine_join_breaking_resiliency_rejected(self):
        # 4 correct, 1 byz is fine (4+1 > 3); admitting a second
        # Byzantine node makes n=6, f=2 — a violating round start.
        schedule = MembershipSchedule()
        schedule.join(5, 99, lambda: None, byzantine=True)
        with pytest.raises(ConfigurationError, match="n > 3f"):
            validate_schedule(schedule, [1, 2, 3, 4], [50])

    def test_leave_of_departed_id_is_allowed_noop(self):
        schedule = MembershipSchedule()
        schedule.leave(5, 1)
        schedule.leave(9, 1)  # already gone — adversary wastes a removal
        schedule.leave(9, 424242)  # never existed
        validate_schedule(schedule, [1, 2, 3, 4, 5], [])

    def test_leaves_breaking_resiliency_rejected(self):
        schedule = MembershipSchedule()
        schedule.leave(5, 1)
        with pytest.raises(ConfigurationError, match="n > 3f"):
            validate_schedule(schedule, [1, 2, 3], [4])

    def test_enforcement_can_be_waived(self):
        schedule = MembershipSchedule()
        schedule.leave(5, 1)
        validate_schedule(
            schedule, [1, 2, 3], [4], enforce_resiliency=False
        )
