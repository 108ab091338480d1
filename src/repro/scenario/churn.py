"""Seeded churn-schedule generators.

The paper's dynamic model lets the adversary schedule joins and forced
leaves, subject to ``n > 3f`` when each round starts.  A
:class:`~repro.scenario.spec.ChurnSpec` names one of three generators:

* ``rate`` — per-round join/leave coin flips over a window (the EpTO
  ``CHURN_RATE`` workload shape);
* ``crash-recover`` — a node is forcibly removed and later rejoins
  under the *same id*, exercising the engine's re-admission path;
* ``bursts`` — adversarially timed churn: a clump of joins lands at
  once, and some of those joiners are yanked exactly when established
  members admit them to ``S`` (three rounds later — the worst moment
  for the membership view).

Every generator draws from ``make_rng(spec.seed ^ CHURN_SALT)`` — a
stream independent of the engine's own randomness, so the same spec
always yields the same schedule, and changing only the protocol seed
path never silently reshuffles the churn.
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError
from repro.sim.membership import MembershipSchedule
from repro.sim.rng import make_rng
from repro.types import NodeId

#: XOR'd into the spec seed so churn and engine randomness are
#: independent streams of the one master seed.
CHURN_SALT = 0x5EED_CA11

__all__ = [
    "CHURN_SALT", "CHURN_KINDS", "build_membership", "churn_params",
    "validate_schedule",
]


def _fresh_id(rng, taken: set[NodeId], id_space: int) -> NodeId:
    while True:
        candidate = rng.randrange(1, id_space)
        if candidate not in taken:
            taken.add(candidate)
            return candidate


#: Each generator's params with their defaults (``None``: derived from
#: the spec when absent).  A value must be an int, or, where the
#: default is a float, any number.
_DEFAULTS: dict[str, dict[str, Any]] = {
    "rate": {
        "join_rate": 0.08, "leave_rate": 0.04, "start": 12, "stop": None,
        "max_joins": None, "max_leaves": None,
    },
    "crash-recover": {"pairs": 1, "first": 16, "gap": 8, "spacing": 12},
    "bursts": {"first": 14, "period": 7, "count": 3, "joins": 1, "leaves": 0},
}


def churn_params(spec, entry) -> dict[str, Any]:
    """*spec*'s churn params over their generator's defaults.

    :class:`~repro.errors.ConfigurationError` when the churn spec can
    never run, whatever the seed: an unknown kind or key, a value of the
    wrong type, a protocol with no joiner (every kind joins), or a
    schedule shape its generator refuses.
    """
    kind = spec.churn.kind
    if kind not in _DEFAULTS:
        raise ConfigurationError(
            f"unknown churn kind {kind!r}; known: {', '.join(CHURN_KINDS)}"
        )
    params = dict(_DEFAULTS[kind])
    unknown = sorted(set(spec.churn.params) - set(params))
    if unknown:
        raise ConfigurationError(
            f"unknown churn params for {kind!r}: {unknown}"
        )
    for key, value in spec.churn.params.items():
        real = isinstance(params[key], float)
        if type(value) is not int and not (real and type(value) is float):
            raise ConfigurationError(
                f"churn param {key!r} must be "
                f"{'a number' if real else 'an integer'}, got {value!r}"
            )
        params[key] = value
    if entry.joiner is None:
        raise ConfigurationError(
            f"protocol {spec.protocol!r} has no join handshake; churn "
            "schedules need a protocol with a registered joiner "
            "(e.g. total-order)"
        )
    founders, f = spec.n - spec.f, spec.f
    if kind == "crash-recover":
        if params["gap"] < 2:
            raise ConfigurationError(
                "crash-recover gap must be >= 2: a node cannot rejoin the "
                "round it is removed"
            )
        if params["pairs"] > founders:
            raise ConfigurationError(
                f"crash-recover pairs={params['pairs']} exceeds the "
                f"{founders} correct founders"
            )
        # Victims go down every ``spacing`` rounds for ``gap`` rounds.
        spacing = max(params["spacing"], 1)
        down = min(params["pairs"], -(-params["gap"] // spacing))
        if spec.enforce_resiliency and not founders - down + f > 3 * f:
            raise ConfigurationError(
                f"crash-recover downtime leaves n={founders - down + f}, "
                f"f={f}: violates n > 3f"
            )
    if kind == "bursts" and params["leaves"] > params["joins"]:
        raise ConfigurationError(
            "bursts: cannot yank more joiners than the burst admits"
        )
    return params


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------
def _rate_schedule(
    spec, params: dict[str, Any], entry, correct_ids, byz_ids
) -> MembershipSchedule:
    """Independent per-round join/leave coin flips over a window."""
    start, stop = params["start"], params["stop"]
    if stop is None:
        stop = max(start, spec.max_rounds - 25)
    max_joins, max_leaves = params["max_joins"], params["max_leaves"]
    rng = make_rng(spec.seed, salt=CHURN_SALT)
    schedule = MembershipSchedule()
    taken = set(correct_ids) | set(byz_ids)
    correct_alive = set(correct_ids)
    f_alive = len(byz_ids)
    joins = leaves = 0
    for round_no in range(start, stop):
        if (max_joins is None or joins < max_joins) and (
            rng.random() < params["join_rate"]
        ):
            joiner = _fresh_id(rng, taken, spec.id_space)
            schedule.join(
                round_no, joiner, entry.joiner(spec, joiner, round_no)
            )
            correct_alive.add(joiner)
            joins += 1
        if (max_leaves is None or leaves < max_leaves) and (
            rng.random() < params["leave_rate"]
        ):
            # Remove a random correct member — but never below the
            # resiliency floor the dynamic model requires per round.
            n_after = len(correct_alive) - 1 + f_alive
            if correct_alive and (
                not spec.enforce_resiliency or n_after > 3 * f_alive
            ):
                victim = rng.choice(sorted(correct_alive))
                schedule.leave(round_no, victim)
                correct_alive.discard(victim)
                leaves += 1
    return schedule


def _crash_recover_schedule(
    spec, params: dict[str, Any], entry, correct_ids, byz_ids
) -> MembershipSchedule:
    """Forced removals followed by same-id rejoins."""
    first, gap, spacing = params["first"], params["gap"], params["spacing"]
    rng = make_rng(spec.seed, salt=CHURN_SALT)
    victims = rng.sample(sorted(correct_ids), params["pairs"])
    schedule = MembershipSchedule()
    for k, victim in enumerate(victims):
        down = first + k * spacing
        schedule.leave(down, victim)
        schedule.join(
            down + gap, victim, entry.joiner(spec, victim, down + gap)
        )
    return schedule


def _bursts_schedule(
    spec, params: dict[str, Any], entry, correct_ids, byz_ids
) -> MembershipSchedule:
    """Clumped joins, with some joiners yanked at their admission round."""
    first, period = params["first"], params["period"]
    rng = make_rng(spec.seed, salt=CHURN_SALT)
    schedule = MembershipSchedule()
    taken = set(correct_ids) | set(byz_ids)
    for burst in range(params["count"]):
        round_no = first + period * burst
        burst_joiners = []
        for _ in range(params["joins"]):
            joiner = _fresh_id(rng, taken, spec.id_space)
            schedule.join(
                round_no, joiner, entry.joiner(spec, joiner, round_no)
            )
            burst_joiners.append(joiner)
        # Established members admit a joiner to S three rounds after its
        # `present` lands; removing it exactly then maximizes the damage
        # a churn adversary can do to the membership views.
        for victim in burst_joiners[:params["leaves"]]:
            schedule.leave(round_no + 3, victim)
    return schedule


_GENERATORS: dict[str, Callable[..., MembershipSchedule]] = {
    "rate": _rate_schedule,
    "crash-recover": _crash_recover_schedule,
    "bursts": _bursts_schedule,
}

#: Registered churn generator names.
CHURN_KINDS: tuple[str, ...] = tuple(_GENERATORS)


def build_membership(
    spec,
    entry,
    correct_ids: Sequence[NodeId],
    byz_ids: Sequence[NodeId],
) -> MembershipSchedule:
    """Generate and validate the membership schedule for *spec*."""
    params = churn_params(spec, entry)
    generator = _GENERATORS[spec.churn.kind]
    schedule = generator(spec, params, entry, correct_ids, byz_ids)
    validate_schedule(
        schedule,
        correct_ids,
        byz_ids,
        enforce_resiliency=spec.enforce_resiliency,
    )
    return schedule


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------
def validate_schedule(
    schedule: MembershipSchedule,
    correct_ids: Sequence[NodeId],
    byz_ids: Sequence[NodeId],
    *,
    enforce_resiliency: bool = True,
) -> None:
    """Replay the schedule against the starting population.

    Raises :class:`~repro.errors.ConfigurationError` when a join
    re-admits an id that is still alive, or when any round would start
    with ``n <= 3f`` (counting scheduled joins and forced leaves, with
    Byzantine joins raising ``f``) while ``enforce_resiliency`` holds.
    Forced leaves of departed or unknown ids are allowed — the engine
    treats them as no-ops, mirroring an adversary wasting a removal.
    """
    correct_alive = set(correct_ids)
    byz_alive = set(byz_ids)
    departed: set[NodeId] = set()
    rounds = sorted(
        {j.round for j in schedule.joins}
        | {leave.round for leave in schedule.leaves}
    )
    for round_no in rounds:
        for join in schedule.joins_at(round_no):
            if join.node_id in correct_alive or join.node_id in byz_alive:
                raise ConfigurationError(
                    f"round {round_no}: join of node {join.node_id} "
                    "which is still alive"
                )
            departed.discard(join.node_id)
            (byz_alive if join.byzantine else correct_alive).add(
                join.node_id
            )
        for leave in schedule.leaves_at(round_no):
            if leave.node_id in correct_alive:
                correct_alive.discard(leave.node_id)
                departed.add(leave.node_id)
            elif leave.node_id in byz_alive:
                byz_alive.discard(leave.node_id)
                departed.add(leave.node_id)
            # else: already departed / never present — engine no-op.
        n_alive = len(correct_alive) + len(byz_alive)
        if enforce_resiliency and not n_alive > 3 * len(byz_alive):
            raise ConfigurationError(
                f"round {round_no}: schedule leaves n={n_alive}, "
                f"f={len(byz_alive)} — violates n > 3f"
            )
