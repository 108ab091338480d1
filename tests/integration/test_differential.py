"""Differential runs: every drawn spec on the engine and on the model.

A seeded generator draws :class:`~repro.scenario.RunSpec`s across the
registry — every protocol and variant, every adversary with rushing on
and off, n <= 13 with f <= (n - 1) // 3, the three churn kinds on the
protocols with a joiner, and on some draws a loss rate — and runs each
one on :class:`~repro.sim.network.SyncNetwork` (a
:class:`~repro.sim.lossy.LossyNetwork` when lossy) and on the naive
:class:`~tests.reference_engine.ReferenceNetwork`.  Both sides are
populated by the runner's own :func:`~repro.sim.runner.populate` from
their own :func:`~repro.scenario.materialize` call, so stateful
builders stay independent.  The reference's loss mask is a fresh
``LossyNetwork`` mask with the same rate and seed: a model input, like
the adversary's ``make_rng(seed)`` stream.

A case is named by its draw seed; a mismatch prints the loss rate and
the spec's JSON (``repro run --scenario`` replays a lossless one).  A
larger sample, with every mismatching spec saved::

    PYTHONPATH=src python -m tests.integration.test_differential \\
        --first 1000 --draws 2000 --artifacts differential-artifacts
"""

import argparse
import json
import pathlib
import sys

import pytest

from repro.adversary import STRATEGY_BUILDERS
from repro.errors import ConfigurationError
from repro.scenario import (
    CHURN_KINDS,
    PROTOCOLS,
    ChurnSpec,
    RunSpec,
    get_protocol,
    materialize,
    resolve,
)
from repro.sim.lossy import LossyNetwork
from repro.sim.network import SyncNetwork
from repro.sim.rng import make_rng
from repro.sim.runner import populate

from tests.reference_engine import assert_matches_reference

#: The tier-1 sample: these draw seeds, every one run on both engines.
SAMPLE = range(200)
LOSS_RATES = (0.01, 0.2, 0.6)
#: Binary assignments (None: the protocol's default, which may be
#: ``index``): binary consensus refuses any other input.
INPUTS = (None, "alternating", "supermajority", "constant:0")

#: Churn kind -> its drawn params: every kind lands inside a short run.
CHURN_PARAMS = {
    "rate": lambda rng: {
        "join_rate": 0.3, "leave_rate": 0.2,
        "start": rng.randint(2, 8), "stop": rng.randint(10, 20),
    },
    "crash-recover": lambda rng: {
        "pairs": rng.randint(1, 2), "first": rng.randint(2, 8),
        "gap": rng.randint(2, 5), "spacing": rng.randint(3, 6),
    },
    "bursts": lambda rng: {
        "first": rng.randint(2, 8), "period": rng.randint(3, 6),
        "count": rng.randint(1, 3), "joins": rng.randint(1, 2),
        "leaves": rng.randint(0, 1),
    },
}


def _protocol_params(protocol: str, rng) -> dict:
    if protocol == "approx":
        return {"iterations": rng.randint(1, 3)}
    if protocol == "parallel" and rng.random() < 0.5:
        awareness = rng.choice(("full", "partial"))
        return {"instances": rng.randint(1, 6), "awareness": awareness}
    if protocol == "total-order":
        return {
            "event_last": rng.randint(5, 30),
            "event_every": rng.randint(1, 6),
            "leavers": rng.randint(0, 2),
            "leave_base": rng.randint(6, 20),
            "leave_step": rng.randint(1, 5),
            "joiner_events": rng.random() < 0.5,
        }
    return {}


def _draw_once(rng) -> tuple[RunSpec, float]:
    protocol = rng.choice(PROTOCOLS)
    entry = get_protocol(protocol)
    n = rng.randint(1, 13)
    most = (n - 1) // 3
    churn = None
    if entry.joiner is not None and rng.random() < 0.8:
        kind = rng.choice(CHURN_KINDS)
        churn = ChurnSpec(kind, CHURN_PARAMS[kind](rng))
    # f > 0 on most draws: an adversary only acts with Byzantine nodes.
    spec = RunSpec(
        protocol=protocol,
        n=n,
        f=rng.randint(min(most, 1), most) if rng.random() < 0.8 else 0,
        variant=rng.choice(entry.variants),
        inputs=rng.choice(INPUTS),
        protocol_params=_protocol_params(protocol, rng),
        adversary=rng.choice(STRATEGY_BUILDERS),
        churn=churn,
        seed=rng.randrange(2**31),
        rushing=rng.random() < 0.5,
        max_rounds=rng.choice((20, 40, 60)),
    )
    return spec, rng.choice(LOSS_RATES) if rng.random() < 0.25 else 0.0


def draw(draw_seed: int) -> tuple[RunSpec, float]:
    """The (spec, loss rate) of case *draw_seed*; a spec that
    :func:`~repro.scenario.resolve` refuses is drawn again."""
    rng = make_rng(draw_seed)
    while True:
        spec, loss = _draw_once(rng)
        try:
            resolve(spec)
        except ConfigurationError:
            continue
        return spec, loss


def run_case(draw_seed: int):
    """Run case *draw_seed* on both engines; an ``AssertionError``
    naming the case and its spec when they differ or either crashes."""
    spec, loss = draw(draw_seed)

    def make(network):
        scenario = materialize(spec)  # once per side
        options = {
            "seed": spec.seed,
            "rushing": spec.rushing,
            "membership": scenario.membership,
        }
        if network is not SyncNetwork:
            mask = LossyNetwork(loss, spec.seed)._loss_mask if loss else None
            net = network(mask=mask, **options)
        elif loss:
            net = LossyNetwork(loss, **options)
        else:
            net = network(**options)
        populate(scenario, net)
        return net

    try:
        # The draw leaves ``until_all_halted`` to the protocol.
        halting = get_protocol(spec.protocol).until_all_halted
        return assert_matches_reference(make, spec.max_rounds, halting)
    except Exception as error:
        raise AssertionError(
            f"draw seed {draw_seed}: loss {loss}; spec:\n"
            f"{json.dumps(spec.to_json_dict())}\n{error!r}"
        ) from error


@pytest.mark.parametrize("draw_seed", SAMPLE)
def test_engine_matches_reference(draw_seed):
    run_case(draw_seed)


def test_sample_covers_the_registry():
    # Drawn, not run: a change to the generator cannot silently shrink
    # what the sample checks.
    cases = [draw(seed) for seed in SAMPLE]
    specs = [spec for spec, _ in cases]
    byzantine = [spec for spec in specs if spec.f]
    assert {(s.protocol, s.variant) for s in specs} == {
        (name, variant)
        for name in PROTOCOLS
        for variant in get_protocol(name).variants
    }
    assert {s.adversary for s in byzantine} == set(STRATEGY_BUILDERS)
    assert {s.rushing for s in byzantine} == {False, True}
    assert {s.churn.kind for s in specs if s.churn} == set(CHURN_KINDS)
    assert {loss for _, loss in cases} > {0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--draws", type=int, default=len(SAMPLE))
    parser.add_argument("--artifacts", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    mismatches = 0
    for draw_seed in range(args.first, args.first + args.draws):
        try:
            run_case(draw_seed)
        except AssertionError as error:
            mismatches += 1
            print(*str(error).split("\n")[:2], sep="\n", file=sys.stderr)
            if args.artifacts is not None:
                args.artifacts.mkdir(parents=True, exist_ok=True)
                spec, loss = draw(draw_seed)
                spec.save(args.artifacts / f"draw-{draw_seed}-loss-{loss}.json")
    print(f"{args.draws} drawn specs, {mismatches} mismatching")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
