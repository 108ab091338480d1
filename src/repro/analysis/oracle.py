"""Oracle checks: sampled consensus must match full-broadcast consensus.

The committee-sampled variants (:mod:`repro.core.implicit_agreement`)
trade the all-broadcast O(n²) traffic for a polylog committee plus an
outcome-dissemination phase.  That is only an *optimisation* if, on the
same population and the same seed, every correct node ends up with the
decision the classical protocol would have produced.  This module runs
both side by side — the full-broadcast :class:`~repro.core.EarlyConsensus`
as the oracle, :class:`~repro.core.CommitteeConsensus` as the candidate —
each judged by :func:`~repro.analysis.campaign.judge`, and reports
per-seed verdicts.

Both runs are described as :class:`~repro.scenario.RunSpec`\\ s differing
only in ``variant`` — the scenario layer is the single construction
path, so the oracle compares *protocols*, never harness wiring.

Outcome equality is only a theorem when validity pins the outcome —
hence the ``supermajority`` input default (see
:func:`repro.scenario.registry.supermajority_inputs`).  Under a
near-even split both values are valid and the two protocols may
legitimately resolve differently; that regime is still covered by each
run's *internal* agreement verdict, just not by cross-run equality.

The benchmark harness (``benchmarks/bench_engine.py --agreement-seeds``)
and the integration tests both go through :func:`check_sampled_agreement`
so "sampled agrees with the oracle on >= 50 seeds" is one shared,
committed check rather than two drifting ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Hashable, Sequence

from repro.analysis.campaign import judge
from repro.errors import PropertyViolation
from repro.obs.bus import EventBus
from repro.scenario import (
    RunSpec,
    alternating_inputs,
    supermajority_inputs,
)

__all__ = [
    "OracleReport",
    "OracleVerdict",
    "alternating_inputs",
    "check_sampled_agreement",
    "compare_with_oracle",
    "supermajority_inputs",
]


@dataclass(slots=True)
class OracleVerdict:
    """One seed's comparison between sampled and full-broadcast runs."""

    seed: int
    oracle_outcome: Hashable
    sampled_outcome: Hashable
    sampled_rounds: int
    oracle_sends: int
    sampled_sends: int

    @property
    def agree(self) -> bool:
        return self.sampled_outcome == self.oracle_outcome


@dataclass(slots=True)
class OracleReport:
    """Aggregate of :func:`check_sampled_agreement` over many seeds."""

    population: int
    verdicts: tuple[OracleVerdict, ...]

    @property
    def seeds_checked(self) -> int:
        return len(self.verdicts)

    @property
    def disagreements(self) -> tuple[OracleVerdict, ...]:
        return tuple(v for v in self.verdicts if not v.agree)

    @property
    def all_agree(self) -> bool:
        return not self.disagreements

    def summary(self) -> dict:
        return {
            "population": self.population,
            "seeds_checked": self.seeds_checked,
            "all_agree": self.all_agree,
            "disagreements": [v.seed for v in self.disagreements],
        }


def _single_outcome(outputs: dict) -> Hashable:
    values = set(outputs.values())
    if len(values) != 1:  # pragma: no cover - agreement fails first
        raise AssertionError(f"run did not agree internally: {values!r}")
    return values.pop()


def _monitored(spec: RunSpec):
    result, verdicts = judge(spec, EventBus())
    violated = [
        f"{name}: {message}"
        for name, message in verdicts.items()
        if message is not None
    ]
    if violated:
        raise PropertyViolation(f"{spec.label()}: " + "; ".join(violated))
    return result


def compare_with_oracle(
    population: int,
    seed: int,
    *,
    inputs: str = "supermajority",
    max_rounds: int = 200,
) -> OracleVerdict:
    """Run oracle and sampled consensus on one (population, seed) pair.

    Both runs share the population size, the seed (so id assignment and
    all protocol randomness line up), and the named input assignment;
    the sampled run additionally keys its committee off the same seed.
    Each run is judged like any other spec: internal disagreement (with
    the round it was born in), a blown round budget or a crash raises
    :class:`~repro.errors.PropertyViolation`.
    """
    base = RunSpec(
        protocol="consensus",
        n=population,
        inputs=inputs,
        seed=seed,
        max_rounds=max_rounds,
    )
    oracle = _monitored(base)
    sampled = _monitored(replace(base, variant="sampled"))
    return OracleVerdict(
        seed=seed,
        oracle_outcome=_single_outcome(oracle.outputs),
        sampled_outcome=_single_outcome(sampled.outputs),
        sampled_rounds=sampled.rounds,
        oracle_sends=oracle.metrics.sends_total,
        sampled_sends=sampled.metrics.sends_total,
    )


def check_sampled_agreement(
    population: int = 120,
    seeds: Sequence[int] | int = 50,
    *,
    inputs: str = "supermajority",
    max_rounds: int = 200,
) -> OracleReport:
    """Compare sampled vs oracle outcomes over many seeds.

    ``seeds`` may be an explicit sequence or a count (``range(count)``).
    Returns an :class:`OracleReport`; callers assert ``all_agree``.
    """
    if isinstance(seeds, int):
        seeds = range(seeds)
    verdicts = tuple(
        compare_with_oracle(
            population, seed, inputs=inputs, max_rounds=max_rounds
        )
        for seed in seeds
    )
    return OracleReport(population=population, verdicts=verdicts)
