"""Shared test helpers.

Most protocol tests need the same shape: build a Scenario with some
correct protocol factory and adversary, run it, check properties.  The
helpers here keep individual tests down to the interesting lines.
"""

from __future__ import annotations


import pytest

from repro.analysis.verdicts import fold
from repro.sim.rng import DEFAULT_ID_SPACE
from repro.sim.runner import Scenario, draw_population, run_scenario

# The reference engine's asserts say what differs, engine vs model.
pytest.register_assert_rewrite("tests.reference_engine")


def predict_ids(seed: int, correct: int, byzantine: int):
    """run_scenario's id assignment for a given configuration.

    Returns (correct_ids, byzantine_ids) exactly as the scenario will
    draw them, so tests can name a designated sender up front.
    """
    return draw_population(seed, correct, byzantine, DEFAULT_ID_SPACE)


def run_quick(
    correct: int,
    protocol_factory,
    byzantine: int = 0,
    strategy_factory=None,
    seed: int = 0,
    rushing: bool = False,
    max_rounds: int = 400,
    until_all_halted: bool = True,
    membership=None,
    enforce_resiliency: bool = True,
):
    """One-call scenario runner with test-friendly defaults."""
    return run_scenario(
        Scenario(
            correct=correct,
            byzantine=byzantine,
            protocol_factory=protocol_factory,
            strategy_factory=strategy_factory,
            seed=seed,
            rushing=rushing,
            max_rounds=max_rounds,
            until_all_halted=until_all_halted,
            membership=membership,
            enforce_resiliency=enforce_resiliency,
        )
    )


def assert_holds(result, *verdicts) -> None:
    """Every verdict, folded over *result*'s trace, holds."""
    folded = fold(result.trace, *verdicts)
    assert all(v is None for v in folded.values()), folded


@pytest.fixture
def seeds():
    """The default seed battery for randomized protocol tests."""
    return range(5)
