#!/usr/bin/env python3
"""Sensor fusion: approximate agreement in a wireless sensor network.

The paper's motivating scenario: "a wireless sensor network that
experiences a changing number of faulty or disconnected nodes over time".
Ten temperature sensors measure the same room (true value 21.5°C, with
per-sensor noise); three compromised sensors report wild values, and —
worse — report *different* wild values to different peers.  Nobody knows
the network size or how many sensors are compromised.

Iterated approximate agreement (Algorithm 4) drives all correct sensors
to within any ε of each other, always inside the honest measurement
range, with the range halving every round.

Run:  python examples/sensor_fusion.py
"""

import random

from repro.adversary import ValueInjectorStrategy
from repro.core.approx_agreement import ApproximateAgreement
from repro.sim.runner import Scenario, run_scenario

TRUE_TEMPERATURE = 21.5
SENSOR_NOISE = 0.8
ITERATIONS = 8


def main() -> None:
    rng = random.Random(7)
    readings = [
        round(TRUE_TEMPERATURE + rng.uniform(-SENSOR_NOISE, SENSOR_NOISE), 2)
        for _ in range(10)
    ]
    print(f"honest readings : {readings}")
    print(f"honest range    : [{min(readings)}, {max(readings)}]")

    scenario = Scenario(
        correct=10,
        byzantine=3,
        protocol_factory=lambda node_id, index: ApproximateAgreement(
            readings[index], iterations=ITERATIONS
        ),
        # Compromised sensors report -40°C to half the network and +85°C
        # to the other half, trying to drag the fused value around.
        strategy_factory=lambda node_id, index: ValueInjectorStrategy(
            low=-40.0, high=85.0
        ),
        rushing=True,
        seed=99,
        max_rounds=ITERATIONS + 4,
    )
    result = run_scenario(scenario)

    fused = sorted(result.outputs.values())
    print(f"\nfused values    : {[round(v, 4) for v in fused]}")
    print(f"fused spread    : {fused[-1] - fused[0]:.6f}°C")

    assert min(readings) <= fused[0] and fused[-1] <= max(readings), (
        "fused values escaped the honest range!"
    )
    expected = (max(readings) - min(readings)) / 2 ** (ITERATIONS - 1)
    assert fused[-1] - fused[0] <= expected + 1e-9
    print(
        f"\nAll correct sensors agree to within {expected:.6f}°C, inside "
        "the honest range,\ndespite 3 compromised sensors reporting ±wild "
        "values — and no sensor knew n or f."
    )

    # Show the per-round halving from one sensor's perspective.
    node = result.protocols[result.correct_ids[0]]
    print("\nconvergence at one sensor:")
    for step, estimate in enumerate(node.estimates, start=1):
        print(f"  round {step}: {estimate:.5f}")


if __name__ == "__main__":
    main()
