"""Machine-speed gate: discount what the host's speed did to a sample.

The sandbox this benchmark runs in is a small VM whose cores drift
between speed states: mostly within +-10 %, and every so often, for
seconds to minutes, a state ~1.5x slower (neighbour load; CPU time
inflates with wall time, so no clock choice avoids it).  Run-to-run
medians then differ by more than any bound a regression check could
use.  The gate brackets every timed sample with a fixed pure-Python
:func:`probe` and does two things with the pair of readings:

* a sample is *clean* when both probes are within :data:`TOLERANCE` of
  the fastest probe this process has seen; statistics are taken over
  clean samples, and the loops that collect them keep going (up to
  their deadline) until they have enough.  This removes the slow state,
  in which the program under test and the probe do not slow alike;
* a clean sample's seconds are multiplied by its :meth:`Gate.scales`
  factor, ``REFERENCE_S / mean probe``, i.e. converted to seconds at a
  reference machine speed.  Within the mild states op time tracks the
  probe closely; measured over twelve fresh processes per workload, the
  spread of their medians roughly halved (4.5 % -> 2.5 %).

The probe knows nothing about the program under test, so a change to
``src/`` cannot move it; it only answers "how fast was the machine just
now".
"""

from __future__ import annotations

from typing import Any

from benchmarks.e2e.clock import now

#: A probe this much slower than the fastest one seen marks its
#: neighbouring samples as taken on a slowed machine.  The two states
#: measured ~1.6x apart on the probe; probe jitter within a state is
#: a few percent.
TOLERANCE = 1.2

#: The probe's reading on this box in its usual fast state.  It only
#: fixes the unit of a scaled time (at this speed a scaled second is a
#: wall second); two commits measured on one machine share it, so its
#: value cancels in every comparison.
REFERENCE_S = 0.0011


def _kernel() -> float:
    t0 = now()
    tally: dict[int, int] = {}
    seen: set[int] = set()
    for i in range(7000):
        key = (i * 2654435761) & 0xFFFF
        tally[key] = tally.get(key, 0) + 1
        seen.add(key & 1023)
    return now() - t0


def probe() -> float:
    """Seconds a fixed interpreter-bound kernel takes (~1.3 ms): the
    fastest of three back-to-back runs, so a single preemption does not
    read as a slow machine while a sustained slowdown still does."""
    return min(_kernel(), _kernel(), _kernel())


class Gate:
    """Collects samples, each with the probe readings around it."""

    def __init__(self) -> None:
        self._last = self._floor = probe()
        self.samples: list[Any] = []
        self._probes: list[tuple[float, float]] = []

    def add(self, sample: Any) -> None:
        after = probe()
        self.samples.append(sample)
        self._probes.append((self._last, after))
        self._last = after
        self._floor = min(self._floor, after)

    def flags(self) -> list[bool]:
        """Per sample, in order: was it taken at full speed."""
        limit = self._floor * TOLERANCE
        return [max(pair) <= limit for pair in self._probes]

    def scales(self) -> list[float]:
        """Per sample, in order: wall seconds -> reference-speed seconds."""
        return [2 * REFERENCE_S / sum(pair) for pair in self._probes]

    def clean_count(self) -> int:
        return sum(self.flags())
