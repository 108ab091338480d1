"""The benchmark's one wall-clock reader.

Every timed region in ``benchmarks/e2e`` reads time through :data:`now`,
so the wall-clock exemption below covers exactly one file.
"""

# repro-lint: disable-file=R302 -- a benchmark measures wall time; this is the only module in benchmarks/e2e that touches the time module

from __future__ import annotations

import time

#: Seconds on a monotonic clock; only differences are meaningful.  Bound
#: directly (no wrapper frame) because the tracing wrappers read it
#: twice per ``on_round`` call.
now = time.perf_counter
