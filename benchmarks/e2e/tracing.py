"""Per-layer attribution, measured from outside the program.

The traced pass times the repo's layers at calls into their public
entry points only — nothing under ``src/`` is edited:

* ``run_spec`` / ``materialize`` / ``build_membership`` are wrapped
  where ``evaluate_spec`` and ``run_spec`` look them up;
* ``evaluate_spec``'s ``EventBus`` is replaced by :class:`TimingBus`,
  which times every subscriber it registers and gives the tracer the
  ``run-start`` / ``round-start`` / ``round-end`` edges;
* ``on_round`` is wrapped on the protocol and strategy classes the
  workload's spec materializes to — the first and last call of a round
  are the phase edges the bus does not publish;
* public ``Inbox`` / ``InboxIndex`` / ``ColumnarIndex`` methods are
  wrapped behind one re-entrancy guard, so a query that calls further
  queries is counted once.

Phase edges inside a round (the engine runs correct nodes, then
Byzantine actors, then stages)::

    round-start | deliver | first on_round ... last correct on_round
                | adversary ... last strategy on_round | stage | round-end

so ``deliver + correct + adversary + stage`` partitions ``round_s`` by
construction; the closure check in the driver guards the edges
themselves (a missed ``on_round`` class shows as a phase of zero).
"""

from __future__ import annotations

import contextlib
from typing import Any, Callable, Iterator

import repro.analysis.campaign as campaign
import repro.scenario.build as build
from benchmarks.e2e.clock import now
from repro.obs.bus import EventBus
from repro.scenario import RunSpec
from repro.sim.columnar import ColumnarIndex
from repro.sim.inbox import Inbox, InboxIndex
from repro.sim.message import BROADCAST

#: Subscriber owners whose bus time is booked to a named bucket.
_SUBSCRIBER_BUCKETS = (
    ("repro.sim.metrics", "metrics_s"),
    ("repro.sim.trace", "trace_s"),
    ("repro.analysis", "monitor_s"),
)

#: Every accumulator; times in seconds, the rest exact counts.
_FIELDS = (
    "materialize_s",
    "churn_s",
    "churn_events",
    "run_spec_s",
    "populate_s",
    "rounds",
    "round_s",
    "deliver_s",
    "correct_s",
    "adversary_s",
    "stage_s",
    "core_on_round_s",
    "core_on_round_calls",
    "core_query_s",
    "adversary_on_round_s",
    "adversary_on_round_calls",
    "adversary_sends",
    "adversary_direct",
    "query_s",
    "queries",
    "subscriber_s",
    "subscriber_calls",
    "metrics_s",
    "trace_s",
    "monitor_s",
    "sends",
    "staged",
    "deliveries",
    "materialized_messages",
    "intern_hits",
    "unique_payloads",
    "fallback_runs",
    "decisions",
    "protocol_events",
)


class Tracer:
    """Sums layer times and counts over the ops run while installed."""

    def __init__(self) -> None:
        self.reset()
        # Edge state of the run / round in flight.
        self._run_entry = 0.0
        self._materialize_mark = 0.0
        self._round_start = 0.0
        self._first_call: float | None = None
        self._correct_end: float | None = None
        self._adversary_end: float | None = None
        self._depth = 0
        self._in_core = False
        self._query_depth = 0

    def reset(self) -> None:
        """Zero every accumulator (called after the warm-up op)."""
        for name in _FIELDS:
            setattr(self, name, 0)

    def totals(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in _FIELDS}

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def installed(self, doc: dict[str, Any]) -> Iterator[None]:
        """Patch the public entry points for specs shaped like *doc*."""
        patches: list[tuple[Any, str, Any]] = []

        def patch(owner: Any, name: str, value: Any) -> None:
            patches.append((owner, name, owner.__dict__[name]))
            setattr(owner, name, value)

        try:
            patch(campaign, "run_spec", self._wrap_run_spec(build.run_spec))
            patch(campaign, "EventBus", lambda: TimingBus(self))
            patch(
                build,
                "materialize",
                self._wrap_timed(build.materialize, "materialize_s"),
            )
            patch(
                build,
                "build_membership",
                self._wrap_membership(build.build_membership),
            )
            for cls, byzantine in _behaviour_classes(doc):
                wrap = (
                    self._wrap_strategy if byzantine else self._wrap_protocol
                )
                patch(cls, "on_round", wrap(cls.__dict__["on_round"]))
            for cls in (Inbox, InboxIndex, ColumnarIndex):
                for name, member in list(vars(cls).items()):
                    if name.startswith("_") or not _is_function(member):
                        continue
                    patch(cls, name, self._wrap_query(member))
            yield
        finally:
            for owner, name, original in reversed(patches):
                setattr(owner, name, original)

    # ------------------------------------------------------------------
    # scenario / sim entry points
    # ------------------------------------------------------------------
    def _wrap_timed(self, func: Callable, field: str) -> Callable:
        def timed(*args, **kwargs):
            t0 = now()
            try:
                return func(*args, **kwargs)
            finally:
                setattr(self, field, getattr(self, field) + now() - t0)

        return timed

    def _wrap_membership(self, func: Callable) -> Callable:
        timed = self._wrap_timed(func, "churn_s")

        def build_membership(*args, **kwargs):
            schedule = timed(*args, **kwargs)
            self.churn_events += len(schedule.joins) + len(schedule.leaves)
            return schedule

        return build_membership

    def _wrap_run_spec(self, func: Callable) -> Callable:
        def run_spec(spec, *, bus=None):
            t0 = self._run_entry = now()
            self._materialize_mark = self.materialize_s
            try:
                result = func(spec, bus=bus)
            finally:
                self.run_spec_s += now() - t0
            metrics = result.metrics
            self.sends += metrics.sends_total
            self.staged += metrics.staged_total
            self.deliveries += metrics.deliveries_total
            self.materialized_messages += metrics.materialized_messages
            self.intern_hits += metrics.payload_intern_hits
            self.unique_payloads += metrics.unique_payloads
            self.fallback_runs += metrics.columnar_active is False
            self.decisions += metrics.decisions
            self.protocol_events += len(result.trace)
            return result

        return run_spec

    # ------------------------------------------------------------------
    # Bus edges (subscribed untimed by TimingBus)
    # ------------------------------------------------------------------
    def on_run_start(self, event) -> None:
        materialize = self.materialize_s - self._materialize_mark
        self.populate_s += now() - self._run_entry - materialize

    def on_round_start(self, event) -> None:
        self._round_start = now()
        self._first_call = None
        self._correct_end = None
        self._adversary_end = None

    def on_round_end(self, event) -> None:
        end = now()
        start = self._round_start
        first = self._first_call
        if first is None:
            first = end
        correct_end = self._correct_end
        adversary_end = self._adversary_end
        last = first
        if correct_end is not None:
            self.correct_s += correct_end - first
            last = correct_end
        if adversary_end is not None:
            self.adversary_s += adversary_end - last
            last = adversary_end
        self.rounds += 1
        self.round_s += end - start
        self.deliver_s += first - start
        self.stage_s += end - last

    # ------------------------------------------------------------------
    # on_round wrappers
    # ------------------------------------------------------------------
    def _wrap_protocol(self, on_round: Callable) -> Callable:
        tracer = self

        def traced_on_round(protocol, api, inbox):
            if tracer._depth:
                # super() chains and protocols wrapped by a strategy.
                return on_round(protocol, api, inbox)
            tracer._depth = 1
            tracer._in_core = True
            t0 = now()
            if tracer._first_call is None:
                tracer._first_call = t0
            try:
                return on_round(protocol, api, inbox)
            finally:
                t1 = now()
                tracer._depth = 0
                tracer._in_core = False
                tracer._correct_end = t1
                tracer.core_on_round_s += t1 - t0
                tracer.core_on_round_calls += 1

        return traced_on_round

    def _wrap_strategy(self, on_round: Callable) -> Callable:
        tracer = self

        def traced_on_round(strategy, view):
            if tracer._depth:
                return on_round(strategy, view)
            tracer._depth = 1
            t0 = now()
            if tracer._first_call is None:
                tracer._first_call = t0
            try:
                # A strategy may return a generator; drain it here so
                # its work is booked to the adversary, not to staging.
                sends = list(on_round(strategy, view))
            finally:
                t1 = now()
                tracer._depth = 0
                tracer._adversary_end = t1
                tracer.adversary_on_round_s += t1 - t0
                tracer.adversary_on_round_calls += 1
            tracer.adversary_sends += len(sends)
            tracer.adversary_direct += sum(
                1 for send in sends if send.dest is not BROADCAST
            )
            return sends

        return traced_on_round

    # ------------------------------------------------------------------
    # Inbox queries
    # ------------------------------------------------------------------
    def _wrap_query(self, method: Callable) -> Callable:
        tracer = self

        def traced_query(*args, **kwargs):
            if tracer._query_depth:
                return method(*args, **kwargs)
            tracer._query_depth = 1
            t0 = now()
            try:
                return method(*args, **kwargs)
            finally:
                elapsed = now() - t0
                tracer._query_depth = 0
                tracer.query_s += elapsed
                tracer.queries += 1
                if tracer._in_core:
                    tracer.core_query_s += elapsed

        return traced_query

    # ------------------------------------------------------------------
    # Subscribers
    # ------------------------------------------------------------------
    def wrap_subscriber(self, handler: Callable) -> Callable:
        module = type(getattr(handler, "__self__", None)).__module__
        bucket = next(
            (
                field
                for prefix, field in _SUBSCRIBER_BUCKETS
                if module.startswith(prefix)
            ),
            None,
        )
        tracer = self

        def timed_subscriber(event):
            t0 = now()
            try:
                handler(event)
            finally:
                elapsed = now() - t0
                tracer.subscriber_s += elapsed
                tracer.subscriber_calls += 1
                if bucket is not None:
                    setattr(tracer, bucket, getattr(tracer, bucket) + elapsed)

        return timed_subscriber


class TimingBus(EventBus):
    """An EventBus that times every subscriber it registers.

    The tracer's own edge handlers are subscribed first and untimed, so
    ``round-start`` stamps before ``Metrics`` sees the round and
    ``round-end`` stamps before any other end-of-round subscriber.
    """

    __slots__ = ("_tracer", "_timed")

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self._tracer = tracer
        self._timed: dict[Callable, Callable] = {}
        super().subscribe(tracer.on_run_start, "run-start")
        super().subscribe(tracer.on_round_start, "round-start")
        super().subscribe(tracer.on_round_end, "round-end")

    def subscribe(self, handler, topics=None):
        timed = self._timed.get(handler)
        if timed is None:
            timed = self._timed[handler] = self._tracer.wrap_subscriber(
                handler
            )
        super().subscribe(timed, topics)
        return handler

    def unsubscribe(self, handler) -> bool:
        return super().unsubscribe(self._timed.pop(handler, handler))


def _is_function(member: Any) -> bool:
    return type(member).__name__ == "function"


def _behaviour_classes(doc: dict[str, Any]) -> list[tuple[type, bool]]:
    """The classes whose ``on_round`` a spec shaped like *doc* runs.

    Builds one throwaway instance per factory the materialized spec
    carries (founding protocol, strategy, each scheduled joiner) and
    returns, for each, the class in its MRO that defines ``on_round`` —
    patching the definer once covers every subclass that inherits it.
    """
    scenario = build.materialize(RunSpec.from_json_dict(doc))
    instances: list[tuple[Any, bool]] = [
        (scenario.protocol_factory(0, 0), False)
    ]
    if scenario.strategy_factory is not None:
        instances.append((scenario.strategy_factory(0, 0), True))
    if scenario.membership is not None:
        instances.extend(
            (join.factory(), join.byzantine)
            for join in scenario.membership.joins
        )
    found: dict[type, bool] = {}
    for instance, byzantine in instances:
        definer = next(
            cls for cls in type(instance).__mro__ if "on_round" in vars(cls)
        )
        found.setdefault(definer, byzantine)
    return list(found.items())
