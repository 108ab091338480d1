"""The event bus: one structured stream, many consumers.

An :class:`EventBus` carries the typed events of
:mod:`repro.obs.events` from whichever runtime is executing a run to
whatever wants to observe it — :class:`~repro.sim.metrics.Metrics`
counters, the :class:`~repro.sim.trace.Trace` log, stream verdicts
(:mod:`repro.analysis.verdicts`), JSONL files.

Design constraints, in order:

1. **Zero cost when detached.**  Emission sites ask for a per-topic
   :meth:`sink` once per round; when nothing subscribed to a topic the
   sink is ``None`` and the producer skips *constructing* the event
   entirely — a detached bus costs the hot path one ``None`` check per
   emission site.  :attr:`version` lets producers cache sinks across
   rounds and rebuild only when subscriptions actually changed.
2. **Dumb dispatch.**  A subscriber is any callable taking one event;
   dispatch is a plain loop, synchronous, in subscription order.  A
   subscriber that raises aborts the emitting round.
3. **Runtime-agnostic.**  The bus knows nothing about rounds, nodes, or
   networks; it routes on ``event.topic`` alone.

Thread-safety: subscription changes are not synchronized; attach all
subscribers before starting threaded runtimes (the net runtime's
runners publish concurrently — CPython's GIL makes the dispatch loop
itself safe for append-style subscribers).
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

Subscriber = Callable[[Any], None]

_EMPTY: tuple = ()


class EventBus:
    """Topic-routed dispatch of structured events to subscribers."""

    __slots__ = ("_topic_subs", "_all_subs", "_version")

    def __init__(self) -> None:
        self._topic_subs: dict[str, tuple[Subscriber, ...]] = {}
        self._all_subs: tuple[Subscriber, ...] = ()
        self._version = 0

    @property
    def version(self) -> int:
        """Bumped on every (un)subscription — cache key for sinks."""
        return self._version

    # ------------------------------------------------------------------
    # Subscription management
    # ------------------------------------------------------------------
    def subscribe(
        self,
        handler: Subscriber,
        topics: str | Iterable[str] | None = None,
    ) -> Subscriber:
        """Register *handler* for the given topic(s) (None = every
        event).  Returns the handler, for unsubscribe bookkeeping."""
        if topics is None:
            self._all_subs = self._all_subs + (handler,)
        else:
            if isinstance(topics, str):
                topics = (topics,)
            for topic in topics:
                existing = self._topic_subs.get(topic, _EMPTY)
                self._topic_subs[topic] = existing + (handler,)
        self._version += 1
        return handler

    def unsubscribe(self, handler: Subscriber) -> bool:
        """Remove *handler* everywhere it was subscribed; True if it
        was found (bound methods compare by equality, so passing
        ``obj.method`` again matches the original subscription)."""
        removed = False
        if handler in self._all_subs:
            self._all_subs = tuple(
                h for h in self._all_subs if h != handler
            )
            removed = True
        for topic in list(self._topic_subs):
            subs = self._topic_subs[topic]
            if handler in subs:
                remaining = tuple(h for h in subs if h != handler)
                if remaining:
                    self._topic_subs[topic] = remaining
                else:
                    del self._topic_subs[topic]
                removed = True
        if removed:
            self._version += 1
        return removed

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def wants(self, topic: str) -> bool:
        """True when at least one subscriber would see *topic*."""
        return bool(self._all_subs) or topic in self._topic_subs

    def sink(self, topic: str) -> Subscriber | None:
        """A dispatch callable for *topic*, or None when nobody
        listens.

        The sink snapshots the current subscriber set — producers cache
        it and rebuild when :attr:`version` changes.  A ``None`` sink is
        the zero-cost contract: skip building the event at all.
        """
        subs = self._topic_subs.get(topic, _EMPTY) + self._all_subs
        if not subs:
            return None
        if len(subs) == 1:
            return subs[0]

        def dispatch(event: Any, _subs=subs) -> None:
            for handler in _subs:
                handler(event)

        return dispatch

    def publish(self, event: Any) -> None:
        """Dispatch *event* to its topic's subscribers (and catch-alls)."""
        for handler in self._topic_subs.get(event.topic, _EMPTY):
            handler(event)
        for handler in self._all_subs:
            handler(event)

    # ------------------------------------------------------------------
    # Convenience sinks
    # ------------------------------------------------------------------
    def to_jsonl(self, target) -> "JsonlSink":
        """Attach a schema-versioned JSONL sink writing every event to
        *target* (a path or a text file object).  Returns the sink;
        close it (or use it as a context manager) to detach and flush.
        """
        from repro.obs.jsonl import JsonlSink

        return JsonlSink(self, target)


__all__ = ["EventBus", "Subscriber"]
