"""repro.obs — the one event plane shared by all three runtimes.

Producers (:mod:`repro.sim.network`, :mod:`repro.net.runner`,
:mod:`repro.asyncsim.engine`) publish the typed events of
:mod:`repro.obs.events` onto an :class:`EventBus`; consumers —
:class:`~repro.sim.metrics.Metrics`, :class:`~repro.sim.trace.Trace`,
the stream verdicts, timelines, and JSONL files —
subscribe.  See docs/observability.md.
"""

from repro.obs.bus import EventBus, Subscriber
from repro.obs.events import (
    EVENT_TYPES,
    SCHEMA_VERSION,
    EnginePhase,
    FramesDropped,
    InboxDelivered,
    MessageSent,
    ProtocolEvent,
    RoundEnded,
    RoundStarted,
    RunEnded,
    RunStarted,
)
from repro.obs.jsonl import (
    JsonlSink,
    event_to_json,
    load_protocol_events,
    read_jsonl,
)

__all__ = [
    "EventBus",
    "Subscriber",
    "EVENT_TYPES",
    "SCHEMA_VERSION",
    "EnginePhase",
    "FramesDropped",
    "InboxDelivered",
    "MessageSent",
    "ProtocolEvent",
    "RoundEnded",
    "RoundStarted",
    "RunEnded",
    "RunStarted",
    "JsonlSink",
    "event_to_json",
    "load_protocol_events",
    "read_jsonl",
]
