"""The naive reference inbox: plain linear scans, no caching anywhere.

The oracle the coherence suites compare every indexed query against,
and the inbox :mod:`tests.reference_engine` hands its protocols.  It
shares no code with :mod:`repro.sim.inbox` or :mod:`repro.sim.columnar`:
every query re-scans the message list, so an index bug cannot hide in
both sides of a differential.  :class:`NaiveInbox` answers the whole
public ``Inbox`` surface, and is its own ``index`` for the few index
calls the protocols' derived views make.
"""

from collections import Counter
from types import MappingProxyType


def naive_senders(messages, kind=None, payload=..., instance=...):
    return {
        m.sender for m in messages if m.matches(kind, payload, instance)
    }


def naive_tallies(messages, kind, instance=...):
    per_payload = {}
    for m in messages:
        if m.matches(kind, instance=instance):
            per_payload.setdefault(m.payload, set()).add(m.sender)
    return per_payload


def naive_best(messages, kind, instance=...):
    tallies = naive_tallies(messages, kind, instance)
    if not tallies:
        return (None, 0)
    payload, senders = max(
        tallies.items(), key=lambda item: (len(item[1]), repr(item[0]))
    )
    return payload, len(senders)


class NaiveInbox:
    """One recipient's messages, every query a scan of them."""

    def __init__(self, messages=()):
        self.messages = tuple(messages)
        self._derived = {}  # derive() contract: one build per key

    def _where(self, kind=None, payload=..., instance=...):
        return NaiveInbox(
            m for m in self.messages if m.matches(kind, payload, instance)
        )

    @property
    def index(self):
        return self

    def __iter__(self):
        return iter(self.messages)

    def __len__(self):
        return len(self.messages)

    def filter(self, kind=None, payload=..., instance=...):
        return self._where(kind, payload, instance)

    def senders(self, kind=None, payload=..., instance=...):
        return naive_senders(self.messages, kind, payload, instance)

    def distinct_senders(self, kind=None, payload=..., instance=...):
        return frozenset(self.senders(kind, payload, instance))

    sender_set = distinct_senders

    def count(self, kind=None, payload=..., instance=...):
        return len(self.senders(kind, payload, instance))

    @property
    def all_senders(self):
        return self.distinct_senders()

    def payload_sender_sets(self, kind, instance=...):
        return MappingProxyType(
            {
                payload: frozenset(senders)
                for payload, senders in naive_tallies(
                    self.messages, kind, instance
                ).items()
            }
        )

    payload_senders = payload_sender_sets

    def payload_counts(self, kind, instance=...):
        return Counter(
            {
                payload: len(senders)
                for payload, senders in naive_tallies(
                    self.messages, kind, instance
                ).items()
            }
        )

    def best_payload(self, kind, instance=...):
        return naive_best(self.messages, kind, instance)

    def from_sender(self, sender):
        return NaiveInbox(m for m in self.messages if m.sender == sender)

    def received_from(self, sender, kind=None, payload=..., instance=...):
        return sender in self.senders(kind, payload, instance)

    def has_kind(self, kind):
        return any(m.kind == kind for m in self.messages)

    def kinds(self, instance=...):
        return {m.kind for m in self._where(instance=instance)}

    def instance_tags(self):
        return tuple(
            dict.fromkeys(
                m.instance for m in self.messages if m.instance is not None
            )
        )

    def instances(self):
        return set(self.instance_tags())

    def by_instance(self):
        tags = dict.fromkeys(m.instance for m in self.messages)
        return MappingProxyType(
            {tag: self._where(instance=tag) for tag in tags}
        )

    def derive(self, key, build):
        if key not in self._derived:
            self._derived[key] = build(self)
        return self._derived[key]

    def covered_by(self, members):
        return all(m.sender in members for m in self.messages)

    def restricted_to(self, members):
        return NaiveInbox(m for m in self.messages if m.sender in members)
