# No-false-positive corpus: the idioms the real core/ tree actually
# uses, every one of which must stay silent under the program passes.


BOTTOM = object()
KIND_ABSENT = "ABSENT"
KIND_PRESENT = "PRESENT"


class ViewTracker:
    """frozenset-membership view built from received messages only."""

    def __init__(self):
        self._seen = set()

    def observe(self, sender):
        self._seen.add(sender)

    def freeze(self) -> frozenset:
        return frozenset(self._seen)

    def count(self) -> int:
        return len(self._seen)


def commutative_removal(inbox, participants):
    # total_order's membership update: set.discard in a loop over an
    # unordered view is order-free.
    for leaver in inbox.senders(KIND_ABSENT):
        participants.discard(leaver)
    for joiner in sorted(inbox.senders(KIND_PRESENT)):
        participants.add(joiner)


def vote_accumulation(index, votes):
    # parallel_consensus's pattern: setdefault(...).add is commutative.
    for sender in index.sender_set(KIND_ABSENT):
        votes.setdefault(BOTTOM, set()).add(sender)
    return votes


def best(base):
    # Tie-broken selection: the explicit key= makes the order total.
    return max(
        base.items(),
        key=lambda kv: (len(kv[1]), repr(kv[0])),
    )


def integer_quorum(count, n_v):
    # The sanctioned exact threshold forms.
    return 3 * count >= n_v and not (3 * count < n_v)


def derived_views(index):
    # Shared InboxIndex.derive views: restriction preserves sharing and
    # stays inside the inbox abstraction.
    echoes = index.derive(KIND_PRESENT)
    return echoes.distinct_count()


def tally_from_messages(inbox, n_v):
    tracker = ViewTracker()
    for message in inbox:
        tracker.observe(message.sender)
    return 3 * tracker.count() >= n_v
