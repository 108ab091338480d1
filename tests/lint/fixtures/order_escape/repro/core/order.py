# Seeded R603 positives: set iteration order escaping through sinks a
# per-file syntactic ban could never connect, plus the clean commutative
# and sorted forms such a ban would have needed suppressions for.
from repro.core.sinks import stash_deep
from repro.sim.views import as_iter, sender_view


def build(inbox):
    # R603: the iterable is unordered one call away; .append() inside
    # the loop materializes that order.
    out = []
    for sender in sender_view(inbox):
        out.append(sender)
    return out


def gather(inbox):
    # R603: the loop variable reaches .append() two calls away
    # (stash_deep -> stash -> bucket.append).
    out = []
    for sender in sender_view(inbox):
        stash_deep(out, sender)
    return out


def drain(inbox):
    # R603: yield inside the loop leaks iteration order; the
    # unordered-ness crosses two calls (sender_view -> as_iter).
    for sender in as_iter(sender_view(inbox)):
        yield sender


def commutative(inbox):
    # Clean: a set fold is order-free, no suppression needed.
    seen = set()
    for sender in sender_view(inbox):
        seen.add(sender)
    return len(seen)


def sanitized(inbox):
    # Clean: the built list is sorted before anyone can observe it.
    out = []
    for sender in sender_view(inbox):
        out.append(sender)
    return sorted(out)


def sorted_loop(inbox):
    # Clean: sorting the view imposes a total order first.
    out = []
    for sender in sorted(sender_view(inbox)):
        out.append(sender)
    return out
