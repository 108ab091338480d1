"""Deterministic committee sampling over the id-only contact set.

The sampled variants (:mod:`repro.core.implicit_agreement`) let a small
committee run full consensus while everyone else merely *learns* the
outcome, cutting the all-broadcast O(n²) round traffic down to
O(n + c²) for a committee of size ``c = Θ(polylog n)`` (Kumar & Molla,
"Sublinear Message Bounds of Authenticated Implicit Byzantine
Agreement"; Augustine et al., "Scalable and Secure Computation Among
Strangers").

The sampler must satisfy three constraints at once:

* **Deterministic and local** — every node computes the committee from
  the same frozen membership view and the same seed, with no extra
  communication.  We hash-rank the ids with a fixed 64-bit mixer keyed
  through :func:`repro.sim.rng.make_rng` (never the process-salted
  builtin ``hash``) and take the ``c`` lowest ranks, so any two nodes
  that agree on the view agree on the committee.
* **Adversary-oblivious** — ids are assigned before the seed is drawn,
  so the rank of each id is an independent uniform draw as far as the
  adversary is concerned; the committee is a uniform ``c``-subset.
* **Safe only with slack below n/3** — a Chernoff bound puts the
  chance that a committee of size ``c`` reaches a 1/3 Byzantine
  fraction at ``exp(-2δ²c)`` for the slack ``δ = 1/3 − f/n``.
  ``n > 3f`` lets δ go to 0, and :func:`committee_size` is not sized
  from δ: at ``f = ⌊(n−1)/3⌋`` the exact tail ``P(3·f_C ≥ c)`` is ≈ 0.5
  from n=200 to 10 000, and a captured committee breaks agreement or
  termination (``tests/data/violations/sampled-capture-*.json``).
"""

from __future__ import annotations

from typing import Iterable

from repro.sim.rng import make_rng
from repro.types import NodeId

#: Salt for the sampler's rng stream, disjoint from every other
#: ``make_rng`` salt in the tree ("C0117EE" ≈ COMMITTEE).
COMMITTEE_SALT = 0xC0117EE

#: Smallest committee we ever sample; below this the Chernoff tail is
#: meaningless and the committee is most of the population anyway.
MIN_COMMITTEE = 16

_MASK64 = (1 << 64) - 1


def ceil_log2(count: int) -> int:
    """Smallest k with ``2**k >= count`` (0 for counts <= 1)."""
    if count <= 1:
        return 0
    return (count - 1).bit_length()


def committee_size(
    n_v: int, *, factor: int = 2, floor: int = MIN_COMMITTEE
) -> int:
    """Committee size for an observed view of ``n_v``: ``factor·⌈log₂n_v⌉²``.

    Θ(log² n) keeps the committee polylogarithmic, but it is not sized
    from the slack δ the Chernoff tail ``exp(-2δ²c)`` needs (see the
    module docstring: near ``f = ⌊(n−1)/3⌋`` half the committees are
    captured).
    Capped at ``n_v`` — tiny views degenerate to a full committee,
    which is exactly the classical protocol.
    """
    if n_v <= 0:
        return 0
    return min(n_v, max(floor, factor * ceil_log2(n_v) ** 2))


def _mix(key: int, value: int) -> int:
    """splitmix64-style 64-bit finalizer over ``key ^ value``.

    Pure integer arithmetic: deterministic across processes and
    platforms, unlike the builtin ``hash`` (process-salted, lint R3).
    """
    z = (key ^ (value & _MASK64)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def rank_key(seed: int | None) -> int:
    """The 64-bit hash key all ranks for ``seed`` are mixed with."""
    return make_rng(seed, salt=COMMITTEE_SALT).getrandbits(64)


def sample_committee(
    view: Iterable[NodeId],
    *,
    seed: int | None = 0,
    size: int | None = None,
) -> frozenset[NodeId]:
    """The committee for the observed ``view`` under ``seed``: lowest
    hash ranks.

    Every node holding the same membership view and seed computes the
    identical committee with no communication.  Ranking (rather than
    per-id coin flips) fixes the committee size exactly, and perturbing
    the view by one id changes the committee by at most one member.
    Ties on the mixed rank (vanishingly rare) break by id so the result
    is a pure function of (view, seed).
    """
    pool = sorted(set(view))
    c = committee_size(len(pool)) if size is None else min(size, len(pool))
    if c <= 0:
        return frozenset()
    if c >= len(pool):
        return frozenset(pool)
    key = rank_key(seed)
    ranked = sorted(pool, key=lambda nid: (_mix(key, nid), nid))
    return frozenset(ranked[:c])
