"""A deliberately broken network: random message loss.

The synchronous model's delivery guarantee is load-bearing — §9 proves
agreement is *impossible* without it when ``n`` and ``f`` are unknown.
:class:`LossyNetwork` makes that executable: it behaves like
:class:`~repro.sim.network.SyncNetwork` but drops each staged delivery
independently with probability ``drop_rate`` (seeded, reproducible).

This is an *ablation instrument*, not a feature: protocols run on it to
demonstrate how their guarantees erode as the synchrony assumption
breaks (benchmark ``bench_ablations``/synchrony).  Nothing in
``repro.core`` is expected to survive heavy loss, and that is the point.
"""

from __future__ import annotations

from repro.sim.membership import MembershipSchedule
from repro.sim.network import SyncNetwork
from repro.sim.rng import make_rng
from repro.types import NodeId


class LossyNetwork(SyncNetwork):
    """SyncNetwork with i.i.d. per-delivery message loss."""

    def __init__(
        self,
        drop_rate: float,
        seed: int | None = 0,
        rushing: bool = False,
        membership: MembershipSchedule | None = None,
    ):
        if not 0.0 <= drop_rate <= 1.0:
            raise ValueError("drop_rate must be within [0, 1]")
        super().__init__(seed=seed, rushing=rushing, membership=membership)
        self.drop_rate = drop_rate
        self._loss_rng = make_rng(seed, salt=0x10552E55)
        self.dropped = 0
        self._delivery_mask = self._loss_mask

    def _loss_mask(self, recipient: NodeId, rows: int) -> list[bool] | None:
        # Each (recipient, message) delivery faces the loss lottery
        # exactly once, at delivery time.  Draw order follows the
        # engine's deterministic recipient iteration and row order, so
        # runs stay reproducible per seed.
        drop_rate = self.drop_rate
        if drop_rate == 0.0:
            return None
        draw = self._loss_rng.random
        keep = [draw() >= drop_rate for _ in range(rows)]
        self.dropped += rows - sum(keep)
        return keep
