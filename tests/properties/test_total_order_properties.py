"""Property-based total ordering: random event plans, random churn."""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.adversary import SilentStrategy
from repro.analysis.verdicts import ChainPrefix, fold
from repro.core.total_order import TotalOrderNode, events_from_dict
from repro.sim.membership import MembershipSchedule
from repro.sim.network import SyncNetwork
from repro.sim.rng import make_rng, sparse_ids

slow = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@slow
@given(
    plans=st.lists(
        st.dictionaries(
            keys=st.integers(min_value=1, max_value=25),
            values=st.integers(min_value=0, max_value=99),
            max_size=6,
        ),
        min_size=4,
        max_size=7,
    ),
    seed=st.integers(min_value=0, max_value=10**6),
    byzantine=st.integers(min_value=0, max_value=2),
)
def test_random_event_plans_yield_identical_chains(plans, seed, byzantine):
    if not len(plans) + byzantine > 3 * byzantine:
        byzantine = 0
    rng = make_rng(seed)
    ids = sparse_ids(len(plans) + byzantine, rng)
    net = SyncNetwork(seed=seed)
    for index, node_id in enumerate(ids[: len(plans)]):
        net.add_correct(
            node_id,
            TotalOrderNode(event_source=events_from_dict(plans[index])),
        )
    for node_id in ids[len(plans):]:
        net.add_byzantine(node_id, SilentStrategy())
    net.run(70, until_all_halted=False)

    chains = {
        node_id: protocol.chain
        for node_id, protocol in net.protocols().items()
    }
    assert fold(net.trace, ChainPrefix()) == {"chain-prefix": None}
    # chains are identical (same membership, same horizon)
    values = list(chains.values())
    assert all(c == values[0] for c in values)
    # no fabricated events: everything in the chain was planned by
    # someone...
    reference_events = {entry[2] for entry in values[0]}
    planned = {event for plan in plans for event in plan.values()}
    assert reference_events <= planned
    # ...and every early event (submitted with ample finality headroom)
    # made it into the agreed chain
    horizon = 70 - 2  # global rounds minus bootstrap
    for plan in plans:
        for local_round, event in plan.items():
            if local_round + 5 * 10 // 2 + 12 < horizon:
                assert event in reference_events, (local_round, event)


@slow
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    join_round=st.integers(min_value=8, max_value=25),
)
def test_random_join_round_preserves_suffix_consistency(seed, join_round):
    rng = make_rng(seed)
    ids = sparse_ids(8, rng)
    veterans, joiner = ids[:7], ids[7]
    membership = MembershipSchedule()
    membership.join(join_round, joiner, lambda: TotalOrderNode(seed=False))
    net = SyncNetwork(seed=seed, membership=membership)
    for index, node_id in enumerate(veterans):
        net.add_correct(
            node_id,
            TotalOrderNode(
                event_source=events_from_dict(
                    {r: f"e{index}@{r}" for r in range(2, 45, 5)}
                )
            ),
        )
    net.run(90, until_all_halted=False)
    chains = {
        node_id: protocol.chain
        for node_id, protocol in net.protocols().items()
    }
    assert fold(net.trace, ChainPrefix()) == {"chain-prefix": None}
    assert chains[joiner], "joiner finalized nothing"
