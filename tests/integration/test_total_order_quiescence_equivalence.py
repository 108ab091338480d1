"""Total ordering pinned to recordings taken before the quiescence skip.

``TotalOrderNode`` holds one parallel-consensus machine per round for
the whole finality window and used to step every one of them every
round.  It now leaves a *quiescent* machine alone (idle, past its two
initialization rounds, nobody spoke in its namespace) and the live ones
read their tags off one per-round namespace view.  The skip is claimed
to be exact, so it must be invisible on the wire: the digests below
were recorded on the commit *before* it (3960fcc) and cover every
output, every chain, ``Metrics.summary()`` and the sha256 of the full
``--events`` JSONL stream of the runs listed next.  The summary is
hashed without the columnar plane's work counters (how many payloads
it interned and how many ``Message`` objects it built are not
behaviour); the build count is pinned as a ceiling instead, and the
state hashes were re-recorded on ce3f1ae under this definition, with
every event-stream hash unchanged since 3960fcc.  The runs are

* a grid of ``total-order`` specs — four adversaries × three churn
  shapes × three seeds, the CI campaign-smoke population — none of the
  committed replay recordings has a membership schedule or a
  ``TotalOrderNode``, so this grid is what pins the protocol's wire
  behaviour; and
* a hand-built run whose Byzantine member goes quiet and then speaks
  into two machines that have been quiescent for many rounds (a late
  ``echo`` under the machine's own tag, a late ``input`` under one of
  its instance tags).  On top of the digest, that run is checked for
  *which* machines were stepped when.

Print fresh digests with::

    PYTHONPATH=src python -m tests.integration.test_total_order_quiescence_equivalence
"""

import hashlib
import io

import pytest

from repro.adversary.base import ByzantineStrategy
from repro.core.parallel_consensus import ParallelConsensusMachine
from repro.core.total_order import TotalOrderNode, events_from_dict
from repro.obs.bus import EventBus
from repro.scenario import ChurnSpec, RunSpec, run_spec
from repro.sim.network import SyncNetwork

#: adversary name -> rushing delivery order.
ADVERSARIES = {
    "silent": False,
    "equivocator": True,
    "noise": False,
    "adaptive": False,
}

#: churn shape -> (churn spec, extra protocol params).
CHURN = {
    "none": (None, {}),
    "rate": (
        ChurnSpec("rate", {"start": 10, "stop": 30}),
        {"joiner_events": True, "leavers": 1, "leave_base": 20},
    ),
    "bursts": (ChurnSpec("bursts", {"joins": 2, "leaves": 1}), {}),
}

SEEDS = (5, 6, 7)

GRID = [
    (adversary, churn, seed)
    for adversary in ADVERSARIES
    for churn in CHURN
    for seed in SEEDS
]


def grid_spec(adversary: str, churn: str, seed: int) -> RunSpec:
    churn_spec, extra = CHURN[churn]
    return RunSpec(
        protocol="total-order",
        n=9,
        f=2,
        adversary=adversary,
        rushing=ADVERSARIES[adversary],
        churn=churn_spec,
        protocol_params={"event_last": 26, "event_every": 4, **extra},
        seed=seed,
        max_rounds=48,
    )


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def network_digest(network: SyncNetwork, events_jsonl: str) -> dict:
    """Outputs, chains and metrics summary (one hash), the event stream
    (another), and three plain counts to read a mismatch by.

    The plane's work counters are not behaviour.  The interning
    counters are taken out of the hashed summary, and
    ``materialized_messages`` is reported instead as the plain
    ``materialized`` count, which :func:`assert_digest_matches` lets
    fall but never rise.
    """
    protocols = network.protocols()
    summary = network.metrics.summary()
    del summary["payload_intern_hits"], summary["unique_payloads"]
    materialized = summary.pop("materialized_messages")
    state = (
        sorted((node, repr(out)) for node, out in network.outputs().items()),
        sorted(
            (node, repr(protocol.chain), protocol.final_through)
            for node, protocol in protocols.items()
        ),
        sorted(summary.items()),
    )
    return {
        "rounds": network.round,
        "events": events_jsonl.count("\n"),
        "chain_max": max(len(p.chain) for p in protocols.values()),
        "materialized": materialized,
        "state_sha256": _sha(repr(state)),
        "events_sha256": _sha(events_jsonl),
    }


def assert_digest_matches(got: dict, expect: dict) -> None:
    """Every hash and count equal; ``materialized`` at most the pin."""
    got = dict(got)
    assert got.pop("materialized") <= expect["materialized"]
    assert got == {k: v for k, v in expect.items() if k != "materialized"}


def grid_digest(adversary: str, churn: str, seed: int) -> dict:
    bus = EventBus()
    stream = io.StringIO()
    sink = bus.to_jsonl(stream)
    try:
        result = run_spec(grid_spec(adversary, churn, seed), bus=bus)
    finally:
        sink.close()
    return network_digest(result.network, stream.getvalue())


# ----------------------------------------------------------------------
# The wake-up run: a member that falls silent, then speaks late.
# ----------------------------------------------------------------------
CORRECT = tuple(range(101, 108))
SPEAKER = 100

#: Global round of the late sends (delivered one round later).
ECHO_ROUND = 30
INPUT_ROUND = 33
#: The machines spoken into (machine round r starts at global r + 3).
ECHO_MACHINE = 12
INPUT_MACHINE = 10


class LateSpeaker(ByzantineStrategy):
    """Announces itself in round 1 — so every machine counts it a
    member — says nothing for thirty rounds, then sends one ``echo``
    under an old machine's own tag and, later, one ``input`` under an
    instance tag of another old machine."""

    def on_round(self, view):
        if view.round == 1:
            return [self.broadcast("present")]
        if view.round == ECHO_ROUND:
            return [
                self.broadcast(
                    "echo", CORRECT[0], instance=("to", ECHO_MACHINE)
                )
            ]
        if view.round == INPUT_ROUND:
            return [
                self.broadcast(
                    "input", "late", instance=(("to", INPUT_MACHINE), "x")
                )
            ]
        return []


def build_wakeup(bus=None) -> SyncNetwork:
    net = SyncNetwork(seed=17, bus=bus)
    for index, node in enumerate(CORRECT):
        plan = {r: f"e{index}@{r}" for r in (2, 6, 10)}
        net.add_correct(
            node, TotalOrderNode(event_source=events_from_dict(plan))
        )
    net.add_byzantine(SPEAKER, LateSpeaker())
    return net


def wakeup_digest() -> dict:
    bus = EventBus()
    stream = io.StringIO()
    sink = bus.to_jsonl(stream)
    try:
        net = build_wakeup(bus)
        net.run(70, until_all_halted=False)
    finally:
        sink.close()
    digest = network_digest(net, stream.getvalue())
    joins = net.trace.of("instance-join")
    digest["joins"] = sorted(
        (e.round, e.node, repr(e.detail["instance"])) for e in joins
    )[:2]
    digest["join_count"] = len(joins)
    # The finality delay the late instance causes: (global round,
    # final_through) of every chain advance around it.
    digest["to_chain_rounds"] = sorted(
        {
            (e.round, e.detail["final_through"])
            for e in net.trace.of("to-chain")
            if INPUT_ROUND - 2 <= e.round <= INPUT_ROUND + 8
        }
    )
    return digest


#: Recorded on 3960fcc (the parent of the quiescence skip); state hashes
#: and ``materialized`` ceilings re-recorded on ce3f1ae.
PARENT_GRID_DIGESTS = {
    ("silent", "none", 5): {
        "rounds": 48, "events": 7531, "chain_max": 42,
        "materialized": 5446,
        "state_sha256": "e0ae5a799498d457774e5ccd2688918a3d29a9be7ecb5a04ee70a00bcb7f6222",
        "events_sha256": "a0730f19af0dc8f78695100c886ab8f71525ff2c2bb036fec12c94105bbe855d",
    },
    ("silent", "none", 6): {
        "rounds": 48, "events": 7531, "chain_max": 42,
        "materialized": 5446,
        "state_sha256": "c569fbbe66bd7191566f205c8333ff8dce0a49f2ae815079c943e4c77f4fc6e1",
        "events_sha256": "5ea89aa350fdf367b9607293ec3298e1ff5864be1b91d77f22cb5007698f77f8",
    },
    ("silent", "none", 7): {
        "rounds": 48, "events": 7531, "chain_max": 42,
        "materialized": 5446,
        "state_sha256": "cb4356417ec628686735d4fb2ee9cc50c9b04deee40ba8e453b4643b1b86ed2f",
        "events_sha256": "ff2d316e09f894eafa4f6c48da5900752afcb4f74e03c2e4cbef189aaa435f8e",
    },
    ("silent", "rate", 5): {
        "rounds": 48, "events": 7602, "chain_max": 35,
        "materialized": 5519,
        "state_sha256": "861ce9c3a6d34f092a4725e83a597639bd734d70c8903c9337501f93a23ea64b",
        "events_sha256": "683f98a2ac43e24dcef2ea0e51fff8c72e05cbeab164040b7c337f65012ee0b7",
    },
    ("silent", "rate", 6): {
        "rounds": 48, "events": 5814, "chain_max": 39,
        "materialized": 4052,
        "state_sha256": "4090982b806abe666ae74f7fbb89fb617c5b5172a47eaf434c969f3cf81579b4",
        "events_sha256": "2a3202703382919139363705424e358085040f36268959cf67ecad997702859a",
    },
    ("silent", "rate", 7): {
        "rounds": 48, "events": 8236, "chain_max": 43,
        "materialized": 6040,
        "state_sha256": "55efe7dbf24263d4ef0ac9410e42273c5833e9dd8de844bbed1d59df724b53f0",
        "events_sha256": "28b449125913c3099837c97d0273070ad8d333dc8635039ba1a27ef7d4fe2e87",
    },
    ("silent", "bursts", 5): {
        "rounds": 48, "events": 10057, "chain_max": 35,
        "materialized": 7616,
        "state_sha256": "9939387a1ac4a938a65bb1b7735a36eec1c53b8f7839742b61a11eb1b1f02b72",
        "events_sha256": "25dcc0571954a93bccaae6e3d1797de8a5db8ed132611e38d1fd6eb3bec6d00d",
    },
    ("silent", "bursts", 6): {
        "rounds": 48, "events": 10057, "chain_max": 35,
        "materialized": 7616,
        "state_sha256": "aabeb2d6bfe86c24d632b6f4b99072adc742da1871bdabe77fa02ca85abd43c5",
        "events_sha256": "cc1c01e4991a045126f74cf9a58003e1332c09d39522c6522367f79c22450012",
    },
    ("silent", "bursts", 7): {
        "rounds": 48, "events": 10057, "chain_max": 35,
        "materialized": 7616,
        "state_sha256": "1c4325b5a8225d30a33562c2629db7660e39e9ecca969f252191426984c10b27",
        "events_sha256": "b190b967d4cfd8c85d9b07b5038eb7a290113ee2d5cec64cbd241a574b0770ca",
    },
    ("equivocator", "none", 5): {
        "rounds": 48, "events": 26482, "chain_max": 35,
        "materialized": 6912,
        "state_sha256": "3ceb7583ce24412c332773b3a8a9a3ef7a6ccef78cee4c0c33559677326f9744",
        "events_sha256": "f5d48cd078083405ff66bc70429fee2ed643db9c70a469caff56e4db66cdf074",
    },
    ("equivocator", "none", 6): {
        "rounds": 48, "events": 26104, "chain_max": 35,
        "materialized": 6966,
        "state_sha256": "e5a6eafa9e107463f72cb0650eefa2ed181cef3cb96da27a7411159f761fb682",
        "events_sha256": "726f4fb7efbcab1b3dda3c764c480e8be38591a1e65bd0c998b789f5c855370e",
    },
    ("equivocator", "none", 7): {
        "rounds": 48, "events": 26104, "chain_max": 35,
        "materialized": 6966,
        "state_sha256": "a66a6cd81143767f53a0752ca4f7a7fa02b56ec81e0c26a70cf6e76e91153805",
        "events_sha256": "969e1e07427d02294861582c07107e6a38e170a616978ffd8a53177cb608f789",
    },
    ("equivocator", "rate", 5): {
        "rounds": 48, "events": 18817, "chain_max": 28,
        "materialized": 6286,
        "state_sha256": "863444dc74515a8f1885d34b80455507569e1aa809232a5ca69d9637b21b687f",
        "events_sha256": "cf208c6432a463fc9fe3706f4efd7f48dc8a691317e2cbad4393c443d28aab0e",
    },
    ("equivocator", "rate", 6): {
        "rounds": 48, "events": 15022, "chain_max": 39,
        "materialized": 4826,
        "state_sha256": "f37e30e834497756a9ebed7d658de350e6cdad168f7e96922d8f71a8267cdc8b",
        "events_sha256": "8eabfaf4ed7de0c1606bcfa8f41befb198939c765e4d7e17d70e52bca0bb9f0d",
    },
    ("equivocator", "rate", 7): {
        "rounds": 48, "events": 18840, "chain_max": 28,
        "materialized": 6870,
        "state_sha256": "812800b488ed24f6d21d331e53a847fe013a2b4e52ba25908c2a5916450cbdd0",
        "events_sha256": "d97885bcee2e069c1ee1bbf7512ac31bc5931460219b2f822bb27929693c69a1",
    },
    ("equivocator", "bursts", 5): {
        "rounds": 48, "events": 36447, "chain_max": 28,
        "materialized": 9347,
        "state_sha256": "8ad773c0f9720427a71ab8c22bb9461dcc1dc069514a184f0d025a7c657e6963",
        "events_sha256": "36a14c00dbf539b2cb0c181461a0d1f91bed7ede1f6656ee9d64cb60f263c456",
    },
    ("equivocator", "bursts", 6): {
        "rounds": 48, "events": 36018, "chain_max": 28,
        "materialized": 9398,
        "state_sha256": "79378eacdd5fcc08d96edf5eb179fb685891b3a75dc9f4613816e51ce2274148",
        "events_sha256": "d121934971cdb5154d36e69743ab6138b4b83103488f53720a0825047220c264",
    },
    ("equivocator", "bursts", 7): {
        "rounds": 48, "events": 36020, "chain_max": 28,
        "materialized": 9400,
        "state_sha256": "b9f5fb9305ae6c4c3004c2dfae375450f61f122331929d8f1c0493958e7ea6ee",
        "events_sha256": "faa9526dc5c6d9beeda46719eaa6dd1da630f02e7564fa4623abb2b277a9527a",
    },
    ("noise", "none", 5): {
        "rounds": 48, "events": 7869, "chain_max": 42,
        "materialized": 5592,
        "state_sha256": "929d205fed2e1f5e8411c44416ee6649a69d827d3b488b1ac05c8f0e38c90530",
        "events_sha256": "5d0d16ed2a9f28948b08593c87da09018c22aafef781d58f3ed50909701e62ee",
    },
    ("noise", "none", 6): {
        "rounds": 48, "events": 7856, "chain_max": 42,
        "materialized": 5572,
        "state_sha256": "5cbbaf5c4aae6b35a9c08461ffa7c7293c74df812a60b20bedb6aed7c6bd0db6",
        "events_sha256": "d3067c52932069515e85f418afb5054e8ba5e33aed104ed53530020e523db6e1",
    },
    ("noise", "none", 7): {
        "rounds": 48, "events": 7872, "chain_max": 42,
        "materialized": 5595,
        "state_sha256": "2bebb08c0311248aa57d268b3e24aa71ffb57d8eeed5908e0af8c09084a2bdf1",
        "events_sha256": "50850d1aedfcb8a4103bb38804c01b1a997d4a79976b4a67369aa90fc587773f",
    },
    ("noise", "rate", 5): {
        "rounds": 48, "events": 9271, "chain_max": 28,
        "materialized": 6661,
        "state_sha256": "060179013aedb7a77be8f725e138dff10968e74df73915ad2c7bfd3ef9d9aa0b",
        "events_sha256": "41bfebbea6ae98bf8d07eb8318d7e19eeeb77eded60983e8f15bc6cf8b4a5a17",
    },
    ("noise", "rate", 6): {
        "rounds": 48, "events": 6132, "chain_max": 39,
        "materialized": 4181,
        "state_sha256": "ac1a16435d51c25e86d0c6a93d73d8a153c2b89078afab99285895834f9318e8",
        "events_sha256": "e3eec7b23f7faa1ca209d088691ad49eff81ea437d93091c9f37916c68daed45",
    },
    ("noise", "rate", 7): {
        "rounds": 48, "events": 8598, "chain_max": 43,
        "materialized": 6189,
        "state_sha256": "4c4995d40670ed9ef85bbdfb6e14fffab1ad9759a73e82079308b6610e358bfa",
        "events_sha256": "7eb96226c1c6d2528e7fef74b57344d3cd958bccd06b432b05dde4673516140a",
    },
    ("noise", "bursts", 5): {
        "rounds": 48, "events": 10433, "chain_max": 28,
        "materialized": 7757,
        "state_sha256": "20cecc05a6b59d3a2fd1501cf5a5c8a0017a4ed67411a6c07ce4d4b065446afd",
        "events_sha256": "fe561809c84ff77f632de25966d6e4e319a8f088a0e2f28a5007c3b95833ad41",
    },
    ("noise", "bursts", 6): {
        "rounds": 48, "events": 10422, "chain_max": 35,
        "materialized": 7754,
        "state_sha256": "646a19c386a0b7894abd883c1ca2a20b8f1ae64ceb915ec8d66985a23aeb8cf1",
        "events_sha256": "3ab456eda5b2844741acd7edc640b4bedf0e3b36b4cca8350e413400cfca2fdb",
    },
    ("noise", "bursts", 7): {
        "rounds": 48, "events": 10411, "chain_max": 35,
        "materialized": 7781,
        "state_sha256": "03560b010ff8732ae234744e5327f93d30cf0a0e4711e5fa8dbca035346fe910",
        "events_sha256": "b764021debc47a1fef15a2c77cbfa3a07a09c62e7f1514f7162e1d1b39c8ec9a",
    },
    ("adaptive", "none", 5): {
        "rounds": 48, "events": 9692, "chain_max": 35,
        "materialized": 5534,
        "state_sha256": "471679aff5a07fecbb3ad84a2bf0ee837ba2ad6a19102f0969c7677d3e01230d",
        "events_sha256": "fdcb6a20f1ba151b8c8a10405472588f032a677356ea46e7a9465f386009d9eb",
    },
    ("adaptive", "none", 6): {
        "rounds": 48, "events": 9692, "chain_max": 35,
        "materialized": 5534,
        "state_sha256": "f0403002c48619694c91e05519f4f38fc2c831a4f8b72762fee324aa2e8deeec",
        "events_sha256": "145f1a4a53a42005de75efcac151c8521b0709283daa4b9d5fc56ef03e50bd59",
    },
    ("adaptive", "none", 7): {
        "rounds": 48, "events": 9692, "chain_max": 35,
        "materialized": 5534,
        "state_sha256": "7642358f792cabf2119db7ce4b728162c3b3be17650022957052e386073aa781",
        "events_sha256": "c599d056ba698cd51937f5b50989142068549f22d8ee6b5e007a88de96172247",
    },
    ("adaptive", "rate", 5): {
        "rounds": 48, "events": 18085, "chain_max": 28,
        "materialized": 12957,
        "state_sha256": "290c4362b0f540e5bf9e362d0eb84b157cccf63c831e11021432012104c9a123",
        "events_sha256": "c6dd56efd4020b4bdf1f67288e4792ffed89e3d252cfb1563de2bf25509aadbe",
    },
    ("adaptive", "rate", 6): {
        "rounds": 48, "events": 14046, "chain_max": 34,
        "materialized": 9910,
        "state_sha256": "4fce8c4ab54ddf9f32d37fe96ea81971592fcf258af362306b91c6394364cb5f",
        "events_sha256": "034dd6af5ae21a74dccff377ed326261d6aedc45f22a93b658391b69577efb7f",
    },
    ("adaptive", "rate", 7): {
        "rounds": 48, "events": 10601, "chain_max": 28,
        "materialized": 6128,
        "state_sha256": "037ee5d64b2bbd3cab09b4e979b1ca5e2e03da5fe5e9da5043728b2a87f17e6e",
        "events_sha256": "14d9540fd3c54ed91aee7c98ec3bb1bc37d304f293a68f52353f80c1134f2f78",
    },
    ("adaptive", "bursts", 5): {
        "rounds": 48, "events": 12776, "chain_max": 28,
        "materialized": 7704,
        "state_sha256": "3382aa68f2dec2b4edf07042594c29fb0e80299d74ae60a4a55b7bebd4a2df8f",
        "events_sha256": "5327b24c7d374de5b0e6098c44023bad8432466ee599c3b5eab7ae109a44eaa3",
    },
    ("adaptive", "bursts", 6): {
        "rounds": 48, "events": 12776, "chain_max": 28,
        "materialized": 7704,
        "state_sha256": "89eabcf00f4fc7b4bf54550c0c4cd53791c4ba6de373b9c71ae0f936845e3df3",
        "events_sha256": "a15470b3654321e7db7ff18f230b61e720ec9306153034d5a251f7ed3d38e0a2",
    },
    ("adaptive", "bursts", 7): {
        "rounds": 48, "events": 12776, "chain_max": 28,
        "materialized": 7704,
        "state_sha256": "52c45697d1fd551e73b18768cfde1857a3e3946c1b59b6bb9162a5a844a452f8",
        "events_sha256": "8d30e01983efea0b41422cc716da4e3445b918b4920ad0fe201e00837f581f26",
    },
}
PARENT_WAKEUP_DIGESTS = {
    "late-speaker": {
        "rounds": 70, "events": 9363, "chain_max": 21,
        "materialized": 7291,
        "state_sha256": "e2cec60577c6207d2e57bce4519d4c555f703616106a1cfebc0b3c0732737058",
        "events_sha256": "14d5aeededdc5761de5db58effe04fc4ebe2ae0f1522dde88b2fae8d21e9cdfb",
        "joins": [(34, 101, "(('to', 10), 'x')"), (34, 102, "(('to', 10), 'x')")],
        "join_count": 7,
        "to_chain_rounds": [(31, 6), (32, 7), (33, 8), (34, 9), (37, 12), (38, 13), (39, 14), (40, 15), (41, 16)],
    },
}


@pytest.mark.parametrize("adversary,churn,seed", GRID)
def test_grid_matches_parent_recording(adversary, churn, seed):
    expect = PARENT_GRID_DIGESTS[(adversary, churn, seed)]
    assert_digest_matches(grid_digest(adversary, churn, seed), expect)


def test_grid_exercises_churn_chains_and_byzantine_traffic():
    # The recording is only worth pinning if it covers the shapes the
    # skip has to be invisible on.
    for churn in CHURN:
        rows = [
            PARENT_GRID_DIGESTS[(adversary, churn, seed)]
            for adversary in ADVERSARIES
            for seed in SEEDS
        ]
        assert all(row["chain_max"] > 0 for row in rows)
    silent = PARENT_GRID_DIGESTS[("silent", "none", SEEDS[0])]
    for adversary in ("equivocator", "noise", "adaptive"):
        loud = PARENT_GRID_DIGESTS[(adversary, "none", SEEDS[0])]
        assert loud["events_sha256"] != silent["events_sha256"]


class TestWakeUp:
    def test_run_matches_parent_recording(self):
        expect = PARENT_WAKEUP_DIGESTS["late-speaker"]
        # The late input really does open an instance everywhere, and
        # that instance really does hold finality back.
        assert expect["join_count"] == len(CORRECT)
        assert_digest_matches(wakeup_digest(), expect)

    def test_exactly_the_addressed_machine_is_woken(self, monkeypatch):
        # (global round, node) -> base tags of the machines stepped
        # although idle and past their own init/echo wave (which keeps
        # a young machine addressed through its fourth round): with the
        # skip in place these are exactly the machines spoken to late.
        woken: dict[tuple[int, int], list] = {}
        stepped: dict[tuple[int, int], int] = {}
        held: dict[tuple[int, int], int] = {}
        on_round = ParallelConsensusMachine.on_round
        run_machines = TotalOrderNode._run_machines

        def spying_on_round(machine, api, inbox):
            key = (api.round, api.node_id)
            stepped[key] = stepped.get(key, 0) + 1
            if machine.idle() and api.round - machine.start_round >= 4:
                woken.setdefault(key, []).append(machine.base_tag)
            return on_round(machine, api, inbox)

        def spying_run_machines(node, api, inbox):
            held[(api.round, api.node_id)] = len(node.machines)
            return run_machines(node, api, inbox)

        monkeypatch.setattr(
            ParallelConsensusMachine, "on_round", spying_on_round
        )
        monkeypatch.setattr(
            TotalOrderNode, "_run_machines", spying_run_machines
        )
        net = build_wakeup()
        net.run(70, until_all_halted=False)

        # Nothing else in 70 rounds wakes a finished machine, so both
        # addressed ones had gone unstepped for far more than 5 rounds
        # (they started at global rounds 15 and 13).
        expect = {
            (ECHO_ROUND + 1, node): [("to", ECHO_MACHINE)]
            for node in CORRECT
        }
        expect.update(
            {
                (INPUT_ROUND + 1, node): [("to", INPUT_MACHINE)]
                for node in CORRECT
            }
        )
        assert woken == expect
        # The woken echo changes nothing (one voice is below n_v/3); the
        # woken input opens an instance, which keeps that one machine —
        # and no other finished one — stepping until it terminates.
        joins = net.trace.of("instance-join")
        assert {e.round for e in joins} == {INPUT_ROUND + 1}
        assert {e.detail["instance"] for e in joins} == {
            (("to", INPUT_MACHINE), "x")
        }
        ended = {
            e.round
            for e in net.trace.of("instance-terminate")
            if e.detail["instance"] == (("to", INPUT_MACHINE), "x")
        }
        assert len(ended) == 1
        (ended_round,) = ended
        # Every node holds a full finality window of machines all along
        # and steps five of them (this round's, not yet started, and the
        # four still inside their init/echo wave), plus the addressed
        # one, plus the one the late instance keeps live — never the
        # finished rest.
        for node in CORRECT:
            assert held[(ECHO_ROUND, node)] >= 20
            assert stepped[(ECHO_ROUND, node)] == 5
            assert stepped[(ECHO_ROUND + 1, node)] == 6
            for round_no in range(INPUT_ROUND + 1, ended_round + 1):
                assert stepped[(round_no, node)] == 6
            assert stepped[(ended_round + 1, node)] == 5


def _show(name: str, rows: dict) -> None:
    print(f"{name} = {{")
    for key, row in rows.items():
        counts = ", ".join(
            f'"{k}": {row[k]!r}' for k in ("rounds", "events", "chain_max")
        )
        print(f"    {key!r}: {{\n        {counts},".replace("'", '"'))
        for field in list(row)[3:]:
            value = row[field]
            shown = f'"{value}"' if isinstance(value, str) else repr(value)
            print(f'        "{field}": {shown},')
        print("    },")
    print("}")


if __name__ == "__main__":
    _show("PARENT_GRID_DIGESTS", {key: grid_digest(*key) for key in GRID})
    _show("PARENT_WAKEUP_DIGESTS", {"late-speaker": wakeup_digest()})
