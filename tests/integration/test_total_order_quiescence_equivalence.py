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
every event-stream hash unchanged since 3960fcc up to event schema v2.
Schema v2 re-recorded the event-stream hashes and line counts: a v2
stream differs from its v1 recording only in its header, its
``run-start`` line, the ``local_round``/``final_through`` fields of
``to-join`` and one closing ``run-end`` line.  The runs are

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
#: and ``materialized`` ceilings re-recorded on ce3f1ae; event-stream
#: hashes and counts re-recorded for event schema v2.
PARENT_GRID_DIGESTS = {
    ("silent", "none", 5): {
        "rounds": 48, "events": 7532, "chain_max": 42,
        "materialized": 5446,
        "state_sha256": "e0ae5a799498d457774e5ccd2688918a3d29a9be7ecb5a04ee70a00bcb7f6222",
        "events_sha256": "a0043afabdb0fb92d8e5311b38dda05ec7fcce6179d151515eef19d68f48f2ce",
    },
    ("silent", "none", 6): {
        "rounds": 48, "events": 7532, "chain_max": 42,
        "materialized": 5446,
        "state_sha256": "c569fbbe66bd7191566f205c8333ff8dce0a49f2ae815079c943e4c77f4fc6e1",
        "events_sha256": "b2fceec1000f5fee1d30c21e5a790de594eb225dbcb84e8c6875d6a782f93318",
    },
    ("silent", "none", 7): {
        "rounds": 48, "events": 7532, "chain_max": 42,
        "materialized": 5446,
        "state_sha256": "cb4356417ec628686735d4fb2ee9cc50c9b04deee40ba8e453b4643b1b86ed2f",
        "events_sha256": "e190e7c35d8ce56c29d7aec9ca1130441e126dd657a9f3274ccb79e106a552c6",
    },
    ("silent", "rate", 5): {
        "rounds": 48, "events": 7603, "chain_max": 35,
        "materialized": 5519,
        "state_sha256": "861ce9c3a6d34f092a4725e83a597639bd734d70c8903c9337501f93a23ea64b",
        "events_sha256": "63eac1123928fbe4d93eaab52d3663944fae5435dc7006450b4a3babd74c151d",
    },
    ("silent", "rate", 6): {
        "rounds": 48, "events": 5815, "chain_max": 39,
        "materialized": 4052,
        "state_sha256": "4090982b806abe666ae74f7fbb89fb617c5b5172a47eaf434c969f3cf81579b4",
        "events_sha256": "00c278d7be083ec79e307c6e229f422bc7f8972d19ba57824295002951eb3c66",
    },
    ("silent", "rate", 7): {
        "rounds": 48, "events": 8237, "chain_max": 43,
        "materialized": 6040,
        "state_sha256": "55efe7dbf24263d4ef0ac9410e42273c5833e9dd8de844bbed1d59df724b53f0",
        "events_sha256": "83468286f4c9dfaa9838ecbfee45bc0e2c17c01bf8d125b75248a644480e4921",
    },
    ("silent", "bursts", 5): {
        "rounds": 48, "events": 10058, "chain_max": 35,
        "materialized": 7616,
        "state_sha256": "9939387a1ac4a938a65bb1b7735a36eec1c53b8f7839742b61a11eb1b1f02b72",
        "events_sha256": "4f21f51641cce4701f5d3e7c5acd410b87eed127e79bd9a45d2757e5d0ba4670",
    },
    ("silent", "bursts", 6): {
        "rounds": 48, "events": 10058, "chain_max": 35,
        "materialized": 7616,
        "state_sha256": "aabeb2d6bfe86c24d632b6f4b99072adc742da1871bdabe77fa02ca85abd43c5",
        "events_sha256": "c14d290dfcd38cd122a18d2c61b84c4cf2fd6137c65932165c1d02f91a133958",
    },
    ("silent", "bursts", 7): {
        "rounds": 48, "events": 10058, "chain_max": 35,
        "materialized": 7616,
        "state_sha256": "1c4325b5a8225d30a33562c2629db7660e39e9ecca969f252191426984c10b27",
        "events_sha256": "8088f4f7692e99f4b3f86e59a446fc1a52853b953fcb61112172ada843f052fd",
    },
    ("equivocator", "none", 5): {
        "rounds": 48, "events": 26483, "chain_max": 35,
        "materialized": 6912,
        "state_sha256": "3ceb7583ce24412c332773b3a8a9a3ef7a6ccef78cee4c0c33559677326f9744",
        "events_sha256": "08b7a17fdaf934c5dd1179b1303f335fd265967c726a94b6b848278bfedbf69b",
    },
    ("equivocator", "none", 6): {
        "rounds": 48, "events": 26105, "chain_max": 35,
        "materialized": 6966,
        "state_sha256": "e5a6eafa9e107463f72cb0650eefa2ed181cef3cb96da27a7411159f761fb682",
        "events_sha256": "f25594df4009ef0b58823d68cfc1a8d6b5eaaa8270ad89562544c3eda8a359e6",
    },
    ("equivocator", "none", 7): {
        "rounds": 48, "events": 26105, "chain_max": 35,
        "materialized": 6966,
        "state_sha256": "a66a6cd81143767f53a0752ca4f7a7fa02b56ec81e0c26a70cf6e76e91153805",
        "events_sha256": "d4ca10ea5caec2761e999ce5dfb48a7f4e8b2289b7fe62d661e39b2128867786",
    },
    ("equivocator", "rate", 5): {
        "rounds": 48, "events": 18818, "chain_max": 28,
        "materialized": 6286,
        "state_sha256": "863444dc74515a8f1885d34b80455507569e1aa809232a5ca69d9637b21b687f",
        "events_sha256": "76654204c1d4d1f8aee04f444d109b1845e0a27c66ba89a771190582ab99aa63",
    },
    ("equivocator", "rate", 6): {
        "rounds": 48, "events": 15023, "chain_max": 39,
        "materialized": 4826,
        "state_sha256": "f37e30e834497756a9ebed7d658de350e6cdad168f7e96922d8f71a8267cdc8b",
        "events_sha256": "85d1f5cffbe48c6acd8f15933dd23b91360e2a8a5a8b28f5cf3103229742cf2a",
    },
    ("equivocator", "rate", 7): {
        "rounds": 48, "events": 18841, "chain_max": 28,
        "materialized": 6870,
        "state_sha256": "812800b488ed24f6d21d331e53a847fe013a2b4e52ba25908c2a5916450cbdd0",
        "events_sha256": "3561185257c86021aeef4d75798685406c307b07a1efde25ec065bf87ca1e5f4",
    },
    ("equivocator", "bursts", 5): {
        "rounds": 48, "events": 36448, "chain_max": 28,
        "materialized": 9347,
        "state_sha256": "8ad773c0f9720427a71ab8c22bb9461dcc1dc069514a184f0d025a7c657e6963",
        "events_sha256": "4dccdd542784967391a484d80d0931306695f02c6a6a89f4128483f8a422d536",
    },
    ("equivocator", "bursts", 6): {
        "rounds": 48, "events": 36019, "chain_max": 28,
        "materialized": 9398,
        "state_sha256": "79378eacdd5fcc08d96edf5eb179fb685891b3a75dc9f4613816e51ce2274148",
        "events_sha256": "a924bc7fbed7b1a0c4ff52a963bb219177bad795462eee02a8a6dd616930c3b6",
    },
    ("equivocator", "bursts", 7): {
        "rounds": 48, "events": 36021, "chain_max": 28,
        "materialized": 9400,
        "state_sha256": "b9f5fb9305ae6c4c3004c2dfae375450f61f122331929d8f1c0493958e7ea6ee",
        "events_sha256": "2e2f12e16114e4f7846bb3ca2785183bff8683bc462c0001d82dd6bf58807595",
    },
    ("noise", "none", 5): {
        "rounds": 48, "events": 7870, "chain_max": 42,
        "materialized": 5592,
        "state_sha256": "929d205fed2e1f5e8411c44416ee6649a69d827d3b488b1ac05c8f0e38c90530",
        "events_sha256": "bda326b820b0398d09907ff241678b5d846c853aa7469c1232d230cff036022e",
    },
    ("noise", "none", 6): {
        "rounds": 48, "events": 7857, "chain_max": 42,
        "materialized": 5572,
        "state_sha256": "5cbbaf5c4aae6b35a9c08461ffa7c7293c74df812a60b20bedb6aed7c6bd0db6",
        "events_sha256": "65285bdf5d21c4efd78f80770a379bd05e13311c8a01b5c1cbae0c1d1d53fc33",
    },
    ("noise", "none", 7): {
        "rounds": 48, "events": 7873, "chain_max": 42,
        "materialized": 5595,
        "state_sha256": "2bebb08c0311248aa57d268b3e24aa71ffb57d8eeed5908e0af8c09084a2bdf1",
        "events_sha256": "9c981d31d51d9a460410da4af424fd7862a1673652898b66c08b0f0efc8d366e",
    },
    ("noise", "rate", 5): {
        "rounds": 48, "events": 9272, "chain_max": 28,
        "materialized": 6661,
        "state_sha256": "060179013aedb7a77be8f725e138dff10968e74df73915ad2c7bfd3ef9d9aa0b",
        "events_sha256": "1b033a496cadd685f4983c7b813157c1f7dc8bba4b80116419032bbe367c977f",
    },
    ("noise", "rate", 6): {
        "rounds": 48, "events": 6133, "chain_max": 39,
        "materialized": 4181,
        "state_sha256": "ac1a16435d51c25e86d0c6a93d73d8a153c2b89078afab99285895834f9318e8",
        "events_sha256": "c2ac3263ff748f9f35e09f5939464c015185df319ab6cb996d7b9fc39f77998c",
    },
    ("noise", "rate", 7): {
        "rounds": 48, "events": 8599, "chain_max": 43,
        "materialized": 6189,
        "state_sha256": "4c4995d40670ed9ef85bbdfb6e14fffab1ad9759a73e82079308b6610e358bfa",
        "events_sha256": "33945b5e09886fcd0dc11c7c49753555abfae069df5bed8e969d65e80c807c8a",
    },
    ("noise", "bursts", 5): {
        "rounds": 48, "events": 10434, "chain_max": 28,
        "materialized": 7757,
        "state_sha256": "20cecc05a6b59d3a2fd1501cf5a5c8a0017a4ed67411a6c07ce4d4b065446afd",
        "events_sha256": "66a150c4e5c66d2e906bfb4d2a2a141996d6e5103f2935c4cd829bd028c02d89",
    },
    ("noise", "bursts", 6): {
        "rounds": 48, "events": 10423, "chain_max": 35,
        "materialized": 7754,
        "state_sha256": "646a19c386a0b7894abd883c1ca2a20b8f1ae64ceb915ec8d66985a23aeb8cf1",
        "events_sha256": "40bab84934658b405dc00bb540ec29dbdcb4bbb6a9fdd4ce7936d382a2894d19",
    },
    ("noise", "bursts", 7): {
        "rounds": 48, "events": 10412, "chain_max": 35,
        "materialized": 7781,
        "state_sha256": "03560b010ff8732ae234744e5327f93d30cf0a0e4711e5fa8dbca035346fe910",
        "events_sha256": "bb8151b54a0235f8932ded7d01121d4623741adebb3cc8de45dc0e1c998b8225",
    },
    ("adaptive", "none", 5): {
        "rounds": 48, "events": 9693, "chain_max": 35,
        "materialized": 5534,
        "state_sha256": "471679aff5a07fecbb3ad84a2bf0ee837ba2ad6a19102f0969c7677d3e01230d",
        "events_sha256": "e43c4ed326bab6c2a3dc675e24197f80abe925d12e17fe04048e347496ae80cf",
    },
    ("adaptive", "none", 6): {
        "rounds": 48, "events": 9693, "chain_max": 35,
        "materialized": 5534,
        "state_sha256": "f0403002c48619694c91e05519f4f38fc2c831a4f8b72762fee324aa2e8deeec",
        "events_sha256": "17526b9900022282118fa37e8658442877971d11a2fd27dbb7ef50fbf9c5f87b",
    },
    ("adaptive", "none", 7): {
        "rounds": 48, "events": 9693, "chain_max": 35,
        "materialized": 5534,
        "state_sha256": "7642358f792cabf2119db7ce4b728162c3b3be17650022957052e386073aa781",
        "events_sha256": "7991747ae814f31287ea709b625eb7ba43b2b4bdb070522041bd32a7d0850b79",
    },
    ("adaptive", "rate", 5): {
        "rounds": 48, "events": 18086, "chain_max": 28,
        "materialized": 12957,
        "state_sha256": "290c4362b0f540e5bf9e362d0eb84b157cccf63c831e11021432012104c9a123",
        "events_sha256": "3adc5beefa763b83fec398a680f1e658f49625c49aaa1ba9c2eade44615125c6",
    },
    ("adaptive", "rate", 6): {
        "rounds": 48, "events": 14047, "chain_max": 34,
        "materialized": 9910,
        "state_sha256": "4fce8c4ab54ddf9f32d37fe96ea81971592fcf258af362306b91c6394364cb5f",
        "events_sha256": "c6bb1472faffa217361b34591b18f75622a6e60a5dbf6203aac785dbb4880411",
    },
    ("adaptive", "rate", 7): {
        "rounds": 48, "events": 10602, "chain_max": 28,
        "materialized": 6128,
        "state_sha256": "037ee5d64b2bbd3cab09b4e979b1ca5e2e03da5fe5e9da5043728b2a87f17e6e",
        "events_sha256": "565af75a1b4ed35419a2f33dcd4edf390f992176e9218f1d974ade1c81ba8df2",
    },
    ("adaptive", "bursts", 5): {
        "rounds": 48, "events": 12777, "chain_max": 28,
        "materialized": 7704,
        "state_sha256": "3382aa68f2dec2b4edf07042594c29fb0e80299d74ae60a4a55b7bebd4a2df8f",
        "events_sha256": "39fa4277c2a02762d97009034689ac7956107c4f048ad5406bf68f39826218bb",
    },
    ("adaptive", "bursts", 6): {
        "rounds": 48, "events": 12777, "chain_max": 28,
        "materialized": 7704,
        "state_sha256": "89eabcf00f4fc7b4bf54550c0c4cd53791c4ba6de373b9c71ae0f936845e3df3",
        "events_sha256": "8985df9607de0ac39fe9888557b5c1d48d3c4e6a99e25f49613b8da437cebbac",
    },
    ("adaptive", "bursts", 7): {
        "rounds": 48, "events": 12777, "chain_max": 28,
        "materialized": 7704,
        "state_sha256": "52c45697d1fd551e73b18768cfde1857a3e3946c1b59b6bb9162a5a844a452f8",
        "events_sha256": "3fa1524704da044ad372d81710fea76d5685eba6528154fc6112280a5482f6a0",
    },
}
PARENT_WAKEUP_DIGESTS = {
    "late-speaker": {
        "rounds": 70, "events": 9364, "chain_max": 21,
        "materialized": 7291,
        "state_sha256": "e2cec60577c6207d2e57bce4519d4c555f703616106a1cfebc0b3c0732737058",
        "events_sha256": "9db3bd7caa3ea0158d4fac8108890d4849085749ffc249486c74dd70f3706afc",
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
