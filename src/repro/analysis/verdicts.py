"""Every verdict is a fold over the event stream.

A :class:`Verdict` folds the ``protocol`` events it names (and the
``run-end`` that closes every sim run) and answers ``None`` or the
violation.  It reads nothing else, so a live run and its recorded
``--events`` stream are judged alike: :func:`verdicts_for` builds a
spec's verdicts from its ``run-start``, and a :class:`Judgement` feeds
them from a bus (:func:`repro.analysis.campaign.judge`) or a file
(:func:`judge_stream`, ``repro judge RUN.jsonl``).

A recorded detail is its JSONL rendering
(:func:`~repro.obs.jsonl.jsonable`: tuples become lists, other non-JSON
values their ``repr``), so a verdict prints rendered values, keys dicts
with them, and falls back on them where a live value could compare
otherwise (:func:`_same`): live and recorded runs print the same
messages.
"""

from __future__ import annotations

from typing import Any, ClassVar, Iterable

from repro.errors import EventStreamError, ReproError
from repro.obs.events import (
    SCHEMA_VERSION,
    ProtocolEvent,
    RunEnded,
    RunStarted,
)
from repro.obs.jsonl import event_from_json, jsonable, numbered_docs
from repro.scenario import RunSpec, get_protocol, parallel_inputs, resolve_inputs
from repro.types import NodeId

#: Protocols whose ``decide`` values must agree exactly (approx decides
#: nearby floats, total-order/rb nothing comparable, and the rotor its
#: last accepted opinion, which a Byzantine last coordinator may split:
#: Theorem 6.3 promises the good round instead).
_DECIDING = frozenset(
    ("consensus", "binary-consensus", "parallel", "renaming")
    + ("interactive-consistency", "trb")
)

RUN_END = RunEnded.topic


def _key(value: Any) -> Any:
    """A value rendered, then usable as a key: lists become tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(map(_key, value))
    return jsonable(value)


def _same(live: Any, other: Any) -> bool:
    """Equal as given or as rendered (a recorded value is its
    rendering; a spec-derived one may not be)."""
    return live == other or jsonable(live) == jsonable(other)


def _lag_bound(registered: int) -> int:
    """Total order's finality horizon: a machine for round r' is final
    once 2(r - r') > 5|S| + 4, |S| at most every id ever registered."""
    return (5 * registered) // 2 + 4


class Verdict:
    """One property of a run, folded over the events it names."""

    name: ClassVar[str]
    #: ``protocol`` event names, and ``"run-end"``, routed to on_event.
    events: ClassVar[tuple[str, ...]]
    #: Judges the finished run: not reported for a run whose
    #: ``run-end`` carries an error (``termination`` says why).
    final: ClassVar[bool] = True
    message: str | None = None

    def verdict(self) -> str | None:
        return self.message


class _Outputs(Verdict):
    """Keeps one detail ``field`` per node: the last value it emitted."""

    field: ClassVar[str]

    def __init__(self) -> None:
        self.outputs: dict[NodeId, Any] = {}

    def on_event(self, event: ProtocolEvent) -> None:
        if self.field in event.detail:
            self.outputs[event.node] = event.detail[self.field]


class Agreement(Verdict):
    """No two ``decide`` events carry different values (the message
    names the round of the first conflict).  With *nodes*, only their
    decisions count, and each of them must decide."""

    name = "agreement"
    events = ("decide",)
    final = False

    def __init__(self, nodes: Iterable[NodeId] | None = None) -> None:
        self.nodes = None if nodes is None else set(nodes)
        self.decided: set[NodeId] = set()
        #: (node, value) of the first decision.
        self.first: tuple[NodeId, Any] | None = None

    def on_event(self, event: ProtocolEvent) -> None:
        node = event.node
        if self.nodes is not None:
            if node not in self.nodes:
                return
            self.decided.add(node)
        value = event.detail.get("value")
        if self.first is None:
            self.first = (node, value)
            return
        first, first_value = self.first
        if value != first_value and self.message is None:
            if not _same(value, first_value):
                self.message = (
                    f"agreement broken in round {event.round}: node "
                    f"{node} decided {jsonable(value)!r} but node "
                    f"{first} decided {jsonable(first_value)!r}"
                )

    def verdict(self) -> str | None:
        problems = [self.message] if self.message else []
        missing = sorted((self.nodes or set()) - self.decided)
        if missing:
            problems.append(f"nodes never decided: {missing}")
        return "; ".join(problems) or None


class Termination(Verdict):
    """The run finished: its ``run-end`` has no error.  With *bound*,
    within that many rounds (early-stopping consensus's O(f))."""

    name = "termination"
    events = (RUN_END,)
    final = False

    def __init__(self, bound: int | None = None) -> None:
        self.bound = bound

    def on_event(self, end: RunEnded) -> None:
        if end.error is not None:
            self.message = end.error
        elif self.bound is not None and end.rounds > self.bound:
            self.message = (
                f"consensus took {end.rounds} rounds; O(f) bound is "
                f"{self.bound}"
            )


class ChainPrefix(Verdict):
    """Theorem 11.1's chain prefix: no two nodes finalize different
    entries for one machine round.  The first block of entries any
    ``to-chain`` event finalizes for a round is canonical; a late
    joiner simply starts at a later round."""

    name = "chain-prefix"
    events = ("to-chain",)
    final = False

    def __init__(self) -> None:
        #: machine round -> the first finalized entry block seen for it.
        self.blocks: dict[int, list] = {}

    def on_event(self, event: ProtocolEvent) -> None:
        per_round: dict[int, list] = {}
        for entry in event.detail.get("entries") or ():
            per_round.setdefault(entry[0], []).append(entry)
        for machine_round, block in per_round.items():
            known = self.blocks.setdefault(machine_round, block)
            if known != block and self.message is None:
                self.message = (
                    f"chain-prefix broken in round {event.round}: node "
                    f"{event.node} finalized {jsonable(block)!r} for "
                    f"machine round {machine_round} but the canonical "
                    f"block is {jsonable(known)!r}"
                )


class ChainGrowth(Verdict):
    """Theorem 11.1's chain growth: a run of at least the first event
    plus the finality horizon plus 5 rounds finalized some entry."""

    name = "chain-growth"
    events = ("to-chain", RUN_END)

    def __init__(self, max_rounds: int, first_event: int) -> None:
        self.max_rounds = max_rounds
        self.first_event = first_event
        #: The longest chain any node held.
        self.longest = 0

    def on_event(self, event: Any) -> None:
        if event.topic != RUN_END:
            self.longest = max(self.longest, event.detail["length"])
            return
        horizon = self.first_event + _lag_bound(event.registered)
        if self.max_rounds >= horizon + 5 and self.longest == 0:
            self.message = (
                f"no chain grew within {self.max_rounds} rounds "
                f"(finality horizon {horizon})"
            )


class FinalityLag(Verdict):
    """No joined, running node ends with ``local_round - final_through``
    past the finality horizon.

    A joined node runs every round, so its local round at the end is
    the last one it reported (``to-join``, ``to-machine-start``,
    ``to-leave``) plus the rounds since.  One that is not leaving starts
    a machine every round; one that did not in the last round is an id
    removed and registered again, whose new node has not joined yet.
    """

    name = "finality-lag"
    events = (
        "to-join", "to-machine-start", "to-leave", "to-chain", "decide",
        RUN_END,
    )

    def __init__(self) -> None:
        #: node -> [round reported, local round then, final_through,
        #: leaving]
        self.state: dict[NodeId, list] = {}

    def on_event(self, event: Any) -> None:
        if event.topic == RUN_END:
            return self._judge(event)
        name, detail = event.event, event.detail
        state = self.state.get(event.node)
        if name == "to-join":
            self.state[event.node] = [
                event.round, detail["local_round"], detail["final_through"],
                False,
            ]
        elif state is None:
            return
        elif name == "to-machine-start":
            state[:2] = event.round, detail["machine"]
        elif name == "to-leave":
            state[:] = event.round, detail["local_round"], state[2], True
        elif name == "to-chain":
            state[2] = detail["final_through"]
        else:  # decide: the node halted
            del self.state[event.node]

    def _judge(self, end: RunEnded) -> None:
        bound = _lag_bound(end.registered)
        for node in end.alive:
            state = self.state.get(node)
            if state is None:
                continue
            reported, local_round, final_through, leaving = state
            if reported != end.rounds and not leaving:
                continue
            lag = local_round + end.rounds - reported - final_through
            if lag > bound:
                self.message = (
                    f"node {node} finality lag {lag} exceeds bound "
                    f"{bound} (|S| <= {end.registered})"
                )
                return


class HalfRange(Verdict):
    """Approximate agreement, Theorem 8.3 per iteration: every correct
    node has an ``approx-output`` inside the correct input range, and
    each iteration's correct estimates (``approx-iterate``, the last
    iteration's ``approx-output``) span at most half the previous
    iteration's range, the first half the input range (*halving* False:
    all of it)."""

    name = "half-range"
    events = ("approx-iterate", "approx-output")

    def __init__(self, correct, inputs, halving: bool = True) -> None:
        self.correct, self.inputs = list(correct), list(inputs)
        self.halving = halving
        #: node -> its estimate after each iteration, its output last.
        self.estimates: dict[NodeId, list] = {node: [] for node in correct}
        self.outputs: dict[NodeId, Any] = {}

    def on_event(self, event: ProtocolEvent) -> None:
        estimates = self.estimates.get(event.node)
        field = "output" if event.event == "approx-output" else "estimate"
        if estimates is None or field not in event.detail:
            return
        estimates.append(event.detail[field])
        if field == "output":
            self.outputs[event.node] = event.detail[field]

    def verdict(self) -> str | None:
        lo, hi = min(self.inputs), max(self.inputs)
        problems = []
        for node in self.correct:
            if node not in self.outputs:
                problems.append(f"node {node} has no approx-output")
            elif not lo <= self.outputs[node] <= hi:
                problems.append(
                    f"node {node} output {self.outputs[node]} outside "
                    f"input range [{lo}, {hi}]"
                )
        previous, what = hi - lo, "input"
        histories = [h for h in self.estimates.values() if h]
        for step, values in enumerate(zip(*histories), 1):
            spread = max(values) - min(values)
            limit = previous / 2 if self.halving else previous
            if spread > limit + 1e-12:
                problems.append(
                    f"iteration {step} range {spread} exceeds {limit} "
                    f"({what} range {previous})"
                )
                break
            previous, what = spread, f"iteration {step}"
        return "; ".join(problems) or None


class BroadcastProperties(Verdict):
    """Algorithm 1's three properties for a correct *sender* of
    *payload*, over the correct nodes' ``accept`` events: every correct
    node accepts ``(payload, sender)`` by round 3 (correctness); the
    sender's tags carry only payloads its ``rb-sent`` names
    (unforgeability); every accepted tag is accepted by every correct
    node, within one round (relay)."""

    name = "reliable-broadcast"
    events = ("accept", "rb-sent")

    def __init__(self, correct, sender: NodeId, payload: Any) -> None:
        #: node -> accepted tag -> round, for each correct node.
        self.accepted: dict[NodeId, dict] = {n: {} for n in correct}
        self.sender, self.sent = sender, []
        self.tag = (_key(payload), sender)

    def on_event(self, event: ProtocolEvent) -> None:
        if event.event == "rb-sent":
            if event.node == self.sender:
                self.sent.append(_key(event.detail.get("message")))
        elif event.node in self.accepted:
            tag = _key(event.detail.get("tag"))
            self.accepted[event.node].setdefault(tag, event.round)

    def verdict(self) -> str | None:
        problems, tag = [], self.tag
        for node, accepted in self.accepted.items():
            accepted_round = accepted.get(tag)
            if accepted_round is None:
                problems.append(
                    f"correctness: node {node} never accepted {tag}"
                )
            elif accepted_round > 3:
                problems.append(
                    f"correctness: node {node} accepted {tag} only in "
                    f"round {accepted_round}"
                )
        rounds_of: dict[Any, list[int]] = {}
        for node, accepted in self.accepted.items():
            for (payload, origin), round_no in accepted.items():
                rounds_of.setdefault((payload, origin), []).append(round_no)
                if origin == self.sender and payload not in self.sent:
                    problems.append(
                        f"unforgeability: node {node} accepted "
                        f"({payload!r}, {origin}) never sent by the sender"
                    )
        for accepted_tag, rounds in rounds_of.items():
            if len(rounds) < len(self.accepted):
                problems.append(
                    f"relay: {accepted_tag} accepted by only {len(rounds)}/"
                    f"{len(self.accepted)} correct nodes"
                )
            elif max(rounds) - min(rounds) > 1:
                problems.append(
                    f"relay: {accepted_tag} acceptance spread over rounds "
                    f"{min(rounds)}..{max(rounds)}"
                )
        return "; ".join(problems) or None


class GoodRound(Verdict):
    """Theorem 6.3: in some round every correct node accepted
    (``accept-opinion``) the opinion of one common, correct
    coordinator."""

    name = "good-round"
    events = ("accept-opinion",)

    def __init__(self, correct: Iterable[NodeId]) -> None:
        self.correct = set(correct)
        #: round -> node -> the coordinator it accepted.
        self.per_round: dict[int, dict[NodeId, NodeId]] = {}

    def on_event(self, event: ProtocolEvent) -> None:
        if event.node in self.correct:
            self.per_round.setdefault(event.round, {})[event.node] = (
                event.detail.get("coordinator")
            )

    def verdict(self) -> str | None:
        for _round, entries in sorted(self.per_round.items()):
            coordinators = set(entries.values())
            if set(entries) == self.correct and len(coordinators) == 1:
                if coordinators <= self.correct:
                    return None
        return "no round with a common, correct, universally-heard coordinator"


class Validity(_Outputs):
    """Every ``decide`` value is one of the correct *inputs*; unanimous
    inputs force that exact value."""

    name = "validity"
    events = ("decide",)
    field = "value"

    def __init__(self, inputs: Iterable[Any]) -> None:
        super().__init__()
        self.inputs = list(inputs)

    def verdict(self) -> str | None:
        decided = sorted(self.outputs.items())
        problems = [
            f"node {node} output {jsonable(output)!r} not a correct input"
            for node, output in decided
            if not any(_same(output, value) for value in self.inputs)
        ]
        only = self.inputs[0] if self.inputs else None
        if self.inputs and all(_same(v, only) for v in self.inputs[1:]):
            problems += [
                f"unanimous input {jsonable(only)!r} but node {node} "
                f"output {jsonable(output)!r}"
                for node, output in decided
                if not _same(output, only)
            ]
        return "; ".join(problems) or None


class VectorValidity(_Outputs):
    """Interactive consistency: every correct node's decided vector
    holds every correct node's input (*inputs* in *correct*'s order)."""

    name = "validity"
    events = ("decide",)
    field = "value"

    def __init__(self, correct, inputs) -> None:
        super().__init__()
        self.correct = list(correct)
        self.inputs = dict(zip(self.correct, inputs))

    def verdict(self) -> str | None:
        for nid in self.correct:
            # A vector's instance ids are node ids: usable keys as given.
            vector = dict(self.outputs.get(nid) or ())
            for source, value in self.inputs.items():
                held = vector.get(source)
                if held != value and not _same(held, value):
                    return (
                        f"node {nid}'s vector holds {jsonable(held)!r} "
                        f"for correct node {source}, whose input is "
                        f"{jsonable(value)!r}"
                    )
        return None


class ParallelOutputs(_Outputs):
    """Theorem 10.1 over decided ``(id, value)`` pair sets, given each
    correct node's ``{id: value}`` inputs: every correct node decides
    one common set (agreement); a pair input identically at every
    deciding correct node is in every output (validity); an output
    pair's value was some correct node's input for that id (no
    fabrication)."""

    name = "parallel-consensus"
    events = ("decide",)
    field = "value"

    def __init__(self, correct, inputs_by_node: dict) -> None:
        super().__init__()
        self.correct = list(correct)
        self.agreement = Agreement(self.correct)
        self.inputs = {
            node: {_key(k): jsonable(v) for k, v in pairs.items()}
            for node, pairs in inputs_by_node.items()
        }

    def on_event(self, event: ProtocolEvent) -> None:
        self.agreement.on_event(event)
        super().on_event(event)

    def verdict(self) -> str | None:
        agreement = self.agreement.verdict()
        problems = [agreement] if agreement else []
        outputs = {
            node: {_key(k): jsonable(v) for k, v in self.outputs[node]}
            for node in self.correct
            if node in self.outputs
        }
        held = [self.inputs.get(node, {}) for node in outputs]
        common = {
            k: v
            for k, v in (held[0] if held else {}).items()
            if all(other.get(k) == v for other in held)
        }
        for instance_id, value in common.items():
            for node, pairs in outputs.items():
                if pairs.get(instance_id) != value:
                    problems.append(
                        f"validity: pair ({instance_id!r}, {value!r}) "
                        f"held by all correct nodes but missing/changed "
                        f"at {node}"
                    )
        for node, pairs in outputs.items():
            for instance_id, value in pairs.items():
                if not any(
                    instance_id in inputs and inputs[instance_id] == value
                    for inputs in self.inputs.values()
                ):
                    problems.append(
                        f"fabrication: node {node} output ({instance_id!r}, "
                        f"{value!r}) never input by a correct node"
                    )
        return "; ".join(problems) or None


def _inputs(spec: RunSpec, correct: list[NodeId]) -> list:
    """The correct nodes' inputs, from the spec's input names (for
    ``parallel``, each node's ``{instance id: value}`` map)."""
    entry = get_protocol(spec.protocol)
    input_fn = resolve_inputs(spec.inputs or entry.default_inputs)
    if spec.protocol == "parallel":
        return [
            parallel_inputs(spec, input_fn, nid, index)
            for index, nid in enumerate(correct)
        ]
    return [input_fn(nid, index) for index, nid in enumerate(correct)]


def verdicts_for(run_start: RunStarted) -> list[Verdict]:
    """The verdicts a spec's protocol promises, from its run's
    ``run-start`` (which names the spec and the correct ids).

    Every run is judged on ``termination``; deciding protocols on
    ``agreement`` and total order on ``chain-prefix``, both as they
    break; and, over the finished run, total order on chain growth and
    finality lag, approx on half-range contraction per iteration,
    reliable broadcast on its three properties (the first correct node
    sends), the rotor on its good round, TRB and interactive consistency
    on validity, and parallel consensus on Theorem 10.1.  A ``classic``
    variant is judged as its protocol.
    """
    spec = RunSpec.from_json_dict(run_start.spec)
    correct = list(run_start.correct or ())
    protocol, params = spec.protocol, spec.protocol_params
    payload = params.get("payload", "payload")
    found: list[Verdict] = []
    if protocol == "total-order":
        found.append(ChainPrefix())
    elif protocol in _DECIDING:
        found.append(Agreement())
    # Early-stopping consensus terminates in O(f) rounds: two init
    # rounds plus at most 2f + 4 five-round phases.
    full = protocol == "consensus" and spec.variant == "full"
    found.append(Termination(2 + 5 * (2 * spec.f + 4) if full else None))
    if protocol == "total-order":
        first_event = int(params.get("event_first", 2))
        found += [ChainGrowth(spec.max_rounds, first_event), FinalityLag()]
    elif protocol == "approx":
        inputs = [float(v) for v in _inputs(spec, correct)]
        found.append(HalfRange(correct, inputs))
    elif protocol == "reliable-broadcast":
        sender = correct[0] if correct else None
        found.append(BroadcastProperties(correct, sender, payload))
    elif protocol == "rotor":
        found.append(GoodRound(correct))
    elif protocol == "trb":
        found.append(Validity([payload]))
    elif protocol == "interactive-consistency":
        found.append(VectorValidity(correct, _inputs(spec, correct)))
    elif protocol == "parallel":
        inputs = dict(zip(correct, _inputs(spec, correct)))
        found.append(ParallelOutputs(correct, inputs))
    return found


class Judgement:
    """One run's verdicts (*verdicts*, or :func:`verdicts_for` of its
    ``run-start``), fed from a bus or a recorded stream.  A ``protocol``
    event goes to the verdicts that named its ``event`` (any other costs
    one dict lookup), ``run-end`` to those that named it."""

    def __init__(self, verdicts: Iterable[Verdict] | None = None) -> None:
        self.folds: list[Verdict] | None = None
        self.routes: dict[str, list] = {}
        self.failed = False  # some run-end carried an error
        if verdicts is not None:
            self._install(verdicts)

    def _install(self, verdicts: Iterable[Verdict]) -> None:
        self.folds = list(verdicts)
        for verdict in self.folds:
            for name in verdict.events:
                self.routes.setdefault(name, []).append(verdict.on_event)

    def attach(self, bus) -> "Judgement":
        bus.subscribe(self.on_run_start, RunStarted.topic)
        bus.subscribe(self.on_protocol, ProtocolEvent.topic)
        bus.subscribe(self.on_run_end, RUN_END)
        return self

    def on_run_start(self, event: RunStarted) -> None:
        if self.folds is None:
            self._install(verdicts_for(event))

    def on_protocol(self, event: ProtocolEvent) -> None:
        for handler in self.routes.get(event.event, ()):
            handler(event)

    def on_run_end(self, event: RunEnded) -> None:
        self.failed = self.failed or event.error is not None
        for handler in self.routes.get(RUN_END, ()):
            handler(event)

    def __getitem__(self, name: str) -> Verdict:
        return next(v for v in self.folds or () if v.name == name)

    def verdicts(self) -> dict[str, str | None]:
        """Verdict name -> None (held) or the violation message."""
        return {
            verdict.name: verdict.verdict()
            for verdict in self.folds or ()
            if not (verdict.final and self.failed)
        }


def fold(events: Iterable, *verdicts: Verdict) -> dict[str, str | None]:
    """Fold *verdicts* over recorded ``protocol`` events (a run's
    :class:`~repro.sim.trace.Trace`, say): name -> None or message."""
    judgement = Judgement(verdicts)
    for event in events:
        judgement.on_protocol(event)
    return judgement.verdicts()


def judge_stream(source) -> dict[str, str | None]:
    """Judge a recorded ``--events`` stream (a path or lines) by the
    verdicts its spec gets live: name -> None or message.

    :class:`~repro.errors.EventStreamError` names the line of a stream
    that cannot be judged: malformed JSONL, no schema v2 header, a
    ``run-start`` without a spec (a run built by hand), or no
    ``run-end`` (a truncated stream).
    """
    judgement, number, ended = Judgement(), 0, False
    for number, doc in numbered_docs(source):
        topic = doc["topic"]
        if number == 1 and (topic, doc.get("v")) != ("schema", SCHEMA_VERSION):
            raise EventStreamError(
                number,
                f"a schema v{SCHEMA_VERSION} header must open a judged "
                "stream (v1 carries no run description)",
            )
        if topic == RunStarted.topic:
            start = event_from_json(number, doc)
            if start.spec is None:
                raise EventStreamError(
                    number,
                    "run-start has no spec: the run was not built from a "
                    "RunSpec",
                )
            try:
                judgement.on_run_start(start)
            except ReproError as exc:
                raise EventStreamError(number, f"run-start: {exc}") from None
        elif topic == ProtocolEvent.topic:
            judgement.on_protocol(event_from_json(number, doc))
        elif topic == RUN_END:
            judgement.on_run_end(event_from_json(number, doc))
            ended = True
    if judgement.folds is None:
        raise EventStreamError(number, "no run-start")
    if not ended:
        raise EventStreamError(number, "no run-end: the stream is truncated")
    return judgement.verdicts()
