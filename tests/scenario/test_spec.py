"""RunSpec: validation, freezing, and the JSON round-trip."""

import dataclasses
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from benchmarks.e2e.workloads import WORKLOADS, spec_doc
from benchmarks.grid import SPECS_DIR
from repro.analysis.grid import load
from repro.errors import ConfigurationError
from repro.scenario import (
    ChurnSpec,
    PROTOCOLS,
    RunSpec,
    materialize,
    predict_population,
    resolve,
    resolve_inputs,
    run_spec,
)

from tests.replay_scenarios import SPECS as REPLAY_SPECS

VIOLATIONS = pathlib.Path(__file__).parents[1] / "data" / "violations"


def committed_specs() -> list:
    """Every spec the repository commits: grid points, replay scenarios,
    violation artifacts and e2e workloads (full and quick)."""
    specs = [
        pytest.param(spec, id=f"{path.stem}-{index}")
        for path in sorted(SPECS_DIR.glob("*.json"))
        for index, spec in enumerate(load(path).specs)
    ]
    specs += [
        pytest.param(spec, id=f"replay-{name}")
        for name, spec in REPLAY_SPECS.items()
    ]
    specs += [
        pytest.param(RunSpec.load(path), id=path.stem)
        for path in sorted(VIOLATIONS.glob("*.json"))
    ]
    specs += [
        pytest.param(
            RunSpec.from_json_dict(spec_doc(workload, 0, 0, quick=quick)),
            id=f"e2e-{name}{'-quick' if quick else ''}",
        )
        for name, workload in WORKLOADS.items()
        for quick in (False, True)
    ]
    return specs


class TestValidation:
    def test_resiliency_enforced(self):
        with pytest.raises(ConfigurationError, match="n > 3f"):
            RunSpec(protocol="consensus", n=9, f=3).validate()

    def test_force_overrides_resiliency(self):
        RunSpec(
            protocol="consensus", n=9, f=3, enforce_resiliency=False
        ).validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n": 0},
            {"n": 4, "f": -1},
            {"n": 4, "f": 4, "enforce_resiliency": False},
            {"n": 4, "max_rounds": 0},
            {"n": 4, "runtime": "teleport"},
            {"n": 10, "id_space": 5},
        ],
    )
    def test_bad_arithmetic_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RunSpec(protocol="consensus", **kwargs).validate()

    def test_unknown_protocol_rejected_at_materialization(self):
        with pytest.raises(ConfigurationError, match="unknown protocol"):
            materialize(RunSpec(protocol="teleportation", n=4))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError, match="variant"):
            materialize(RunSpec(protocol="rotor", n=4, variant="sampled"))

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"protocol": "teleportation"}, "unknown protocol"),
            ({"variant": "nope"}, "variant"),
            ({"inputs": "telepathy"}, "input assignment"),
            ({"f": 1, "adversary": "nope"}, "unknown adversary"),
            ({"id_space": 3}, "id_space"),
            ({"variant": "classic"}, "no 'classic' variant"),
            ({"protocol_params": {"payload": "m"}}, "key 'payload'"),
            (
                {
                    "protocol": "parallel",
                    "protocol_params": {"instances": 2, "awareness": "half"},
                },
                "unknown awareness 'half'",
            ),
            (
                {"protocol": "approx", "protocol_params": {"iterations": 0}},
                "iterations must be a positive integer",
            ),
        ],
    )
    def test_resolve_refuses_what_can_never_run(self, kwargs, match):
        spec = RunSpec(**{"protocol": "consensus", "n": 4, **kwargs})
        with pytest.raises(ConfigurationError, match=match):
            resolve(spec)

    @pytest.mark.parametrize("spec", committed_specs())
    def test_every_committed_spec_reads_only_its_params(self, spec):
        entry, _ = resolve(spec)
        assert set(spec.protocol_params) <= set(entry.params)

    def test_resolve_ignores_the_adversary_of_a_byzantine_free_run(self):
        entry, _ = resolve(RunSpec(protocol="consensus", n=4, adversary="x"))
        assert entry.name == "consensus"

    def test_unknown_inputs_rejected(self):
        with pytest.raises(ConfigurationError, match="input assignment"):
            resolve_inputs("telepathy")

    def test_constant_inputs(self):
        fn = resolve_inputs("constant:7")
        assert fn(123, 0) == 7 and fn(456, 3) == 7


class TestFrozen:
    def test_spec_is_immutable(self):
        spec = RunSpec(protocol="consensus", n=4)
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.max_rounds = 1

    def test_replace_builds_variants(self):
        base = RunSpec(protocol="consensus", n=7, f=2)
        sampled = dataclasses.replace(base, variant="sampled")
        assert base.variant == "full" and sampled.variant == "sampled"
        assert sampled.n == 7


class TestJsonRoundTrip:
    def spec(self):
        return RunSpec(
            protocol="total-order",
            n=9,
            f=2,
            protocol_params={"event_first": 2, "leavers": 1},
            churn=ChurnSpec("rate", {"join_rate": 0.1}),
            seed=42,
            rushing=True,
            max_rounds=60,
        )

    def test_dict_round_trip(self):
        spec = self.spec()
        assert RunSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = self.spec()
        path = spec.save(tmp_path / "spec.json")
        assert RunSpec.load(path) == spec

    def test_unknown_field_rejected(self):
        doc = self.spec().to_json_dict()
        doc["warp_factor"] = 9
        with pytest.raises(ConfigurationError, match="warp_factor"):
            RunSpec.from_json_dict(doc)

    def test_unknown_churn_field_rejected(self):
        doc = self.spec().to_json_dict()
        doc["churn"]["color"] = "red"
        with pytest.raises(ConfigurationError, match="color"):
            RunSpec.from_json_dict(doc)

    def test_missing_required_fields_rejected(self):
        with pytest.raises(ConfigurationError, match="'protocol' and 'n'"):
            RunSpec.from_json_dict({"n": 4})


#: What a well-typed spec holds in each field, by exact type (a bool is
#: not an int here): the oracle for the malformed-document tests.
WELL_TYPED = {
    "protocol": (str,),
    "n": (int,),
    "f": (int,),
    "variant": (str,),
    "inputs": (str, type(None)),
    "protocol_params": (dict,),
    "adversary": (str,),
    "adversary_params": (dict,),
    "churn": (ChurnSpec, type(None)),
    "seed": (int,),
    "rushing": (bool,),
    "max_rounds": (int,),
    "until_all_halted": (bool, type(None)),
    "enforce_resiliency": (bool,),
    "id_space": (int,),
    "runtime": (str,),
}

json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)

#: Churn documents: arbitrary values, and objects shaped like a churn
#: spec whose ``kind`` and ``params`` are arbitrary.
churn_values = json_values | st.fixed_dictionaries(
    {"kind": json_values}, optional={"params": json_values}
)


def assert_well_typed(spec):
    for name, types in WELL_TYPED.items():
        assert type(getattr(spec, name)) in types, name
    if spec.churn is not None:
        assert type(spec.churn.kind) is str
        assert type(spec.churn.params) is dict


class TestMalformedJson:
    BASE = {"protocol": "consensus", "n": 4}

    @pytest.mark.parametrize(
        "name,value",
        [
            ("rushing", "false"),
            ("n", True),
            ("seed", "x"),
            ("max_rounds", 2.5),
            ("churn", "rate"),
            ("protocol_params", [1]),
            ("until_all_halted", 0),
            ("inputs", 3),
        ],
    )
    def test_mistyped_field_is_named(self, name, value):
        with pytest.raises(ConfigurationError, match=f"field '{name}'"):
            RunSpec.from_json_dict({**self.BASE, name: value})

    @pytest.mark.parametrize(
        "churn,field",
        [({"kind": 1}, "kind"), ({"kind": "rate", "params": None}, "params")],
    )
    def test_mistyped_churn_field_is_named(self, churn, field):
        with pytest.raises(
            ConfigurationError, match=f"ChurnSpec field '{field}'"
        ):
            RunSpec.from_json_dict({**self.BASE, "churn": churn})

    def test_well_typed_values_still_load(self):
        spec = RunSpec.from_json_dict(
            {
                **self.BASE,
                "inputs": None,
                "until_all_halted": None,
                "protocol_params": {"payload": [1, {"a": None}]},
                "churn": {"kind": "rate"},
            }
        )
        assert_well_typed(spec)

    def test_file_that_is_not_json(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"protocol": "consensus", "n": ', encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not JSON"):
            RunSpec.load(path)
        path.write_text("[1, 2]", encoding="utf-8")
        with pytest.raises(ConfigurationError, match="not a RunSpec object"):
            RunSpec.load(path)

    @settings(max_examples=60, deadline=None)
    @given(
        name=st.sampled_from(sorted(WELL_TYPED)),
        value=json_values,
        churn=churn_values,
    )
    def test_any_json_value_loads_typed_or_fails_precisely(
        self, name, value, churn
    ):
        doc = {**self.BASE, name: churn if name == "churn" else value}
        try:
            spec = RunSpec.from_json_dict(doc)
        except ConfigurationError as error:
            assert name in str(error).lower()
        else:
            assert_well_typed(spec)


class TestMaterialize:
    def test_population_prediction_matches_run(self):
        spec = RunSpec(protocol="consensus", n=7, f=2, seed=3)
        correct, byz = predict_population(spec)
        result = run_spec(spec)
        assert sorted(result.correct_ids) == sorted(correct)
        assert sorted(result.byzantine_ids) == sorted(byz)

    def test_every_protocol_materializes(self):
        for protocol in PROTOCOLS:
            spec = RunSpec(protocol=protocol, n=5, f=1, max_rounds=30)
            scenario = materialize(spec)
            assert scenario.correct == 4
            assert scenario.byzantine == 1

    def test_consensus_run_agrees(self):
        result = run_spec(
            RunSpec(protocol="consensus", n=7, f=2, adversary="splitter",
                    rushing=True, seed=1)
        )
        assert len(set(result.outputs.values())) == 1

    def test_label_mentions_the_essentials(self):
        label = self.sampled_label()
        assert "consensus" in label
        assert "(sampled)" in label
        assert "n=13 f=2" in label
        assert "seed=5" in label

    @staticmethod
    def sampled_label():
        return RunSpec(
            protocol="consensus", n=13, f=2, variant="sampled", seed=5
        ).label()
