"""Tests for the exception hierarchy."""

import pytest

from repro.errors import (
    ConfigurationError,
    EventStreamError,
    PropertyViolation,
    ProtocolViolation,
    ReproError,
    RoundLimitExceeded,
    SimulationError,
    WireError,
)


class TestHierarchy:
    @pytest.mark.parametrize(
        "exc",
        [
            ConfigurationError,
            EventStreamError,
            PropertyViolation,
            ProtocolViolation,
            SimulationError,
            WireError,
        ],
    )
    def test_all_derive_from_repro_error(self, exc):
        assert issubclass(exc, ReproError)

    def test_event_stream_error_is_a_value_error(self):
        assert issubclass(EventStreamError, ValueError)

    def test_wire_error_is_a_value_error_naming_the_problem(self):
        assert issubclass(WireError, ValueError)
        err = WireError("missing 'kind'")
        assert err.problem == "missing 'kind'"
        assert str(err) == "wire frame: missing 'kind'"

    def test_round_limit_is_simulation_error(self):
        assert issubclass(RoundLimitExceeded, SimulationError)

    def test_round_limit_carries_details(self):
        err = RoundLimitExceeded(50, [3, 1, 2])
        assert err.limit == 50
        assert err.still_running == [3, 1, 2]
        assert "50" in str(err)
        assert "[1, 2, 3]" in str(err)

    def test_catch_all_with_base(self):
        with pytest.raises(ReproError):
            raise ConfigurationError("nope")
