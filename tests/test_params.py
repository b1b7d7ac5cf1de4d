from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gnwaves.errors import ValidationError
from gnwaves.params import (
    ExperimentConfig,
    PhysParams,
    parse_config,
    serialize_config,
    with_overrides,
)


class TestPhysParams:
    def test_defaults_are_reference_experiment(self):
        p = PhysParams()
        assert (p.gamma, p.delta, p.epsilon, p.mu, p.inv_bond) == (0.95, 0.5, 0.5, 0.1, 5e-4)

    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"gamma": 1.0}, "gamma"),
            ({"gamma": -0.1}, "gamma"),
            ({"epsilon": -1.0}, "epsilon"),
            ({"mu": -0.5}, "mu"),
            ({"delta": 0.0}, "delta"),
            ({"delta": 1e-200}, "delta"),
            ({"delta": 1e200}, "delta"),
            ({"inv_bond": -1e-3}, "inv_bond"),
            ({"mu": 1e150}, "mu"),
            ({"inv_bond": 1e150}, "inv_bond"),
        ],
    )
    def test_range_violations_name_the_field(self, kwargs, field):
        with pytest.raises(ValidationError) as err:
            PhysParams(**kwargs)
        assert err.value.field == field

    @pytest.mark.parametrize("field", ["mu", "inv_bond", "delta"])
    def test_range_bounds_are_accepted(self, field):
        assert getattr(PhysParams(**{field: 1e100}), field) == 1e100


class TestParseConfig:
    def test_empty_is_full_default(self):
        assert parse_config("") == ExperimentConfig()

    def test_partial_override(self):
        config = parse_config("gamma = 0.95\ndelta = 0.5")
        assert config.params.gamma == 0.95
        assert config.params.delta == 0.5
        assert config.params.mu == 0.1  # untouched default

    def test_comments_and_blanks(self):
        config = parse_config("# a comment\n\nmu = 0.2\n")
        assert config.params.mu == 0.2

    def test_malformed_line_reports_number(self):
        with pytest.raises(ValidationError) as err:
            parse_config("gamma = 0.9\nnot a pair\n")
        assert err.value.field == "line 2"
        assert str(err.value) == "line 2: expected 'key = value', got 'not a pair'"

    def test_unknown_key_is_hard_error(self):
        with pytest.raises(ValidationError) as err:
            parse_config("gamm = 0.9")
        assert err.value.field == "line 1"
        assert "unknown key" in str(err.value)

    def test_duplicate_key(self):
        with pytest.raises(ValidationError) as err:
            parse_config("mu = 0.1\nmu = 0.2")
        assert err.value.field == "line 2"

    def test_validation_error_names_field(self):
        with pytest.raises(ValidationError) as err:
            parse_config("delta = -1")
        assert err.value.field == "delta"

    def test_bad_value_reports_line(self):
        with pytest.raises(ValidationError) as err:
            parse_config("mu = banana")
        assert err.value.field == "line 1"
        assert "line 1" in str(err.value)

    @pytest.mark.parametrize("text", ["dealias = maybe", "grid_n = 64.0"])
    def test_unparseable_values_are_refused_by_line(self, text):
        key, _, raw = text.partition(" = ")
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert err.value.field == "line 1"
        assert str(err.value) == f"line 1: cannot parse value {raw!r} for key {key!r}"

    @pytest.mark.parametrize(
        "key,raw",
        [
            ("cg_tol", "inf"),
            ("ic_amplitude", "nan"),
            ("ic_width", "inf"),
            ("domain_half_length", "inf"),
            ("t_end", "inf"),
            ("theta1", "inf"),
            ("snapshot_times", "0.5,inf"),
        ],
    )
    def test_non_finite_values_are_rejected(self, key, raw):
        with pytest.raises(ValidationError) as err:
            parse_config(f"{key} = {raw}")
        assert err.value.field == key
        assert str(err.value) == f"{key}: must be finite"

    def test_unknown_multiplier_message(self):
        with pytest.raises(ValidationError) as err:
            parse_config("multiplier = bogus")
        assert str(err.value) == "multiplier: must be identity|regularized|improved|custom:<path>, got 'bogus'"

    @pytest.mark.parametrize(
        "text,message",
        [
            # never reached: the state at t_end would not be recorded either
            pytest.param("t_end = 0.2\nsnapshot_times = 5", "times must not exceed t_end = 0.2", id="past_t_end"),
            pytest.param("snapshot_times = 0.5,2.0000001", "times must not exceed t_end = 2.0", id="just_past_t_end"),
        ],
    )
    def test_snapshot_times_that_cannot_be_recorded(self, text, message):
        with pytest.raises(ValidationError) as err:
            parse_config(text)
        assert str(err.value) == f"snapshot_times: {message}"

    def test_lists_and_bools(self):
        config = parse_config("snapshot_times = 0.5,1.0\ndealias = on")
        assert config.snapshot_times == (0.5, 1.0)
        assert config.dealias is True


# the empty snapshot_times line ends in a space, hence the explicit \n
DEFAULT_CONFIG_TXT = """\
gamma = 0.95
epsilon = 0.5
mu = 0.1
delta = 0.5
inv_bond = 0.0005
multiplier = regularized
theta1 = auto
theta2 = auto
grid_n = 512
domain_half_length = 4.0
t_end = 2.0
rel_tol = 1e-10
abs_tol = 1e-12
ic_amplitude = -1.0
ic_width = 4.0
snapshot_times = \n\
dealias = true
cg_tol = 1e-13
cg_max_iter = 200
"""


class TestSerializeConfig:
    def test_default_text_is_pinned(self):
        # key order and value formatting are the run-record format
        assert serialize_config(ExperimentConfig()) == DEFAULT_CONFIG_TXT

    @pytest.mark.parametrize(
        "text,line",
        [
            ("theta1 = 0.25", "theta1 = 0.25"),
            ("theta2 = none", "theta2 = auto"),
            ("snapshot_times = 0.5, 1", "snapshot_times = 0.5,1.0"),
            ("dealias = off", "dealias = false"),
            ("dealias = on", "dealias = true"),
            ("inv_bond = 0", "inv_bond = 0.0"),
        ],
    )
    def test_value_formatting(self, text, line):
        key = text.split(" = ")[0]
        rows = serialize_config(parse_config(text)).splitlines()
        assert [row for row in rows if row.startswith(key + " = ")] == [line]


class TestRoundTrip:
    def test_default_round_trip(self):
        config = ExperimentConfig()
        assert parse_config(serialize_config(config)) == config

    def test_round_trip_non_default_ints(self):
        config = with_overrides(ExperimentConfig(), grid_n=64, cg_max_iter=57)
        assert parse_config(serialize_config(config)) == config

    def test_round_trip_numpy_scalars(self):
        # each key is written by its field's type, not by its value's repr
        config = with_overrides(
            ExperimentConfig(),
            mu=np.float64(0.05),
            t_end=np.float64(2.0),
            theta1=np.float64(12.5),
            snapshot_times=tuple(np.linspace(0.5, 1.0, 2)),
            grid_n=np.int64(64),
            dealias=np.True_,
        )
        rows = serialize_config(config).splitlines()
        for line in ("mu = 0.05", "t_end = 2.0", "theta1 = 12.5", "snapshot_times = 0.5,1.0", "grid_n = 64",
                     "dealias = true"):
            assert line in rows
        assert parse_config(serialize_config(config)) == config

    @given(
        gamma=st.floats(0, 0.99),
        epsilon=st.floats(0, 2),
        mu=st.floats(0, 1),
        delta=st.floats(0.1, 3),
        inv_bond=st.floats(0, 0.1),
        t_end=st.floats(0.01, 10),
        n_exp=st.integers(3, 10),
        dealias=st.booleans(),
        fractions=st.lists(st.floats(0, 1), max_size=3),
    )
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random_configs(self, gamma, epsilon, mu, delta, inv_bond, t_end, n_exp, dealias, fractions):
        # valid snapshot times: at most t_end
        times = [f * t_end for f in fractions]
        config = ExperimentConfig(
            params=PhysParams(gamma=gamma, epsilon=epsilon, mu=mu, delta=delta, inv_bond=inv_bond),
            grid_n=2**n_exp,
            t_end=t_end,
            dealias=dealias,
            snapshot_times=tuple(times),
        )
        assert parse_config(serialize_config(config)) == config

    @given(path=st.text())
    @settings(max_examples=200, deadline=None)
    def test_every_accepted_multiplier_round_trips(self, path):
        # config.txt reads a value back stripped, one line per key: a
        # multiplier it would change is refused, every other one comes back
        try:
            config = ExperimentConfig(multiplier=f"custom:{path}")
        except ValidationError as exc:
            assert exc.field == "multiplier"
            return
        assert parse_config(serialize_config(config)) == config


@pytest.mark.parametrize("key", ["grid_n", "cg_max_iter"])
@pytest.mark.parametrize("value", [1.5, True])
def test_int_fields_reject_float_and_bool(key, value):
    # accepted, either would be written to config.txt as a value that
    # parse_config refuses
    with pytest.raises(ValidationError) as err:
        with_overrides(ExperimentConfig(), **{key: value})
    assert str(err.value) == f"{key}: must be an int, got {value!r}"


# one value of the wrong kind for each field type
WRONG_KIND = {float: True, int: 1.5, bool: "false", str: None, float | None: True, tuple: [0.5]}
CONFIG_FIELDS = fields(PhysParams) + tuple(f for f in fields(ExperimentConfig) if f.name != "params")


@pytest.mark.parametrize("field", CONFIG_FIELDS, ids=[f.name for f in CONFIG_FIELDS])
def test_every_key_rejects_a_value_of_the_wrong_kind(field):
    # accepted, each would run one way and be recorded as another, or be
    # written to config.txt as a value that parse_config refuses
    with pytest.raises(ValidationError) as err:
        with_overrides(ExperimentConfig(), **{field.name: WRONG_KIND[field.type]})
    assert err.value.field == field.name


@pytest.mark.parametrize("value", [None, {"gamma": 0.9}, (0.95, 0.5, 0.1, 0.5, 5e-4)], ids=["None", "dict", "tuple"])
def test_params_field_must_be_physparams(value):
    # accepted, serialize_config would fail on it with a bare AttributeError
    with pytest.raises(ValidationError) as err:
        ExperimentConfig(params=value)
    assert str(err.value) == f"params: must be a PhysParams, got {value!r}"


@pytest.mark.parametrize("key,value", [("write_spectra", False), ("diag_stride", 2), ("k_band", 12.5)])
def test_retired_keys_are_not_fields(key, value):
    # every record has a row per accepted step and the half-Nyquist band, and no spectra
    with pytest.raises(TypeError):
        with_overrides(ExperimentConfig(), **{key: value})


def test_with_overrides_nested_params():
    config = ExperimentConfig()
    changed = with_overrides(config, mu=0.0, multiplier="identity")
    assert changed.params.mu == 0.0
    assert changed.multiplier == "identity"
    assert changed.params.gamma == config.params.gamma


@pytest.mark.parametrize(
    "changes,field",
    [
        ({"grid_n": 12}, "grid_n"),
        ({"grid_n": 4}, "grid_n"),
        ({"domain_half_length": 0.0}, "domain_half_length"),
        ({"t_end": -1.0}, "t_end"),
        ({"rel_tol": 0.0}, "rel_tol"),
        ({"abs_tol": -1e-10}, "abs_tol"),
        ({"theta1": 0.0}, "theta1"),
        ({"theta2": -0.1}, "theta2"),
        ({"ic_width": 0.0}, "ic_width"),
        ({"cg_tol": 0.0}, "cg_tol"),
        ({"snapshot_times": (0.5, -0.1)}, "snapshot_times"),
        ({"cg_max_iter": 0}, "cg_max_iter"),
        # config.txt would read these back stripped or split
        ({"multiplier": "custom:sp.csv "}, "multiplier"),
        ({"multiplier": "custom:sp.csv\n"}, "multiplier"),
        ({"multiplier": "custom:a\nb.csv"}, "multiplier"),
        ({"multiplier": "custom:a\rb.csv"}, "multiplier"),
        ({"multiplier": "custom:a\x0cb.csv"}, "multiplier"),
        ({"multiplier": "custom:a\u2028b.csv"}, "multiplier"),
    ],
)
def test_experiment_config_refuses_values_out_of_range(changes, field):
    # each value has its field's type, so the range checks of
    # ExperimentConfig itself refuse it
    with pytest.raises(ValidationError) as err:
        ExperimentConfig(**changes)
    assert err.value.field == field
