import numpy as np
import pytest

from gnwaves.errors import ValidationError
from gnwaves.multipliers import (
    IMPROVED_SQ_COEFFS,
    MultiplierSpec,
    X_SERIES_SWITCH,
    check_admissibility,
    eval_multiplier,
    load_symbol_table,
)


def improved_sq_series_oracle(x, terms=6):
    """Independent truncated series for F_imp^2 = 1 - x^2/15 + 2x^4/315 - ...
    evaluated straight from the tabulated rationals."""
    x2 = np.asarray(x, dtype=float) ** 2
    acc = np.zeros_like(x2)
    for c in IMPROVED_SQ_COEFFS[:terms][::-1]:
        acc = acc * x2 + c
    return acc


def improved_sq_longdouble_oracle(x):
    """Closed form in extended precision; trustworthy for x not too small."""
    x = np.asarray(x, dtype=np.longdouble)
    return 3.0 / (x * np.tanh(x)) - 3.0 / x**2


class TestEval:
    def test_identity_is_one(self):
        spec = MultiplierSpec.identity()
        k = np.linspace(-30, 30, 101)
        for layer in (1, 2):
            assert np.all(eval_multiplier(spec, layer, k, 0.3) == 1.0)

    def test_regularized_closed_form(self):
        spec = MultiplierSpec.regularized(1.0, 1.0)
        assert eval_multiplier(spec, 1, 1.0, 1.0) == pytest.approx(1 / np.sqrt(2), rel=1e-15)

    def test_improved_at_zero(self):
        spec = MultiplierSpec.improved(0.5)
        for layer in (1, 2):
            assert float(eval_multiplier(spec, layer, 0.0, 1.0)) == pytest.approx(1.0, abs=1e-15)

    def test_improved_matches_closed_form_above_switch(self):
        spec = MultiplierSpec.improved(1.0)
        x = np.linspace(0.4, 40.0, 500)
        expected = np.sqrt(np.asarray(improved_sq_longdouble_oracle(x), dtype=float))
        got = eval_multiplier(spec, 1, x, 1.0)
        assert np.allclose(got, expected, rtol=1e-14, atol=0)

    def test_improved_series_region_against_longdouble(self):
        # the 80-bit closed form keeps ~1e-16 accuracy down to x ~ 0.05
        spec = MultiplierSpec.improved(1.0)
        x = np.linspace(0.05, X_SERIES_SWITCH, 200)
        expected = np.sqrt(improved_sq_longdouble_oracle(x)).astype(float)
        got = eval_multiplier(spec, 1, x, 1.0)
        assert np.allclose(got, expected, rtol=5e-15, atol=0)

    def test_improved_taylor_consistency(self):
        # F^2 agrees with 1 - x^2/15 to O(x^4) for x <= 1e-2
        spec = MultiplierSpec.improved(1.0)
        x = np.linspace(1e-4, 1e-2, 50)
        f_sq = eval_multiplier(spec, 1, x, 1.0) ** 2
        err = np.abs(f_sq - (1.0 - x**2 / 15.0))
        assert np.all(err <= 0.01 * x**4)  # coefficient 2/315 ~ 0.0063

    def test_regularized_matches_improved_to_fourth_order(self):
        # theta_i = 1/(15 delta_i^2) makes the squares agree through x^2
        delta = 0.5
        reg = MultiplierSpec.regularized_for_depth(delta)
        imp = MultiplierSpec.improved(delta)
        x = np.linspace(1e-3, 5e-2, 50)
        for layer in (1, 2):
            diff = np.abs(
                eval_multiplier(reg, layer, x, 1.0) ** 2 - eval_multiplier(imp, layer, x, 1.0) ** 2
            )
            # fourth-order coefficients differ by ~0.002 (layer 1) and
            # ~0.031 (layer 2, inflated by the depth scaling)
            assert np.all(diff <= 0.05 * x**4)

    def test_series_seam_continuity(self):
        spec = MultiplierSpec.improved(1.0)
        eps = 1e-12
        below = float(eval_multiplier(spec, 1, X_SERIES_SWITCH * (1 - eps), 1.0))
        above = float(eval_multiplier(spec, 1, X_SERIES_SWITCH * (1 + eps), 1.0))
        assert abs(below - above) <= 1e-13

    def test_scaled_argument(self):
        # eval gives F(sqrt(mu) * k)
        spec = MultiplierSpec.regularized(2.0, 3.0)
        mu, k = 0.25, 3.0
        expected = 1.0 / np.sqrt(1.0 + 2.0 * (np.sqrt(mu) * k) ** 2)
        assert eval_multiplier(spec, 1, k, mu) == pytest.approx(expected, rel=1e-15)

    def test_layer_depth_convention(self):
        # layer 2 of the improved family sees x/delta_2
        delta = 0.5
        imp = MultiplierSpec.improved(delta)
        x = 2.0
        f2 = float(eval_multiplier(imp, 2, x, 1.0))
        f1_at_scaled = float(eval_multiplier(imp, 1, x / delta, 1.0))
        assert f2 == pytest.approx(f1_at_scaled, rel=1e-15)


class TestFamilyProperties:
    @pytest.mark.parametrize("spec_name", ["identity", "regularized", "improved"])
    def test_bounded_and_monotone(self, spec_name):
        spec = {
            "identity": MultiplierSpec.identity(),
            "regularized": MultiplierSpec.regularized_for_depth(0.5),
            "improved": MultiplierSpec.improved(0.5),
        }[spec_name]
        k = np.linspace(0, 80, 4001)
        for layer in (1, 2):
            f = eval_multiplier(spec, layer, k, 1.0)
            assert np.all(f >= 0.0) and np.all(f <= 1.0 + 1e-15)
            assert np.all(np.diff(f) <= 1e-13)  # non-increasing on k >= 0

    def test_custom_table_requires_f0(self):
        with pytest.raises(ValidationError) as err:
            MultiplierSpec.custom([0.0, 1.0], [0.9, 0.5])
        assert str(err.value) == "F(0): table 'custom' has F(0) = 0.9, expected 1"


class TestAdmissibility:
    def test_identity(self):
        report = check_admissibility(MultiplierSpec.identity(), 1)
        assert report.subadditive_ok
        assert report.worst_violation >= -1e-12
        assert report.f0_ok and report.fprime0_ok
        assert report.sigma == 0.0
        assert report.k_constant == pytest.approx(1.0, rel=1e-12)

    def test_regularized(self):
        spec = MultiplierSpec.regularized(1 / 15, 1 / 15)
        for layer in (1, 2):
            report = check_admissibility(spec, layer)
            assert report.subadditive_ok
            assert report.sigma == 1.0
            # true constant is sqrt(15); windowed sup sits just below
            assert report.k_constant == pytest.approx(np.sqrt(15.0), rel=0.01)

    def test_improved(self):
        spec = MultiplierSpec.improved(0.5)
        for layer in (1, 2):
            report = check_admissibility(spec, layer)
            assert report.subadditive_ok
            assert report.sigma == 0.5

    def test_reference_theta_choice(self):
        spec = MultiplierSpec.regularized_for_depth(0.5)
        for layer in (1, 2):
            assert check_admissibility(spec, layer).sigma == 1.0

    def test_non_monotone_table_violates_subadditivity(self):
        # a bump at k = 2 makes |k|F(k) super-additive around it
        k_tab = np.array([0.0, 1.0, 2.0, 3.0, 50.0])
        f_tab = np.array([1.0, 0.2, 1.0, 0.2, 0.2])
        spec = MultiplierSpec.custom(k_tab, f_tab)
        report = check_admissibility(spec, 1, k_max=4.0)
        assert not report.subadditive_ok
        assert report.worst_violation < -1e-6
        assert report.sigma_approximate

    def test_flat_table_matches_identity(self):
        spec = MultiplierSpec.custom([0.0, 100.0], [1.0, 1.0])
        report = check_admissibility(spec, 1)
        assert report.subadditive_ok
        assert report.f0_ok

    def test_second_derivative_window(self):
        report = check_admissibility(MultiplierSpec.regularized(1.0, 1.0), 1, k_max=10.0, samples=2001)
        # |F''(0)| = theta = 1 is the sup for this family
        assert report.second_derivative_bound == pytest.approx(1.0, rel=0.01)

    def test_rejects_tiny_sample(self):
        with pytest.raises(ValidationError):
            check_admissibility(MultiplierSpec.identity(), 1, samples=10)


def test_load_symbol_table(tmp_path):
    path = tmp_path / "table.csv"
    k = np.linspace(0, 10, 21)
    f = 1.0 / (1.0 + k**2) ** 0.25
    np.savetxt(path, np.column_stack([k, f]), delimiter=",")
    spec = load_symbol_table(str(path))
    got = eval_multiplier(spec, 1, k, 1.0)
    assert np.allclose(got, f, rtol=0, atol=1e-15)
    # even extension
    assert np.allclose(eval_multiplier(spec, 1, -k, 1.0), f, atol=1e-15)


@pytest.mark.parametrize(
    "make,field",
    [
        pytest.param(lambda path: MultiplierSpec.regularized(0.0, 1.0), "theta", id="theta1_zero"),
        pytest.param(lambda path: MultiplierSpec.regularized(1.0, -1.0), "theta", id="theta2_negative"),
        pytest.param(lambda path: MultiplierSpec.improved(0.0), "delta", id="delta_zero"),
        pytest.param(lambda path: MultiplierSpec.custom([0.0], [1.0]), "table", id="one_row"),
        pytest.param(lambda path: MultiplierSpec.custom([0.0, 1.0], [1.0, 0.5, 0.2]), "table", id="ragged"),
        pytest.param(lambda path: MultiplierSpec.custom([0.5, 1.0], [1.0, 0.5]), "table", id="no_k0_row"),
        pytest.param(lambda path: MultiplierSpec.custom([0.0, 1.0, 1.0], [1.0, 0.5, 0.4]), "table", id="k_repeated"),
        pytest.param(lambda path: MultiplierSpec.custom([0.0, 1.0], [1.0, np.nan]), "table", id="nan_symbol"),
        pytest.param(lambda path: eval_multiplier(MultiplierSpec.identity(), 3, [1.0], 0.1), "layer", id="layer_3"),
        pytest.param(lambda path: eval_multiplier(MultiplierSpec.identity(), 1, [1.0], -0.1), "mu", id="mu_negative"),
        pytest.param(load_symbol_table, "table", id="three_columns"),
        pytest.param(lambda path: check_admissibility(MultiplierSpec.identity(), 1, k_max=0.0), "k_max", id="k_max_zero"),
    ],
)
def test_refusals_name_their_field(make, field, tmp_path):
    path = tmp_path / "three_columns.csv"
    path.write_text("0,1,2\n1,0.5,0\n")
    with pytest.raises(ValidationError) as err:
        make(str(path))
    assert err.value.field == field
