import numpy as np
import pytest

from gnwaves.errors import ValidationError
from gnwaves.multipliers import MultiplierSpec
from gnwaves.stability import (
    euler_threshold_curve,
    growth_rates,
    model_coeffs,
    threshold_curve,
    threshold_table,
)

from conftest import REF_PARAMS
from oracles import euler_coeffs


class TestEulerCoeffs:
    def test_shear_free_a(self):
        k = np.array([0.5, 2.0, 17.0])
        a, _, _ = euler_coeffs(k, REF_PARAMS, vbar=0.0)
        expected = (REF_PARAMS.gamma + REF_PARAMS.delta) * (1 + REF_PARAMS.inv_bond * k**2)
        assert np.allclose(a, expected, rtol=1e-15)

    def test_small_k_limit_b(self):
        p = REF_PARAMS
        a, b, c = euler_coeffs(1e-9, p, vbar=0.3)
        assert b == pytest.approx(1.0 / (p.gamma + p.delta), rel=1e-12)

    def test_small_k_limit_c(self):
        p = REF_PARAMS
        vbar = 0.3
        _, _, c = euler_coeffs(1e-9, p, vbar)
        expected = (p.delta**2 - p.gamma) / (p.gamma + p.delta) * p.epsilon * vbar / (p.gamma + p.delta)
        assert c == pytest.approx(expected, rel=1e-10)

    def test_limits_continuous_at_zero(self):
        # the tanh(x)/x form is regular: k = 0 evaluates to the limits
        p = REF_PARAMS
        at_zero = np.array(euler_coeffs(0.0, p, 0.4))
        nearby = np.array(euler_coeffs(1e-8, p, 0.4))
        assert np.allclose(at_zero, nearby, rtol=1e-10)

    def test_even_in_k(self):
        p = REF_PARAMS
        left = np.array(euler_coeffs(-3.7, p, 0.2))
        right = np.array(euler_coeffs(3.7, p, 0.2))
        assert np.array_equal(left, right)


class TestModelCoeffs:
    def test_rest_values_at_zero(self):
        p = REF_PARAMS
        spec = MultiplierSpec.identity()
        a, b, c = model_coeffs(0.0, p, spec, wbar=0.0)
        assert a == pytest.approx(p.gamma + p.delta, rel=1e-15)
        assert b == pytest.approx(1.0 / (p.gamma + p.delta), rel=1e-15)
        assert c == 0.0

    def test_matches_euler_at_k0_with_shear(self):
        # wbar = vbar/(gamma+delta) links the two parameterizations
        p = REF_PARAMS
        vbar = 0.45
        wbar = vbar / (p.gamma + p.delta)
        for spec in (MultiplierSpec.identity(), MultiplierSpec.improved(p.delta)):
            am, bm, cm = model_coeffs(1e-9, p, spec, wbar)
            ae, be, ce = euler_coeffs(1e-9, p, vbar)
            assert am == pytest.approx(ae, rel=1e-8)
            assert bm == pytest.approx(be, rel=1e-8)
            assert cm == pytest.approx(ce, rel=1e-8)

    def test_improved_reproduces_euler_dispersion(self):
        # the headline identity: improved-multiplier coefficients equal the
        # exact-dispersion ones at every wavenumber
        p = REF_PARAMS
        vbar = 0.5
        wbar = vbar / (p.gamma + p.delta)
        spec = MultiplierSpec.improved(p.delta)
        k = np.linspace(0.1, 100.0, 1000)
        am, bm, cm = model_coeffs(k, p, spec, wbar)
        ae, be, ce = euler_coeffs(k, p, vbar)
        assert np.max(np.abs(am - ae) / np.abs(ae)) <= 1e-12
        assert np.max(np.abs(bm - be) / np.abs(be)) <= 1e-12
        assert np.max(np.abs(cm - ce) / np.abs(ce)) <= 1e-12

    def test_identity_large_k_threshold_scaling(self):
        # classical family: the large-k threshold plateaus at the value set
        # by gamma*(1 + mu*Bo), i.e. eps^2 wbar^2 thresh ~ 3(1+gamma*delta)(gamma+delta)/(gamma (1+delta)^2 mu Bo)
        p = REF_PARAMS
        k = np.array([200.0, 800.0, 3200.0])
        curve = threshold_curve(k, p, MultiplierSpec.identity())
        plateau = (
            3 * (p.gamma + p.delta) * (1 + p.gamma * p.delta)
            / (p.gamma * (1 + p.delta) ** 2 * (p.mu / p.inv_bond))
        )
        errs = np.abs(curve - plateau) / plateau
        assert np.all(np.diff(errs) < 0)  # O(Bo/k^2) approach
        assert errs[-1] <= 1e-3

    def test_b_positive_everywhere(self):
        p = REF_PARAMS
        k = np.linspace(0, 500, 2000)
        for spec in (
            MultiplierSpec.identity(),
            MultiplierSpec.regularized(p.delta),
            MultiplierSpec.improved(p.delta),
        ):
            _, b, _ = model_coeffs(k, p, spec, wbar=0.7)
            assert np.all(b > 0)

    def test_even_in_k(self):
        p = REF_PARAMS
        spec = MultiplierSpec.regularized(p.delta)
        left = np.array(model_coeffs(-5.3, p, spec, 0.2))
        right = np.array(model_coeffs(5.3, p, spec, 0.2))
        assert np.array_equal(left, right)


class TestThresholdCurves:
    def test_improved_coincides_with_euler(self):
        p = REF_PARAMS
        k = np.linspace(0.1, 100, 500)
        imp = threshold_curve(k, p, MultiplierSpec.improved(p.delta))
        eul = euler_threshold_curve(k, p)
        assert np.allclose(imp, eul, rtol=1e-12)

    def test_gamma_zero_unconditionally_stable(self):
        from gnwaves.params import PhysParams

        p = PhysParams(gamma=0.0, epsilon=0.5, mu=0.1, delta=0.5, inv_bond=5e-4)
        curve = threshold_curve(np.linspace(0.5, 50, 100), p, MultiplierSpec.identity())
        assert np.all(np.isnan(curve))

    def test_regularized_lower_bound_without_tension(self):
        # no-surface-tension stability: thresholds stay above the uniform
        # bound (gamma+delta)^2 delta / (gamma (1+delta)^2 (delta^2+1/(3 theta2))(1+1/(3 theta1)))
        from gnwaves.params import PhysParams

        p = PhysParams(gamma=0.95, epsilon=0.5, mu=0.1, delta=0.5, inv_bond=0.0)
        theta1, theta2 = 1 / 15, 1 / (15 * p.delta**2)
        spec = MultiplierSpec.regularized(p.delta, theta1=theta1, theta2=theta2)
        k = np.linspace(0.1, 1000, 2000)
        thr = threshold_curve(k, p, spec)
        bound = (p.gamma + p.delta) ** 2 * p.delta / (
            p.gamma
            * (p.delta + 1) ** 2
            * (p.delta**2 + 1 / (3 * theta2))
            * (1 + 1 / (3 * theta1))
        )
        assert np.all(thr >= bound * (1 - 1e-12))

    def test_threshold_depends_only_on_eps2_wbar2(self):
        # scaling eps down and wbar up leaving eps^2 wbar^2 fixed moves nothing
        from gnwaves.params import PhysParams

        base = REF_PARAMS
        scaled = PhysParams(
            gamma=base.gamma, epsilon=base.epsilon / 2, mu=base.mu, delta=base.delta, inv_bond=base.inv_bond
        )
        k = np.linspace(0.5, 80, 200)
        spec = MultiplierSpec.identity()
        t1 = threshold_curve(k, base, spec)
        t2 = threshold_curve(k, scaled, spec)
        assert np.allclose(t1, t2, rtol=1e-13)

    def test_single_point_grid(self):
        curve = threshold_curve(np.array([2.0]), REF_PARAMS, MultiplierSpec.identity())
        assert curve.shape == (1,)

    def test_table_columns(self):
        cols = threshold_table(np.linspace(0.5, 50, 10), REF_PARAMS)
        assert set(cols) == {
            "k",
            "threshold_original",
            "threshold_regularized",
            "threshold_improved",
            "threshold_euler",
        }
        assert np.allclose(cols["threshold_improved"], cols["threshold_euler"], rtol=1e-12)


class TestGrowthRate:
    def test_stable_below_threshold(self):
        p = REF_PARAMS
        spec = MultiplierSpec.identity()
        k0 = 2.0
        thr = threshold_curve(np.array([k0]), p, spec)[0]
        wbar = 0.5 * np.sqrt(thr) / p.epsilon
        assert growth_rates(np.array([k0]), p, spec, wbar)[0] == 0.0

    def test_matches_closed_form_when_unstable(self):
        p = REF_PARAMS
        spec = MultiplierSpec.identity()
        k0 = 4.0
        thr = threshold_curve(np.array([k0]), p, spec)[0]
        wbar = np.sqrt(2.0 * thr) / p.epsilon  # twice the threshold in eps^2 wbar^2
        a, b, _ = model_coeffs(k0, p, spec, wbar)
        assert a < 0
        expected = abs(k0) * np.sqrt(-a * b)
        assert growth_rates(np.array([k0]), p, spec, wbar)[0] == pytest.approx(expected, rel=1e-12)

    def test_direct_eigensolve_oracle(self):
        # brute-force the 2x2 symbol eigenvalues independently
        p = REF_PARAMS
        spec = MultiplierSpec.regularized(p.delta)
        rng = np.random.default_rng(7)
        for _ in range(20):
            k0 = float(rng.uniform(0.2, 60.0))
            wbar = float(rng.uniform(0.0, 1.2))
            a, b, c = model_coeffs(k0, p, spec, wbar)
            eigs = np.linalg.eigvals(np.array([[c, b], [a, c]])) * k0
            expected = max(0.0, float(np.max(eigs.imag)))
            assert growth_rates(np.array([k0]), p, spec, wbar)[0] == pytest.approx(expected, abs=1e-13)

    def test_vectorized_wrapper(self):
        rates = growth_rates(np.array([1.0, 2.0]), REF_PARAMS, MultiplierSpec.identity(), 0.0)
        assert np.array_equal(rates, [0.0, 0.0])


@pytest.mark.parametrize("k_grid", [[0.0, 1.0], [2.0, -1.0]], ids=["zero", "negative"])
@pytest.mark.parametrize(
    "curve",
    [lambda k: threshold_curve(k, REF_PARAMS, MultiplierSpec.identity()), lambda k: euler_threshold_curve(k, REF_PARAMS)],
    ids=["model", "euler"],
)
def test_threshold_curves_refuse_non_positive_wavenumbers(curve, k_grid):
    with pytest.raises(ValidationError) as err:
        curve(np.array(k_grid))
    assert err.value.field == "k_grid"
