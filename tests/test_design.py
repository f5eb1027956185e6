"""Inverse control design: coupling law, phase rule, matching residuals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcavity import (
    CavityParams,
    InvalidRegularizationError,
    TemporalSignal,
    TimeGrid,
    UnsupportedInputError,
    cumulative_integral,
    design_control,
    hermite_gaussian,
    impedance_residual,
    inner_product,
    quadrature_weights,
    simulate,
    unconverted_energy,
)

Q_DEFAULT = 1e-7


def designed_coupling(target, params):
    """K(t) = f_s |Omega|^2 of the control designed for ``target``."""
    control = design_control(target, params.f_s, Q_DEFAULT)
    return params.f_s * np.abs(control.values) ** 2


class TestDesignCoupling:
    def test_finite_nonnegative_with_saturating_denominator(
        self, bench_params, grid10
    ):
        target = hermite_gaussian(0, 3.0, grid10)
        k = designed_coupling(target, bench_params)
        assert np.all(np.isfinite(k))
        assert np.all(k >= 0.0)
        # unit-norm target drives the running integral to exactly 1, so the
        # denominator saturates at q + 2 f_s
        fs = bench_params.f_s
        denom_end = Q_DEFAULT + 2.0 * fs * cumulative_integral(target)[-1]
        assert denom_end == pytest.approx(Q_DEFAULT + 2.0 * fs, abs=1e-8)
        k_end_expected = fs * abs(target.values[-1]) ** 2 / denom_end
        assert k[-1] == pytest.approx(k_end_expected, rel=1e-12)

    def test_zero_prefix_keeps_coupling_silent(self, bench_params, grid10):
        vals = hermite_gaussian(0, 6.0, grid10).values.copy()
        vals[grid10.times < 2.0] = 0.0
        target = TemporalSignal(grid10, vals)
        # renormalize after the hard gate
        target = TemporalSignal(
            grid10, target.values / np.sqrt(inner_product(target, target).real)
        )
        k = designed_coupling(target, bench_params)
        assert np.all(k[grid10.times < 2.0] == 0.0)

    def test_design_equation_residual_is_small(self, bench_params, designed_hg0):
        target, control, _ = designed_hg0
        assert impedance_residual(control, target, bench_params) < 1e-3

    def test_rejects_nonpositive_regularization(self, bench_params, grid10):
        target = hermite_gaussian(0, 3.0, grid10)
        with pytest.raises(InvalidRegularizationError):
            design_control(target, bench_params.f_s, 0.0)
        with pytest.raises(InvalidRegularizationError):
            design_control(target, bench_params.f_s, -1e-7)

    @pytest.mark.parametrize("f_s", [0.0, -1.0])
    def test_rejects_nonpositive_conversion_rate(self, grid10, f_s):
        target = hermite_gaussian(0, 3.0, grid10)
        with pytest.raises(ValueError, match="f_s must be > 0"):
            design_control(target, f_s, Q_DEFAULT)


class TestDesignControl:
    def test_ground_target_is_stored_almost_fully(self, designed_hg0):
        _, _, traj = designed_hg0
        w = unconverted_energy(traj)
        assert w.value == pytest.approx(0.004, abs=0.006)
        assert w.value <= 0.010

    def test_first_order_target_is_stored_almost_fully(self, designed_hg1):
        _, _, traj = designed_hg1
        assert unconverted_energy(traj).value == pytest.approx(0.015, abs=0.008)

    def test_real_target_with_zero_phase_gives_real_control(self, designed_hg0):
        _, control, _ = designed_hg0
        assert np.abs(control.values.imag).max() == 0.0
        assert np.all(control.values.real >= 0.0)

    @pytest.mark.parametrize("order", [0, 1])
    def test_magnitude_squared_times_fs_equals_coupling(
        self, bench_params, grid10, order
    ):
        # K = f_s |S_in|^2 / (q + 2 f_s Integral |S_in|^2), the design law
        target = hermite_gaussian(order, 3.0, grid10)
        fs = bench_params.f_s
        k = fs * np.abs(target.values) ** 2 / (
            Q_DEFAULT + 2.0 * fs * cumulative_integral(target)
        )
        control = design_control(target, fs, Q_DEFAULT, theta=0.4)
        lhs = np.abs(control.values) ** 2 * fs
        assert np.abs(lhs - k).max() < 1e-10


class TestImpedanceResidual:
    def test_designed_control_matches_its_target(self, bench_params):
        # window opens well before the target rises, as the design start
        # time requires, so the arbitrary early control shape sits outside
        # the evaluated support
        grid = TimeGrid(-1.0, 10.0, 11001)
        target = hermite_gaussian(1, 3.0, grid)
        control = design_control(target, bench_params.f_s, Q_DEFAULT)
        assert impedance_residual(control, target, bench_params) < 1e-3

    def test_plain_gaussian_pairing_is_badly_matched(self, bench_params, control):
        assert impedance_residual(control, control, bench_params) > 1.0

    def test_global_control_phase_is_invisible(self, bench_params, designed_hg0):
        target, control, _ = designed_hg0
        rotated = TemporalSignal(
            control.grid, np.exp(1j * 0.9) * control.values
        )
        r0 = impedance_residual(control, target, bench_params)
        r1 = impedance_residual(rotated, target, bench_params)
        assert r1 == pytest.approx(r0, rel=1e-9)

    def test_zero_target_is_unsupported(self, bench_params, control):
        zero = TemporalSignal(control.grid, np.zeros(control.grid.n_samples))
        with pytest.raises(UnsupportedInputError):
            impedance_residual(control, zero, bench_params)


class TestDesignInvariants:
    def test_storage_is_insensitive_to_regularization(self, bench_params, grid10):
        target = hermite_gaussian(0, 3.0, grid10)
        w_values = []
        for q in (1e-6, 1e-7, 1e-8):
            control = design_control(target, bench_params.f_s, q)
            traj = simulate(bench_params, control, target)
            w_values.append(unconverted_energy(traj).value)
        assert max(w_values) - min(w_values) < 0.003

    @settings(max_examples=30, deadline=None)
    @given(
        theta=st.floats(-2.0 * np.pi, 2.0 * np.pi),
        order=st.integers(0, 3),
        alpha=st.floats(1.0, 10.0),
    )
    def test_global_phase_does_not_change_energy(self, grid10, theta, order, alpha):
        # exp(i theta) on the control moves only the converted band's phase
        params = CavityParams(gamma_s=10.1, gamma_c=0.01, alpha=alpha)
        target = hermite_gaussian(order, 5.0, grid10)
        plain = design_control(target, params.f_s, Q_DEFAULT)
        turned = design_control(target, params.f_s, Q_DEFAULT, theta)
        phase = np.exp(1j * theta)

        def close(a, b):
            return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

        assert close(turned.values, phase * plain.values)
        ref = simulate(params, plain, target)
        traj = simulate(params, turned, target)
        assert close(traj.C.values, phase * ref.C.values)
        assert close(traj.S.values, ref.S.values)
        w_ref = unconverted_energy(ref).value
        assert unconverted_energy(traj).value == pytest.approx(w_ref, rel=1e-12)

    def test_reduced_model_reflects_almost_nothing(self, bench_params, designed_hg0):
        target, control, _ = designed_hg0
        traj = simulate(bench_params, control, target, "reduced")
        w = quadrature_weights(traj.grid)
        reflected = float((w * np.abs(traj.S_out.values) ** 2).sum())
        assert reflected <= 0.01
