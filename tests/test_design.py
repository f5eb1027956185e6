"""Inverse control design: coupling law, phase rule, matching residuals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcavity import (
    CavityParams,
    DesignInputs,
    InvalidRegularizationError,
    TemporalSignal,
    TimeGrid,
    UnsupportedInputError,
    design_control,
    design_coupling,
    hermite_gaussian,
    impedance_residual,
    inner_product,
    quadrature_weights,
    simulate_full,
    simulate_reduced,
    unconverted_energy,
)

Q_DEFAULT = 1e-7


def make_inputs(target, params, q=Q_DEFAULT, theta=0.0):
    return DesignInputs(s_in=target, f_s=params.f_s, q=q, theta=theta)


class TestDesignCoupling:
    def test_finite_nonnegative_with_saturating_denominator(
        self, bench_params, grid10
    ):
        from tmcavity import cumulative_integral

        target = hermite_gaussian(0, 3.0, grid10)
        inputs = make_inputs(target, bench_params)
        k = design_coupling(inputs)
        assert np.all(np.isfinite(k.values.real))
        assert np.all(k.values.real >= 0.0)
        assert np.abs(k.values.imag).max() == 0.0
        # unit-norm target drives the running integral to exactly 1, so the
        # denominator saturates at q + 2 f_s
        fs = bench_params.f_s
        denom_end = inputs.q + 2.0 * fs * cumulative_integral(target).values[-1].real
        assert denom_end == pytest.approx(inputs.q + 2.0 * fs, abs=1e-8)
        k_end_expected = fs * abs(target.values[-1]) ** 2 / denom_end
        assert k.values[-1].real == pytest.approx(k_end_expected, rel=1e-12)

    def test_zero_prefix_keeps_coupling_silent(self, bench_params, grid10):
        vals = hermite_gaussian(0, 6.0, grid10).values.copy()
        vals[grid10.times < 2.0] = 0.0
        target = TemporalSignal(grid10, vals)
        # renormalize after the hard gate
        target = target / np.sqrt(inner_product(target, target).real)
        k = design_coupling(make_inputs(target, bench_params))
        assert np.all(k.values.real[grid10.times < 2.0] == 0.0)

    def test_design_equation_residual_is_small(self, bench_params, designed_hg0):
        target, control, _ = designed_hg0
        assert impedance_residual(control, target, bench_params) < 1e-3

    def test_rejects_nonpositive_regularization(self, bench_params, grid10):
        target = hermite_gaussian(0, 3.0, grid10)
        with pytest.raises(InvalidRegularizationError):
            make_inputs(target, bench_params, q=0.0)
        with pytest.raises(InvalidRegularizationError):
            make_inputs(target, bench_params, q=-1e-7)


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

    def test_magnitude_squared_times_fs_equals_coupling(self, bench_params, grid10):
        target = hermite_gaussian(1, 3.0, grid10)
        inputs = make_inputs(target, bench_params, theta=0.4)
        control = design_control(inputs)
        k = design_coupling(inputs)
        lhs = np.abs(control.values) ** 2 * bench_params.f_s
        assert np.abs(lhs - k.values.real).max() < 1e-10


class TestImpedanceResidual:
    def test_designed_control_matches_its_target(self, bench_params):
        # window opens well before the target rises, as the design start
        # time requires, so the arbitrary early control shape sits outside
        # the evaluated support
        grid = TimeGrid(-1.0, 10.0, 11001)
        target = hermite_gaussian(1, 3.0, grid)
        control = design_control(
            DesignInputs(s_in=target, f_s=bench_params.f_s, q=Q_DEFAULT)
        )
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
            control = design_control(make_inputs(target, bench_params, q=q))
            traj = simulate_full(bench_params, control, target)
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
        plain = design_control(make_inputs(target, params))
        turned = design_control(make_inputs(target, params, theta=theta))
        phase = np.exp(1j * theta)

        def close(a, b):
            return np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

        assert close(turned.values, phase * plain.values)
        ref = simulate_full(params, plain, target)
        traj = simulate_full(params, turned, target)
        assert close(traj.C.values, phase * ref.C.values)
        assert close(traj.S.values, ref.S.values)
        w_ref = unconverted_energy(ref).value
        assert unconverted_energy(traj).value == pytest.approx(w_ref, rel=1e-12)

    def test_reduced_model_reflects_almost_nothing(self, bench_params, designed_hg0):
        target, control, _ = designed_hg0
        traj = simulate_reduced(bench_params, control, target)
        w = quadrature_weights(traj.grid)
        reflected = float((w * np.abs(traj.S_out.values) ** 2).sum())
        assert reflected <= 0.01

    def test_t0_after_signal_onset_is_rejected(self, bench_params, grid10):
        target = hermite_gaussian(0, 3.0, grid10)
        with pytest.raises(ValueError):
            DesignInputs(s_in=target, f_s=bench_params.f_s, q=1e-7, t0=3.0)
