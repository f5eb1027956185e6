"""Dynamical models: benchmark values, agreement, and conservation laws."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcavity import (
    CavityParams,
    GridMismatchError,
    InstabilityError,
    TemporalSignal,
    TimeGrid,
    analytic_conversion,
    conservation_residual,
    cumulative_integral,
    gaussian_control,
    gram_schmidt_family,
    hermite_gaussian,
    normalize,
    optimal_input_mode,
    polynomial_raw_basis,
    simulate_full,
    simulate_reduced,
    trajectory_to_csv,
    unconverted_energy,
)
from tmcavity import cavity
from tmcavity.cavity import _STEP_BLOCK

BENCH = dict(gamma_s=10.1, gamma_c=0.01, alpha=5.5)


def reference_full(params, control, s_in):
    """The scalar RK4 loop the step-map integrator replaced, kept verbatim.

    Returns the raw S and C arrays, non-finite samples included.
    """
    n = control.grid.n_samples
    dt = control.grid.dt
    gts = float(params.gamma_tilde_s)
    gtc = float(params.gamma_tilde_c)
    r2gs = float(np.sqrt(2.0 * params.gamma_s))
    ia = 1j * float(params.alpha)
    om = control.values.tolist()
    si = s_in.values.tolist()

    s_arr = np.empty(n, dtype=complex)
    c_arr = np.empty(n, dtype=complex)
    s = 0j
    c = 0j
    s_arr[0] = s
    c_arr[0] = c
    h2 = 0.5 * dt
    h6 = dt / 6.0
    for k in range(n - 1):
        o0 = om[k]
        o1 = om[k + 1]
        oh = 0.5 * (o0 + o1)
        f0 = si[k]
        f1 = si[k + 1]
        fh = 0.5 * (f0 + f1)

        ds1 = ia * o0.conjugate() * c - gts * s + r2gs * f0
        dc1 = ia * o0 * s - gtc * c
        s2 = s + h2 * ds1
        c2 = c + h2 * dc1
        ds2 = ia * oh.conjugate() * c2 - gts * s2 + r2gs * fh
        dc2 = ia * oh * s2 - gtc * c2
        s3 = s + h2 * ds2
        c3 = c + h2 * dc2
        ds3 = ia * oh.conjugate() * c3 - gts * s3 + r2gs * fh
        dc3 = ia * oh * s3 - gtc * c3
        s4 = s + dt * ds3
        c4 = c + dt * dc3
        ds4 = ia * o1.conjugate() * c4 - gts * s4 + r2gs * f1
        dc4 = ia * o1 * s4 - gtc * c4

        s = s + h6 * (ds1 + 2.0 * (ds2 + ds3) + ds4)
        c = c + h6 * (dc1 + 2.0 * (dc2 + dc3) + dc4)
        s_arr[k + 1] = s
        c_arr[k + 1] = c
    return s_arr, c_arr


def reference_reduced(params, control, s_in):
    """The scalar RK4 loop of the reduced model, kept verbatim, plus the
    algebraic S reconstruction."""
    n = control.grid.n_samples
    dt = control.grid.dt
    gtc = float(params.gamma_tilde_c)
    fs = float(params.f_s)
    igs = 1j * float(params.g_s)
    om = control.values.tolist()
    si = s_in.values.tolist()

    c_arr = np.empty(n, dtype=complex)
    c = 0j
    c_arr[0] = c
    h2 = 0.5 * dt
    h6 = dt / 6.0
    for k in range(n - 1):
        o0 = om[k]
        o1 = om[k + 1]
        oh = 0.5 * (o0 + o1)
        f0 = si[k]
        f1 = si[k + 1]
        fh = 0.5 * (f0 + f1)
        a0 = -fs * (o0.real * o0.real + o0.imag * o0.imag) - gtc
        ah = -fs * (oh.real * oh.real + oh.imag * oh.imag) - gtc
        a1 = -fs * (o1.real * o1.real + o1.imag * o1.imag) - gtc

        dc1 = a0 * c + igs * o0 * f0
        dc2 = ah * (c + h2 * dc1) + igs * oh * fh
        dc3 = ah * (c + h2 * dc2) + igs * oh * fh
        dc4 = a1 * (c + dt * dc3) + igs * o1 * f1
        c = c + h6 * (dc1 + 2.0 * (dc2 + dc3) + dc4)
        c_arr[k + 1] = c

    s_arr = (
        1j * (params.alpha / params.gamma_tilde_s) * np.conj(control.values) * c_arr
        + np.sqrt(2.0 * params.gamma_s) / params.gamma_tilde_s * s_in.values
    )
    return s_arr, c_arr


INTEGRATORS = [
    pytest.param(simulate_full, reference_full, id="full"),
    pytest.param(simulate_reduced, reference_reduced, id="reduced"),
]


class TestDerivedRates:
    def test_benchmark_values_match_direct_arithmetic(self):
        par = CavityParams(**BENCH)
        assert par.gamma_tilde_s == pytest.approx(10.1, abs=0)
        assert par.gamma_tilde_c == pytest.approx(0.01, abs=0)
        assert par.f_s == pytest.approx(5.5**2 / 10.1, abs=1e-12)
        assert par.f_s == pytest.approx(2.9950495, abs=1e-5)
        assert par.g_s == pytest.approx(5.5 * math.sqrt(2 * 10.1 / 10.1**2), abs=1e-12)
        assert par.g_s == pytest.approx(2.4474679, abs=1e-5)

    def test_internal_loss_halves_conversion_rate(self):
        par = CavityParams(gamma_s=4.0, gamma_c=0.0, alpha=3.0, kappa_s=4.0)
        assert par.f_s == pytest.approx(3.0**2 / 8.0, abs=1e-14)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CavityParams(gamma_s=0.0, gamma_c=0.01, alpha=1.0)
        with pytest.raises(ValueError):
            CavityParams(gamma_s=1.0, gamma_c=-0.1, alpha=1.0)
        with pytest.raises(ValueError):
            CavityParams(gamma_s=1.0, gamma_c=0.0, alpha=1.0, kappa_s=-1.0)


class TestSimulateFull:
    def test_mismatched_gaussian_input_benchmark(self, traj_gaussian_input):
        w = unconverted_energy(traj_gaussian_input)
        assert w.value == pytest.approx(0.36, abs=0.04)
        assert np.abs(traj_gaussian_input.S.values).max() == pytest.approx(0.2, abs=0.05)
        assert np.abs(traj_gaussian_input.C.values).max() == pytest.approx(0.8, abs=0.05)

    def test_matched_input_converts_almost_fully(self, traj_optimal_input):
        w = unconverted_energy(traj_optimal_input)
        assert w.value == pytest.approx(0.016, abs=0.006)
        assert np.abs(traj_optimal_input.C.values).max() >= 0.97

    def test_no_coupling_passes_everything_through(self, grid10, control):
        par = CavityParams(gamma_s=10.1, gamma_c=0.01, alpha=0.0)
        traj = simulate_full(par, control, control)
        assert np.abs(traj.C.values).max() == 0.0
        assert unconverted_energy(traj).value == pytest.approx(1.0, abs=1e-6)

    def test_output_relations_hold_pointwise(self, traj_gaussian_input):
        traj = traj_gaussian_input
        expect_s = -traj.S_in.values + math.sqrt(2 * BENCH["gamma_s"]) * traj.S.values
        expect_c = math.sqrt(2 * BENCH["gamma_c"]) * traj.C.values
        assert np.array_equal(traj.S_out.values, expect_s)
        assert np.array_equal(traj.C_out.values, expect_c)
        assert traj.S.values[0] == 0.0 and traj.C.values[0] == 0.0

    def test_divergence_names_first_bad_sample(self):
        grid = TimeGrid(0.0, 10.0, 101)
        control = gaussian_control(3.0, grid)
        stiff = CavityParams(gamma_s=5000.0, gamma_c=0.01, alpha=5.5)
        with pytest.raises(InstabilityError, match="sample"):
            simulate_full(stiff, control, control)

    def test_drives_must_share_grid(self, control):
        other = gaussian_control(3.0, TimeGrid(0.0, 10.0, 5001))
        with pytest.raises(GridMismatchError):
            simulate_full(CavityParams(**BENCH), control, other)

    def test_explicit_grid_argument_is_checked(self, control):
        with pytest.raises(GridMismatchError):
            simulate_full(
                CavityParams(**BENCH),
                control,
                control,
                grid=TimeGrid(0.0, 10.0, 5001),
            )


class TestSimulateReduced:
    def test_matched_input_reaches_analytic_efficiency(self, control, opt_mode):
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=5.5)
        traj = simulate_reduced(par, control, opt_mode)
        expected = 1.0 - math.exp(-2.0 * par.f_s)
        assert abs(traj.C.values[-1]) ** 2 == pytest.approx(expected, abs=1e-4)

    def test_orthogonal_input_stores_nothing(self, control, family8):
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=5.5)
        traj = simulate_reduced(par, control, family8[1])
        assert abs(traj.C.values[-1]) ** 2 <= 1e-6

    def test_no_control_decouples_the_bands(self, grid10):
        par = CavityParams(**BENCH, kappa_s=0.3)
        zero = TemporalSignal(grid10, np.zeros(grid10.n_samples))
        s_in = hermite_gaussian(0, 5.0, grid10)
        traj = simulate_reduced(par, zero, s_in)
        assert np.all(traj.C.values == 0.0)
        expected_s = math.sqrt(2 * par.gamma_s) / par.gamma_tilde_s * s_in.values
        assert np.abs(traj.S.values - expected_s).max() < 1e-15


class TestAnalyticConversion:
    def test_matched_input_closed_form_efficiency(self):
        # continuum identity at 1e-8: needs a fine grid and generous margins
        # so neither quadrature bias nor tail clipping is visible
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=5.5)
        grid = TimeGrid(-1.0, 10.0, 176001)
        control = gaussian_control(3.0, grid)
        mode = optimal_input_mode(par, control)
        _, c_end = analytic_conversion(par, control, mode)
        expected = 1.0 - math.exp(-2.0 * par.f_s)
        assert abs(c_end) ** 2 == pytest.approx(expected, abs=1e-8)

    def test_matched_input_efficiency_on_default_grid(
        self, lossless_params, control, opt_mode
    ):
        _, c_end = analytic_conversion(lossless_params, control, opt_mode)
        expected = 1.0 - math.exp(-2.0 * lossless_params.f_s)
        assert abs(c_end) ** 2 == pytest.approx(expected, abs=1e-5)

    def test_orthogonal_inputs_give_exact_null(self, lossless_params, control, family8):
        for mode in list(family8)[1:4]:
            _, c_end = analytic_conversion(lossless_params, control, mode)
            assert abs(c_end) <= 1e-8

    def test_no_coupling_no_conversion(self, control):
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=0.0)
        c_sig, c_end = analytic_conversion(par, control, control)
        assert np.all(c_sig.values == 0.0) and c_end == 0.0

    @pytest.mark.parametrize("span", [1e-3, 0.5, 7.0, 600.0])
    @pytest.mark.parametrize("alpha", [5.5, 80.0])
    def test_blocks_match_the_formula_as_written(
        self, monkeypatch, control, family8, span, alpha
    ):
        # below exp(709) the unshifted formula is exact enough to compare;
        # small spans cut the window into many blocks, some after a step in
        # which f_s eps jumps by more than a span
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=alpha)
        eps = cumulative_integral(control).values.real
        kernel = np.exp(par.f_s * eps) * control.values * family8.values
        integ = np.zeros_like(kernel)
        integ[:, 1:] = np.cumsum(
            0.5 * control.grid.dt * (kernel[:, 1:] + kernel[:, :-1]), axis=1
        )
        expected = 1j * par.g_s * np.exp(-par.f_s * eps) * integ
        monkeypatch.setattr(cavity, "_EXP_SPAN", span)
        for mode, want in zip(family8, expected):
            got = analytic_conversion(par, control, mode)[0].values
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @pytest.mark.parametrize("alpha", [1e4, 1e8, 1e20, 1e100])
    def test_history_is_finite_for_any_coupling(self, alpha):
        # f_s eps jumps by far more than exp() can take within one step
        grid = TimeGrid(0.0, 10.0, 1001)
        control = gaussian_control(3.0, grid)
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=alpha)
        c_sig, c_end = analytic_conversion(par, control, control)
        assert np.isfinite(c_sig.values).all() and np.isfinite(c_end)

    @pytest.mark.parametrize("alpha", [100.0, 300.0, 1000.0])
    def test_large_coupling_stays_finite_and_matches_reduced(self, control, alpha):
        # 2 f_s reaches 2e5 here, far past exp() overflow of the unshifted form
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=alpha)
        mode = normalize(optimal_input_mode(par, control))
        c_sig, c_end = analytic_conversion(par, control, mode)
        assert np.isfinite(c_sig.values).all()
        assert abs(c_end) ** 2 == pytest.approx(1.0, abs=1e-5)
        reduced = simulate_reduced(par, control, mode)
        assert np.abs(reduced.C.values - c_sig.values).max() < 1e-5


class TestModelAgreement:
    def test_photon_number_is_conserved_without_loss(self, traj_optimal_input):
        traj = traj_optimal_input
        from tmcavity import conservation_residual

        assert conservation_residual(traj, CavityParams(**BENCH)) < 1e-5

    def test_dynamics_are_linear_in_the_signal(self, grid10, control):
        par = CavityParams(**BENCH)
        s1 = hermite_gaussian(0, 4.0, grid10)
        s2 = hermite_gaussian(3, 5.0, grid10)
        a, b = 0.3 - 0.7j, 1.1 + 0.2j
        mix = TemporalSignal(grid10, a * s1.values + b * s2.values)
        t1 = simulate_full(par, control, s1)
        t2 = simulate_full(par, control, s2)
        tm = simulate_full(par, control, mix)
        for field in ("S", "C", "S_out", "C_out"):
            combined = a * getattr(t1, field).values + b * getattr(t2, field).values
            assert np.abs(getattr(tm, field).values - combined).max() < 1e-9

    def test_reduced_matches_closed_form_uniformly(self, control, opt_mode):
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=5.5)
        traj = simulate_reduced(par, control, opt_mode)
        c_sig, _ = analytic_conversion(par, control, opt_mode)
        assert np.abs(traj.C.values - c_sig.values).max() < 1e-5

    def test_full_and_reduced_agree_on_stored_energy(
        self, bench_params, control, opt_mode, traj_optimal_input
    ):
        reduced = simulate_reduced(bench_params, control, opt_mode)
        full_c2 = abs(traj_optimal_input.C.values[-1]) ** 2
        red_c2 = abs(reduced.C.values[-1]) ** 2
        assert abs(full_c2 - red_c2) < 0.02

    def test_step_halving_leaves_results_unchanged(self):
        results = []
        for n in (10001, 20001):
            grid = TimeGrid(0.0, 10.0, n)
            control = gaussian_control(3.0, grid)
            traj = simulate_full(CavityParams(**BENCH), control, control)
            results.append(unconverted_energy(traj).value)
        assert abs(results[0] - results[1]) < 1e-6


class TestTrajectoryCsv:
    def test_schema_and_shape(self, traj_gaussian_input, tmp_path):
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj_gaussian_input, path)
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "t,S_re,S_im,C_re,C_im,Sout_re,Sout_im,Cout_re,Cout_im,control_abs"
        )
        assert len(lines) == 1 + traj_gaussian_input.grid.n_samples


def _chirped_pulse(grid, center, width, chirp, amplitude):
    u = grid.times - center
    return TemporalSignal(
        grid, amplitude * np.exp(-((u / width) ** 2) + 1j * chirp * u**2)
    )


cavity_params = st.builds(
    CavityParams,
    gamma_s=st.floats(0.1, 20.0),
    gamma_c=st.floats(0.0, 5.0),
    alpha=st.just(0.0) | st.floats(0.01, 10.0) | st.floats(-10.0, -0.01),
    kappa_s=st.floats(0.0, 5.0),
    kappa_c=st.floats(0.0, 5.0),
)
n_samples = st.sampled_from(
    [2, _STEP_BLOCK, _STEP_BLOCK + 1, _STEP_BLOCK + 2, 2 * _STEP_BLOCK + 1]
) | st.integers(2, 3000)


@st.composite
def drives(draw):
    grid = TimeGrid(0.0, 10.0, draw(n_samples, label="n_samples"))
    control = _chirped_pulse(
        grid,
        center=draw(st.floats(2.0, 8.0)),
        width=draw(st.floats(0.5, 2.0)),
        chirp=draw(st.floats(-2.0, 2.0)),
        amplitude=draw(st.floats(0.1, 2.0)),
    )
    s_in = _chirped_pulse(
        grid,
        center=draw(st.floats(2.0, 8.0)),
        width=draw(st.floats(0.5, 2.0)),
        chirp=draw(st.floats(-2.0, 2.0)),
        amplitude=draw(st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0)),
    )
    return control, s_in


def _first_bad_sample(*arrays):
    bad = ~np.isfinite(arrays[0])
    for arr in arrays[1:]:
        bad |= ~np.isfinite(arr)
    return int(np.flatnonzero(bad)[0])


class TestStepMapsMatchScalarLoops:
    """The per-step affine maps reproduce the scalar RK4 loops they replaced."""

    @pytest.mark.parametrize("simulate, reference", INTEGRATORS)
    @settings(max_examples=30, deadline=None)
    @given(params=cavity_params, signals=drives())
    def test_amplitudes_match_reference(self, simulate, reference, params, signals):
        control, s_in = signals
        traj = simulate(params, control, s_in)
        old_s, old_c = reference(params, control, s_in)
        for new, old in ((traj.S.values, old_s), (traj.C.values, old_c)):
            assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()

    def test_stiff_case_names_the_reference_sample(self):
        grid = TimeGrid(0.0, 10.0, 101)
        control = gaussian_control(3.0, grid)
        stiff = CavityParams(gamma_s=5000.0, gamma_c=0.01, alpha=5.5)
        expected = _first_bad_sample(*reference_full(stiff, control, control))
        assert expected == 34
        with pytest.raises(InstabilityError, match=rf"at sample {expected} "):
            simulate_full(stiff, control, control)

    @pytest.mark.parametrize("simulate, reference", INTEGRATORS)
    @pytest.mark.parametrize("rate", np.geomspace(300.0, 1e5, 13).tolist())
    def test_divergence_is_named_at_the_reference_sample(
        self, simulate, reference, rate
    ):
        # dt = 0.1 puts either band's decay far outside the stability region.
        # The scalar loop reports one sample early when an RK4 stage value
        # overflows before the amplitude it builds; the step maps never form
        # those stage values, so they name the first non-finite amplitude.
        grid = TimeGrid(0.0, 10.0, 101)
        control = gaussian_control(3.0, grid)
        stiff = CavityParams(gamma_s=rate, gamma_c=rate, alpha=5.5)
        expected = _first_bad_sample(*reference(stiff, control, control))
        with pytest.raises(InstabilityError) as info:
            simulate(stiff, control, control)
        named = int(re.search(r"sample (\d+)", str(info.value)).group(1))
        assert expected <= named <= expected + 1


class TestPhysicsProperties:
    """Invariants of the model on the default grid, over drawn parameters."""

    @pytest.mark.parametrize("simulate", [simulate_full, simulate_reduced])
    @settings(max_examples=20, deadline=None)
    @given(
        a=st.complex_numbers(max_magnitude=3.0),
        b=st.complex_numbers(max_magnitude=3.0),
    )
    def test_linear_in_the_signal(self, grid10, control, simulate, a, b):
        par = CavityParams(**BENCH, kappa_s=0.2)
        s1 = hermite_gaussian(0, 4.0, grid10)
        s2 = hermite_gaussian(2, 5.0, grid10)
        mix = TemporalSignal(grid10, a * s1.values + b * s2.values)
        t1 = simulate(par, control, s1)
        t2 = simulate(par, control, s2)
        tm = simulate(par, control, mix)
        for field in ("S", "C", "S_out", "C_out"):
            combined = a * getattr(t1, field).values + b * getattr(t2, field).values
            assert np.abs(getattr(tm, field).values - combined).max() < 1e-9

    @settings(max_examples=20, deadline=None)
    @given(
        alpha=st.floats(0.0, 8.0),
        gamma_s=st.floats(5.0, 15.0),
        center=st.floats(2.9, 7.0),
        order=st.integers(0, 3),
        kappa_s=st.floats(0.05, 2.0),
    )
    def test_photon_balance(self, grid10, alpha, gamma_s, center, order, kappa_s):
        control = gaussian_control(center, grid10)
        s_in = hermite_gaussian(order, center, grid10)
        lossless = CavityParams(gamma_s=gamma_s, gamma_c=0.01, alpha=alpha)
        traj = simulate_full(lossless, control, s_in)
        assert conservation_residual(traj, lossless) < 1e-5
        lossy = CavityParams(
            gamma_s=gamma_s, gamma_c=0.01, alpha=alpha, kappa_s=kappa_s
        )
        traj = simulate_full(lossy, control, s_in)
        assert conservation_residual(traj, lossy) > 0.0

    @settings(max_examples=30, deadline=None)
    @given(
        alpha=st.floats(0.5, 8.0),
        center=st.floats(2.9, 7.0),
        order=st.integers(1, 10),
    )
    def test_orthogonal_modes_pass_through(self, alpha, center, order):
        # The window closes 7 after the latest centre. On [0, 10] a tenth-order
        # mode centred at 7 still peaks at the window's end, and 14 % of it
        # is left in the cavity there (W_out 0.86, not plateaued).
        grid = TimeGrid(0.0, 14.0, 14001)
        params = CavityParams(gamma_s=10.1, gamma_c=0.01, alpha=alpha)
        control = gaussian_control(center, grid)
        seed = normalize(optimal_input_mode(params, control))
        family = gram_schmidt_family(seed, polynomial_raw_basis(seed, order, center))
        matched = abs(analytic_conversion(params, control, seed)[1]) ** 2
        orthogonal = abs(analytic_conversion(params, control, family[order])[1]) ** 2
        assert orthogonal <= 1e-20 * matched
        traj = simulate_full(params, control, family[order])
        assert unconverted_energy(traj).value > 0.95
