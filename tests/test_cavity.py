"""Dynamical models: benchmark values, agreement, and conservation laws."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tmcavity import (
    CavityParams,
    GridMismatchError,
    InstabilityError,
    TemporalSignal,
    TimeGrid,
    conservation_residual,
    cumulative_integral,
    gaussian_control,
    green_kernel,
    hermite_gaussian,
    inner_product,
    normalize,
    optimal_input_mode,
    polynomial_family,
    quadrature_weights,
    simulate,
    unconverted_energy,
)
from tmcavity import cavity
from tmcavity.cavity import _STEP_BLOCK, MODELS

from reference_loops import (
    first_unbounded_sample,
    named_sample,
    reference_closed_form,
    reference_full,
    reference_full_rhs,
    reference_reduced,
    reference_reduced_rhs,
    reference_step_maps,
)

BENCH = dict(gamma_s=10.1, gamma_c=0.01, alpha=5.5)


INTEGRATORS = [("full", reference_full), ("reduced", reference_reduced)]


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

    @pytest.mark.parametrize(
        "gamma_s, alpha",
        [(10.1, 1e300), (10.1, -1e300), (10.1, 1.4e154), (1e-300, 1e10)],
        ids=["alpha-squared-overflows", "negative", "just-past", "f_s-inf"],
    )
    def test_alpha_whose_rates_overflow_is_rejected(self, gamma_s, alpha):
        # alpha**2 past the float range raised a bare OverflowError from
        # f_s, optimal_input_mode and simulate; 1e20 / 1e-300 gives inf
        message = re.escape(f"overflows at alpha = {alpha!r}") + "$"
        with pytest.raises(ValueError, match=message):
            CavityParams(gamma_s=gamma_s, gamma_c=0.01, alpha=alpha)

    def test_alphas_with_huge_but_finite_rates_are_accepted(self):
        par = CavityParams(gamma_s=10.1, gamma_c=0.01, alpha=1.3e154)
        assert math.isfinite(par.f_s) and math.isfinite(par.g_s)
        par = CavityParams(gamma_s=1e-300, gamma_c=0.0, alpha=1e-5)
        assert par.f_s == pytest.approx(1e290, rel=1e-15)


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
        traj = simulate(par, control, control)
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
            simulate(stiff, control, control)

    @pytest.mark.parametrize("model", MODELS)
    def test_drives_must_share_grid(self, control, model):
        other = gaussian_control(3.0, TimeGrid(0.0, 10.0, 5001))
        with pytest.raises(GridMismatchError):
            simulate(CavityParams(**BENCH), control, other, model)


class TestSimulateReduced:
    def test_non_finite_step_drives_name_the_first_non_finite_state(self):
        # f_s = 1e-10 / 1e-300 is finite, but its RK4 stages overflow, so the
        # step maps and drives are not finite wherever the control is on:
        # the empty start must not be the one named
        grid = TimeGrid(0.0, 10.0, 11)
        pulse = TemporalSignal(grid, np.exp(-((grid.times - 3.0) ** 2)))
        par = CavityParams(gamma_s=1e-300, gamma_c=0.0, alpha=1e-5)
        with np.errstate(all="ignore"):
            maps = _step_maps("reduced", par, pulse, pulse.values[None])
        assert not np.isfinite(maps).any()
        with pytest.raises(InstabilityError, match=r"at sample 1 "):
            simulate(par, pulse, pulse, "reduced")

    @pytest.mark.filterwarnings("error")
    def test_overflowing_signal_amplitude_is_named(self):
        # One step: C is its own step drive and keeps the bound, but
        # S = i (alpha / gt_s) conj(Omega) C overflows at alpha 1e50
        grid = TimeGrid(0.0, 10.0, 2)
        pulse = TemporalSignal(grid, np.exp(-((grid.times - 3.0) ** 2)))
        par = CavityParams(gamma_s=1.0, gamma_c=0.0, alpha=1e50)
        assert first_unbounded_sample(reference_reduced, par, pulse, pulse) is None
        with pytest.raises(InstabilityError, match=r"S overflows at sample 1 "):
            simulate(par, pulse, pulse, "reduced")

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("model, gamma_c", [("reduced", 1e100), ("full", 1e123)])
    def test_overflowing_output_field_is_named(self, model, gamma_c):
        # One stiff step: C keeps its bound, C_out = sqrt(2 gamma_c) C does not
        grid = TimeGrid(0.0, 10.0, 2)
        ones = TemporalSignal(grid, np.ones(2))
        par = CavityParams(gamma_s=1.0, gamma_c=gamma_c, alpha=1.0)
        with pytest.raises(InstabilityError, match=r"C_out overflows at sample 1 "):
            simulate(par, ones, ones, model)

    def test_matched_input_reaches_analytic_efficiency(self, control, opt_mode):
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=5.5)
        traj = simulate(par, control, opt_mode, "reduced")
        expected = 1.0 - math.exp(-2.0 * par.f_s)
        assert abs(traj.C.values[-1]) ** 2 == pytest.approx(expected, abs=1e-4)

    def test_orthogonal_input_stores_nothing(self, control, family8):
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=5.5)
        mode = TemporalSignal(control.grid, family8[1])
        traj = simulate(par, control, mode, "reduced")
        assert abs(traj.C.values[-1]) ** 2 <= 1e-6

    def test_no_control_decouples_the_bands(self, grid10):
        par = CavityParams(**BENCH, kappa_s=0.3)
        zero = TemporalSignal(grid10, np.zeros(grid10.n_samples))
        s_in = hermite_gaussian(0, 5.0, grid10)
        traj = simulate(par, zero, s_in, "reduced")
        assert np.all(traj.C.values == 0.0)
        expected_s = math.sqrt(2 * par.gamma_s) / par.gamma_tilde_s * s_in.values
        assert np.abs(traj.S.values - expected_s).max() < 1e-15


@pytest.mark.seeded
class TestAnalyticConversion:
    def test_matched_input_closed_form_efficiency(self):
        # continuum identity at 1e-8: needs a fine grid and generous margins
        # so neither quadrature bias nor tail clipping is visible
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=5.5)
        grid = TimeGrid(-1.0, 10.0, 176001)
        control = gaussian_control(3.0, grid)
        mode = optimal_input_mode(par, control)
        c_end = simulate(par, control, mode, "analytic").C.values[-1]
        expected = 1.0 - math.exp(-2.0 * par.f_s)
        assert abs(c_end) ** 2 == pytest.approx(expected, abs=1e-8)

    def test_matched_input_efficiency_on_default_grid(
        self, lossless_params, control, opt_mode
    ):
        c_end = simulate(lossless_params, control, opt_mode, "analytic").C.values[-1]
        expected = 1.0 - math.exp(-2.0 * lossless_params.f_s)
        assert abs(c_end) ** 2 == pytest.approx(expected, abs=1e-5)

    def test_orthogonal_inputs_give_exact_null(self, lossless_params, control, family8):
        for row in family8[1:4]:
            mode = TemporalSignal(control.grid, row)
            c_end = simulate(lossless_params, control, mode, "analytic").C.values[-1]
            assert abs(c_end) <= 1e-8

    def test_no_coupling_no_conversion(self, control):
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=0.0)
        traj = simulate(par, control, control, "analytic")
        assert np.all(traj.C.values == 0.0)

    @settings(max_examples=30, deadline=None)
    @given(params=cavity_params, signals=drives())
    def test_steps_match_the_formula_as_written(self, params, signals):
        # below exp(709) the unstepped formula is exact enough to compare
        control, s_in = signals
        eps = cumulative_integral(control)
        assume(params.f_s * eps.max() < 700.0)
        want = reference_closed_form(params, control, s_in)
        got = simulate(params, control, s_in, "analytic").C.values
        assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    @settings(max_examples=30, deadline=None)
    @given(
        signals=drives(),
        gamma_s=st.floats(0.1, 20.0),
        alpha=st.floats(-1e150, 1e150),
    )
    def test_steps_never_expand(self, signals, gamma_s, alpha):
        # f_s eps never decreases, so every step factor lies in [0, 1]
        control, s_in = signals
        par = CavityParams(gamma_s=gamma_s, gamma_c=0.0, alpha=alpha)
        x = np.empty((1, 1, control.grid.n_samples), dtype=complex)
        maps = _combined(cavity._closed_form_maps(par, control, s_in.values[None], x), x)
        assert np.isfinite(maps).all()
        assert (np.abs(maps[0, 0]) <= 1.0).all()

    @pytest.mark.parametrize("alpha", [1e4, 1e8, 1e20, 1e100])
    def test_history_is_finite_for_any_coupling(self, alpha):
        # f_s eps jumps by far more than exp() can take within one step
        grid = TimeGrid(0.0, 10.0, 1001)
        control = gaussian_control(3.0, grid)
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=alpha)
        traj = simulate(par, control, control, "analytic")
        assert np.isfinite(traj.C.values).all()

    @pytest.mark.parametrize("alpha", [100.0, 300.0, 1000.0])
    def test_large_coupling_stays_finite_and_matches_reduced(self, control, alpha):
        # 2 f_s reaches 2e5 here, far past exp() overflow of the unshifted form
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=alpha)
        mode = normalize(optimal_input_mode(par, control))
        c = simulate(par, control, mode, "analytic").C.values
        assert np.isfinite(c).all()
        assert abs(c[-1]) ** 2 == pytest.approx(1.0, abs=1e-5)
        reduced = simulate(par, control, mode, "reduced")
        assert np.abs(reduced.C.values - c).max() < 1e-5


class TestModelAgreement:
    def test_photon_number_is_conserved_without_loss(self, traj_optimal_input):
        traj = traj_optimal_input
        from tmcavity import conservation_residual

        assert conservation_residual(traj) < 1e-5

    def test_dynamics_are_linear_in_the_signal(self, grid10, control):
        par = CavityParams(**BENCH)
        s1 = hermite_gaussian(0, 4.0, grid10)
        s2 = hermite_gaussian(3, 5.0, grid10)
        a, b = 0.3 - 0.7j, 1.1 + 0.2j
        mix = TemporalSignal(grid10, a * s1.values + b * s2.values)
        t1 = simulate(par, control, s1)
        t2 = simulate(par, control, s2)
        tm = simulate(par, control, mix)
        for field in ("S", "C", "S_out", "C_out"):
            combined = a * getattr(t1, field).values + b * getattr(t2, field).values
            assert np.abs(getattr(tm, field).values - combined).max() < 1e-9

    def test_reduced_matches_closed_form_uniformly(self, control, opt_mode):
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=5.5)
        reduced = simulate(par, control, opt_mode, "reduced")
        closed = simulate(par, control, opt_mode, "analytic")
        for field in ("C", "S", "S_out"):
            new, old = getattr(closed, field).values, getattr(reduced, field).values
            assert np.abs(new - old).max() < 1e-5

    def test_full_and_reduced_agree_on_stored_energy(
        self, bench_params, control, opt_mode, traj_optimal_input
    ):
        reduced = simulate(bench_params, control, opt_mode, "reduced")
        full_c2 = abs(traj_optimal_input.C.values[-1]) ** 2
        red_c2 = abs(reduced.C.values[-1]) ** 2
        assert abs(full_c2 - red_c2) < 0.02

    @pytest.mark.parametrize("model", MODELS)
    def test_step_halving_leaves_results_unchanged(self, model):
        results = []
        for n in (10001, 20001):
            grid = TimeGrid(0.0, 10.0, n)
            control = gaussian_control(3.0, grid)
            traj = simulate(CavityParams(**BENCH), control, control, model)
            results.append(unconverted_energy(traj).value)
        assert abs(results[0] - results[1]) < 1e-6


@pytest.mark.seeded
class TestStepMapsMatchScalarLoops:
    """The per-step affine maps reproduce the scalar RK4 loops they replaced."""

    @pytest.mark.parametrize("model, reference", INTEGRATORS)
    @settings(max_examples=30, deadline=None)
    @given(params=cavity_params, signals=drives())
    def test_amplitudes_match_reference(self, model, reference, params, signals):
        # an expansive draw must fail where the loop outgrows its drive
        control, s_in = signals
        expected = first_unbounded_sample(reference, params, control, s_in)
        if expected is not None:
            with pytest.raises(InstabilityError) as info:
                simulate(params, control, s_in, model)
            assert named_sample(info.value) == expected
            return
        traj = simulate(params, control, s_in, model)
        old_s, old_c = reference(params, control, s_in)
        for new, old in ((traj.S.values, old_s), (traj.C.values, old_c)):
            assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()

    def test_stiff_case_names_the_reference_sample(self):
        grid = TimeGrid(0.0, 10.0, 101)
        control = gaussian_control(3.0, grid)
        stiff = CavityParams(gamma_s=5000.0, gamma_c=0.01, alpha=5.5)
        expected = first_unbounded_sample(reference_full, stiff, control, control)
        assert expected == 2
        with pytest.raises(InstabilityError, match=rf"at sample {expected} "):
            simulate(stiff, control, control)

    @pytest.mark.parametrize("model, reference", INTEGRATORS)
    @pytest.mark.parametrize("rate", np.geomspace(300.0, 1e5, 13).tolist())
    def test_divergence_is_named_at_the_reference_sample(
        self, model, reference, rate
    ):
        # dt = 0.1 puts either band's decay far outside the stability region
        grid = TimeGrid(0.0, 10.0, 101)
        control = gaussian_control(3.0, grid)
        stiff = CavityParams(gamma_s=rate, gamma_c=rate, alpha=5.5)
        expected = first_unbounded_sample(reference, stiff, control, control)
        assert expected is not None
        with pytest.raises(InstabilityError) as info:
            simulate(stiff, control, control, model)
        assert named_sample(info.value) == expected


def _combined(m, x):
    """The maps M and the drives V written into the state array ``x``, as one
    ``(dim, dim + m, n_steps)`` array: M_k is ``[:, :dim, k]``, V_k ``[:, dim:, k]``."""
    return np.concatenate((m, x[:, :, 1:]), axis=1)


def _step_maps(model, params, control, rows):
    """The step maps of ``model`` under drive ``rows``, laid out by :func:`_combined`."""
    dim = 2 if model == "full" else 1
    rhs = cavity._full_rhs if model == "full" else cavity._reduced_rhs
    x = np.empty((dim, len(rows), control.grid.n_samples), dtype=complex)
    return _combined(cavity._step_maps(rhs(params, control), dim, control, rows, x), x)


@pytest.mark.seeded
class TestDriveLinearStepMaps:
    """A single run steps its drive; a kernel steps P and Q. Two or more
    drive rows are stepped as the unit drives (1, 1/2, 0) and (0, 1/2, 1)
    to P and Q, and each row's maps match stepping that row alone."""

    @pytest.mark.parametrize("model", ["full", "reduced"])
    @pytest.mark.parametrize(
        "n", [2, 3, _STEP_BLOCK + 1, _STEP_BLOCK + 2, 2 * _STEP_BLOCK + 2]
    )
    @settings(max_examples=10, deadline=None)
    @given(
        params=cavity_params,
        m=st.sampled_from([2, 3]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_rows_match_stepping_each_alone(self, model, n, params, m, seed):
        # one and two steps and a last block of one or two steps: P and Q
        # are stepped per block, and the rows' products taken per block
        grid = TimeGrid(0.0, 10.0, n)
        rng = np.random.default_rng(seed)
        samples = rng.standard_normal((m + 1, n)) + 1j * rng.standard_normal((m + 1, n))
        control, rows = TemporalSignal(grid, samples[0]), samples[1:]
        dim = 2 if model == "full" else 1
        maps = _step_maps(model, params, control, rows)
        assert maps.shape == (dim, dim + m, n - 1)
        for j, row in enumerate(rows):
            alone = _step_maps(model, params, control, row[None])
            assert np.array_equal(maps[:, :dim], alone[:, :dim])
            v = alone[:, dim]
            assert np.abs(maps[:, dim + j] - v).max() <= 1e-14 * np.abs(v).max()

    @pytest.mark.parametrize("model", ["full", "reduced"])
    def test_undriven_leading_states_stay_positive_zero(self, model):
        # Under a complex control, P_k and Q_k have both parts, so a zero
        # drive steps to -0.0 in places; the states before the first driven
        # step are still the empty start, +0.0 in every bit.
        grid = TimeGrid(0.0, 10.0, 41)
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((4, 41)) + 1j * rng.standard_normal((4, 41))
        control, rows = TemporalSignal(grid, samples[0]), samples[1:]
        rows[:, :20] = 0.0
        par, dim = CavityParams(**BENCH), 2 if model == "full" else 1
        v = _step_maps(model, par, control, rows)[:, dim:, :19]
        assert not v.any() and (np.signbit(v.real) | np.signbit(v.imag)).any()
        x = cavity._integrate(par, model, control, rows)
        assert not x[:, :, :20].view(np.uint64).any()
        assert x[:, :, 20].all()


# rates from about 1e80 on overflow the RK4 stages: the maps hold inf and NaN
huge_rate = st.floats(1e60, 1e300)
overflowing_params = st.builds(
    CavityParams,
    gamma_s=st.floats(0.1, 20.0) | huge_rate,
    gamma_c=st.floats(0.0, 5.0) | huge_rate,
    alpha=st.just(0.0) | st.floats(0.01, 10.0) | st.floats(-10.0, -0.01),
    kappa_s=st.floats(0.0, 5.0) | huge_rate,
    kappa_c=st.floats(0.0, 5.0),
)


@st.composite
def step_map_inputs(draw, n, rows):
    """A control, chirped and complex or real with exact zeros, and ``rows``
    drive rows, each complex, real or all zero (of either sign)."""
    if n is None:
        n = draw(st.integers(2, 3000), label="n_samples")
    grid = TimeGrid(0.0, 10.0, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans(), label="chirped control"):
        control = _chirped_pulse(
            grid,
            center=draw(st.floats(2.0, 8.0)),
            width=draw(st.floats(0.5, 2.0)),
            chirp=draw(st.floats(-2.0, 2.0)),
            amplitude=draw(st.floats(0.1, 2.0)),
        )
    else:
        om = rng.standard_normal(n) * (rng.random(n) < 0.7)
        om[rng.random(n) < 0.1] = -0.0
        control = TemporalSignal(grid, om)
    drive = np.empty((rows, n), dtype=complex)
    kinds = st.sampled_from(["complex", "real", "zero", "negative zero"])
    for row in drive:
        kind = draw(kinds, label="drive row")
        row[:] = {
            "complex": rng.standard_normal(n) + 1j * rng.standard_normal(n),
            "real": rng.standard_normal(n),
            "zero": 0.0,
            "negative zero": -0.0,
        }[kind]
    return control, drive


@pytest.mark.seeded
class TestStepMapsMatchUnitVectorStepping:
    """The per-entry step maps are the bits of stepping the unit vectors and
    the drives through the whole rhs, as the generic stepper did: one row
    itself, two or more as the unit drives of P and Q."""

    @staticmethod
    def _assert_same_bits(model, params, control, drive):
        rhs = reference_full_rhs if model == "full" else reference_reduced_rhs
        dim = 2 if model == "full" else 1
        with np.errstate(all="ignore"):
            old = reference_step_maps(
                rhs(params), dim, control.grid.dt, control, drive
            )
            new = _step_maps(model, params, control, drive)
        assert new.shape == old.shape
        assert np.array_equal(new.view(np.uint64), old.view(np.uint64))
        return old

    @pytest.mark.parametrize("model", ["full", "reduced"])
    @pytest.mark.parametrize("rows", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "n", [2, 3, _STEP_BLOCK + 1, _STEP_BLOCK + 2, 2 * _STEP_BLOCK + 2, None]
    )
    @settings(max_examples=5, deadline=None)
    @given(params=overflowing_params, data=st.data())
    def test_maps_are_the_same_bits(self, model, rows, n, params, data):
        control, drive = data.draw(step_map_inputs(n, rows))
        self._assert_same_bits(model, params, control, drive)

    @pytest.mark.parametrize("model", ["full", "reduced"])
    @pytest.mark.parametrize("rows", [1, 3])
    def test_overflowing_stages_are_the_same_bits(self, model, rows):
        grid = TimeGrid(0.0, 10.0, 2 * _STEP_BLOCK + 2)
        control = _chirped_pulse(grid, 5.0, 1.0, 1.0, 2.0)
        drive = np.tile(_chirped_pulse(grid, 4.0, 1.5, -0.5, 1.0).values, (rows, 1))
        params = CavityParams(gamma_s=1e80, gamma_c=0.01, alpha=5.5, kappa_c=1e80)
        old = self._assert_same_bits(model, params, control, drive)
        assert np.isinf(old).any() and np.isnan(old).any() and np.isfinite(old).any()


@pytest.mark.seeded
class TestStepBlock:
    """Each map entry is elementwise per step, so the block size sets only
    how many numpy calls a build makes, never a bit of the maps."""

    @pytest.mark.parametrize("model", ["full", "reduced"])
    @pytest.mark.parametrize("rows", [1, 3])
    @settings(max_examples=5, deadline=None)
    @given(params=overflowing_params, data=st.data())
    def test_block_size_does_not_change_a_bit(self, model, rows, params, data):
        # three blocks of the current size and a remainder: six and more of 1024
        n = 3 * _STEP_BLOCK + 7
        control, drive = data.draw(step_map_inputs(n, rows))
        with np.errstate(all="ignore"):
            new = _step_maps(model, params, control, drive)
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(cavity, "_STEP_BLOCK", 1024)
                old = _step_maps(model, params, control, drive)
        assert _STEP_BLOCK != 1024 and cavity._STEP_BLOCK == _STEP_BLOCK
        assert np.array_equal(new.view(np.uint64), old.view(np.uint64))


scan_lengths = st.sampled_from(
    [1, 2, 3] + [2**k + d for k in range(2, 12) for d in (-1, 0, 1)]
) | st.integers(1, 3000)


@st.composite
def affine_steps(draw):
    """Random contractive maps M_k and drives V_k as (n, dim, dim), (n, dim, cols)."""
    n = draw(scan_lengths, label="n")
    dim, cols = draw(st.sampled_from([1, 2])), draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = rng.standard_normal((n, dim, dim)) + 1j * rng.standard_normal((n, dim, dim))
    m *= rng.uniform(0.0, 1.0, (n, 1, 1)) / np.linalg.norm(
        m, 2, axis=(1, 2), keepdims=True
    )
    v = rng.standard_normal((n, dim, cols)) + 1j * rng.standard_normal((n, dim, cols))
    return m, v


class TestAffineScan:
    """The odd-even scan solves the step-map recurrence of the integrators."""

    @settings(max_examples=60, deadline=None)
    @given(steps=affine_steps())
    def test_matches_a_step_by_step_loop(self, steps):
        m, v = steps
        x = np.zeros(v.shape[1:], dtype=complex)
        expected = []
        for m_k, v_k in zip(m, v):
            x = m_k @ x + v_k
            expected.append(x)
        expected = np.stack(expected, axis=2)
        got = v.transpose(1, 2, 0).copy()
        cavity._affine_scan(m.transpose(1, 2, 0), got)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    def test_undriven_expansive_stretch_stays_on_the_scan(self, monkeypatch):
        # A strong control pulse at t = 2 makes the steps around it expansive
        # in both models, so their composed maps overflow, while the drive is
        # exactly 0 until t = 5. The state is exactly 0 there too, so the
        # runs stay finite, agree with the loops, and need no forward
        # stepping: O(log n) map products per run, not one per sample.
        grid = TimeGrid(0.0, 10.0, 1001)
        t = grid.times
        control = TemporalSignal(grid, 200.0 * np.exp(-((t - 2.0) ** 2)))
        late = np.where(t >= 5.0, np.exp(-((t - 7.0) ** 2)), 0.0)
        first = normalize(TemporalSignal(grid, late))
        raw = TemporalSignal(grid, (t - 7.0) * first.values)
        second = raw.values - inner_product(first, raw) * first.values
        basis = np.array([first.values, normalize(TemporalSignal(grid, second)).values])
        par = CavityParams(**BENCH)
        products = []
        apply = cavity._apply
        monkeypatch.setattr(
            cavity, "_apply", lambda m, x: products.append(1) or apply(m, x)
        )
        c_out_weight = np.sqrt(2.0 * par.gamma_c * quadrature_weights(grid))
        for model, reference in INTEGRATORS:
            expected = np.empty((grid.n_samples + 1, len(basis)), complex)
            for j, row in enumerate(basis):
                mode = TemporalSignal(grid, row)
                traj = simulate(par, control, mode, model)
                old_s, old_c = reference(par, control, mode)
                for new, old in ((traj.S.values, old_s), (traj.C.values, old_c)):
                    assert np.isfinite(new).all()
                    assert np.abs(new - old).max() <= 1e-12 * np.abs(old).max()
                expected[0, j], expected[1:, j] = old_c[-1], c_out_weight * old_c
            matrix = green_kernel(par, control, basis, model=model).response_matrix
            assert np.abs(matrix - expected).max() <= 1e-12 * np.abs(expected).max()
        runs = 2 * (len(basis) + 1)
        assert len(products) <= runs * 3 * math.ceil(math.log2(grid.n_samples))


class TestPhysicsProperties:
    """Invariants of the model on the default grid, over drawn parameters."""

    @pytest.mark.parametrize("model", MODELS)
    @settings(max_examples=20, deadline=None)
    @given(
        a=st.complex_numbers(max_magnitude=3.0),
        b=st.complex_numbers(max_magnitude=3.0),
    )
    def test_linear_in_the_signal(self, grid10, control, model, a, b):
        par = CavityParams(**BENCH, kappa_s=0.2)
        s1 = hermite_gaussian(0, 4.0, grid10)
        s2 = hermite_gaussian(2, 5.0, grid10)
        mix = TemporalSignal(grid10, a * s1.values + b * s2.values)
        t1 = simulate(par, control, s1, model)
        t2 = simulate(par, control, s2, model)
        tm = simulate(par, control, mix, model)
        for field in ("S", "C", "S_out", "C_out"):
            combined = a * getattr(t1, field).values + b * getattr(t2, field).values
            assert np.abs(getattr(tm, field).values - combined).max() < 1e-9

    @pytest.mark.parametrize("model", MODELS)
    def test_linear_down_to_tiny_drives(self, control, opt_mode, model):
        # the step drives' squares (~1e-327) underflow to 0 here, the
        # states' squares do not: the passivity check must not square
        par = CavityParams(**BENCH)
        tiny = TemporalSignal(opt_mode.grid, 1e-161 * opt_mode.values)
        want = simulate(par, control, opt_mode, model)
        got = simulate(par, control, tiny, model)
        for field in ("S", "C"):
            scaled = 1e161 * getattr(got, field).values
            assert np.abs(scaled - getattr(want, field).values).max() < 1e-12

    @pytest.mark.seeded
    @pytest.mark.parametrize("model", MODELS)
    @settings(max_examples=20, deadline=None)
    @given(
        alpha=st.floats(0.0, 8.0),
        gamma_s=st.floats(5.0, 15.0),
        center=st.floats(2.9, 7.0),
        order=st.integers(0, 3),
        kappa_s=st.floats(0.05, 2.0),
    )
    # the input is still on at the window's end, where a one-band model's
    # S is a pass-through of it, not a store
    @example(alpha=0.0, gamma_s=5.0, center=7.0, order=0, kappa_s=0.05)
    # the closed form's trapezoid floor is 1.5e-5 at this corner of the draws
    @example(alpha=8.0, gamma_s=5.0, center=5.0, order=0, kappa_s=0.05)
    def test_photon_balance(
        self, grid10, model, alpha, gamma_s, center, order, kappa_s
    ):
        def residual(grid, params):
            control = gaussian_control(center, grid)
            s_in = hermite_gaussian(order, center, grid)
            return conservation_residual(simulate(params, control, s_in, model))

        lossless = CavityParams(gamma_s=gamma_s, gamma_c=0.01, alpha=alpha)
        balance = residual(grid10, lossless)
        if model == "analytic" and not balance < 1e-5:
            # the trapezoid's second-order floor falls about 4x when dt
            # halves; a true imbalance does not fall with dt
            fine = TimeGrid(grid10.t_start, grid10.t_end, 2 * grid10.n_samples - 1)
            assert 3.5 * residual(fine, lossless) <= balance
        else:
            assert balance < 1e-5
        lossy = CavityParams(
            gamma_s=gamma_s, gamma_c=0.01, alpha=alpha, kappa_s=kappa_s
        )
        assert residual(grid10, lossy) > 0.0

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
        family = polynomial_family(seed, order, center)
        matched = abs(simulate(params, control, seed, "analytic").C.values[-1]) ** 2
        mode = TemporalSignal(grid, family[order])
        orthogonal = abs(simulate(params, control, mode, "analytic").C.values[-1]) ** 2
        assert orthogonal <= 1e-20 * matched
        traj = simulate(params, control, mode)
        assert unconverted_energy(traj).value > 0.95
