"""Diagnostics, kernel decomposition, coupling sweep, and unit conversion."""

import dataclasses
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcavity import (
    CavityParams,
    GridMismatchError,
    InstabilityError,
    NonOrthonormalBasisError,
    TemporalSignal,
    TimeGrid,
    UndefinedResidualError,
    conservation_residual,
    gaussian_control,
    green_kernel,
    hermite_gaussian,
    inner_product,
    normalize,
    optimal_input_mode,
    physical_units,
    polynomial_family,
    quadrature_weights,
    scan_alpha,
    simulate,
    unconverted_energy,
)
from tmcavity import analysis, signals
from tmcavity.cavity import _STEP_BLOCK

from reference_loops import (
    first_unbounded_sample,
    named_sample,
    reference_full,
    reference_reduced,
)

BENCH = dict(gamma_s=10.1, gamma_c=0.01, alpha=5.5)


class TestUnconvertedEnergy:
    def test_benchmark_value_and_plateau(self, traj_gaussian_input):
        w = unconverted_energy(traj_gaussian_input)
        assert w.value == pytest.approx(0.36, abs=0.04)
        assert w.plateaued

    def test_no_coupling_everything_leaves_unconverted(self, control):
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=0.0)
        traj = simulate(par, control, control)
        assert unconverted_energy(traj).value == pytest.approx(1.0, abs=1e-6)

    def test_reduced_model_matches_exponential_law(self, control, opt_mode):
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=5.5)
        traj = simulate(par, control, opt_mode, "reduced")
        expected = math.exp(-2.0 * par.f_s)
        assert expected == pytest.approx(0.0025, abs=1e-4)
        assert unconverted_energy(traj).value == pytest.approx(expected, abs=1e-4)

    def test_window_cut_during_activity_is_flagged(self):
        # input arrives so late that the reflected output is still large
        # when the window closes
        grid = TimeGrid(0.0, 6.0, 6001)
        control = gaussian_control(3.0, grid)
        late_input = hermite_gaussian(0, 5.0, grid)
        par = CavityParams(**BENCH)
        traj = simulate(par, control, late_input)
        w = unconverted_energy(traj)
        assert not w.plateaued
        assert w.tail_fraction >= 1e-3


class TestConservationResidual:
    def test_lossless_balance_closes(self, traj_optimal_input):
        assert conservation_residual(traj_optimal_input) < 1e-5

    def test_internal_loss_breaks_the_balance(self, grid10):
        par = CavityParams(**BENCH, kappa_s=1.0)
        control = gaussian_control(3.0, grid10)
        traj = simulate(par, control, control)
        assert conservation_residual(traj) > 0.01

    def test_zero_input_is_undefined(self, bench_params, grid10, control):
        zero = TemporalSignal(grid10, np.zeros(grid10.n_samples))
        traj = simulate(bench_params, control, zero)
        with pytest.raises(UndefinedResidualError):
            conservation_residual(traj)

    def test_overflowing_output_energy_is_inf_without_a_warning(self):
        # alpha 1 of test_non_finite_w_out_counts_as_diverged: a finite S_out
        # past 1.3e154, whose energy squares to inf
        grid = TimeGrid(0.0, 1.0, 2)
        control = TemporalSignal(grid, np.ones(2))
        par = CavityParams(gamma_s=1e39, gamma_c=0.0, alpha=1.0)
        traj = simulate(par, control, normalize(optimal_input_mode(par, control)))
        assert np.abs(traj.S_out.values).max() > 1.3e154
        assert unconverted_energy(traj).value == math.inf
        assert conservation_residual(traj) == math.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("model", ["full", "reduced", "analytic"])
    def test_overflowing_input_energy_is_undefined_without_a_warning(self, model):
        # |S_in|^2 = 1e320 overflows, as unconverted_energy's |S_out|^2 does
        grid = TimeGrid(0.0, 1.0, 3)
        ones = TemporalSignal(grid, np.ones(3))
        traj = simulate(
            CavityParams(gamma_s=1.0, gamma_c=0.0, alpha=1.0),
            ones,
            TemporalSignal(grid, 1e160 * np.ones(3)),
            model,
        )
        assert unconverted_energy(traj).value == math.inf
        with pytest.raises(UndefinedResidualError, match="input energy overflows"):
            conservation_residual(traj)


class TestGreenKernel:
    def test_closed_form_kernel_is_rank_one(self, kernel_report_analytic):
        sv = kernel_report_analytic.singular_values
        assert sv[1] / sv[0] < 1e-6
        assert kernel_report_analytic.schmidt_number < 1.0 + 1e-6

    @pytest.mark.parametrize("alpha", [1e4, 1e100])
    def test_closed_form_kernel_is_rank_one_at_any_coupling(
        self, control, family8, alpha
    ):
        # exp(f_s eps) would overflow here; the stepped closed form does not,
        # and nothing leaks, so only the C(end) row is nonzero
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=alpha)
        report = green_kernel(par, control, family8, model="analytic")
        assert np.isfinite(report.response_matrix).all()
        assert not report.response_matrix[1:].any()
        assert report.response_matrix[0].any()
        assert report.schmidt_number == 1.0

    def test_closed_form_rank_one_on_plain_hg_basis(self):
        # wide window so a pure Hermite-Gauss basis is orthonormal on-grid
        grid = TimeGrid(-6.0, 16.0, 8001)
        control = gaussian_control(3.0, grid)
        par = CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=5.5)
        basis = np.array([hermite_gaussian(n, 5.0, grid).values for n in range(8)])
        report = green_kernel(par, control, basis, model="analytic")
        sv = report.singular_values
        assert sv[1] / sv[0] < 1e-6

    def test_rank_one_schmidt_number_is_not_rejected_by_rounding(self):
        # At these inputs the exact rank-1 kernel's Schmidt number rounds to
        # 1 ulp below 1; it is 1 by Cauchy-Schwarz and must be reported so.
        center = 3.2055098475906454
        grid = TimeGrid(0.0, 10.0, 10001)
        par = CavityParams(gamma_s=10.30846024216234, gamma_c=0.01, alpha=5.280618546467441)
        control = gaussian_control(center, grid)
        seed = normalize(optimal_input_mode(par, control))
        basis = polynomial_family(seed, 47, center)
        report = green_kernel(par, control, basis, model="analytic")
        assert report.schmidt_number == 1.0

    def test_full_model_contrast(self, kernel_report_full):
        eff = kernel_report_full.conversion_efficiencies
        assert eff[0] >= 0.97
        assert np.all(eff[1:] <= 0.03)
        assert eff[0] / eff[1] >= 40.0

    def test_reduced_model_kernel_is_strongly_dominated(
        self, bench_params, control, family8
    ):
        report = green_kernel(bench_params, control, family8, model="reduced")
        eff = report.conversion_efficiencies
        assert eff[0] >= 0.97
        assert np.all(np.diff(report.singular_values) <= 0.0)
        assert eff[0] / eff[1] >= 40.0

    def test_singular_values_are_the_response_matrix_spectrum(
        self, bench_params, control, opt_seed
    ):
        # the paper point's reduced/48 kernel, decomposed through its R factor
        family = polynomial_family(opt_seed, 47, 3.0)
        report = green_kernel(bench_params, control, family, model="reduced")
        direct = np.linalg.svd(report.response_matrix, compute_uv=False)
        assert np.abs(report.singular_values - direct).max() <= 1e-15 * direct[0]

    @pytest.mark.seeded
    def test_paper_point_spectrum_is_reproducible(self, bench_params, control, opt_seed):
        # a relative 1e-16 nudge moves some seed samples by one ulp; the
        # reduced/48 spectrum may move only by rounding (the QR of the
        # monomials moved sigma_1..sigma_8 by 1.1e-7)
        rng = np.random.default_rng(0)
        noise = 1e-16 * rng.standard_normal(control.grid.n_samples)
        nudged = TemporalSignal(control.grid, opt_seed.values * (1.0 + noise))
        assert not np.array_equal(nudged.values, opt_seed.values)
        sv = [
            green_kernel(
                bench_params, control, polynomial_family(seed, 47, 3.0), model="reduced"
            ).singular_values[:8]
            for seed in (opt_seed, nudged)
        ]
        assert np.abs(sv[1] / sv[0] - 1.0).max() < 1e-12

    def test_no_coupling_kills_every_singular_value(self, control, family8):
        par = CavityParams(gamma_s=10.1, gamma_c=0.01, alpha=0.0)
        report = green_kernel(par, control, family8, model="full")
        assert np.all(report.singular_values == 0.0)
        assert report.schmidt_number == 1.0

    def test_report_reassembles_the_response_matrix(
        self, kernel_report_full, grid10, family8
    ):
        report = kernel_report_full
        matrix = report.response_matrix
        # recover the right-singular coefficient vectors from the mapped-back
        # signals, then rebuild the kernel from its singular triples
        bases = [TemporalSignal(grid10, row) for row in family8]
        rebuilt = np.zeros_like(matrix)
        for row in report.input_modes:
            mode = TemporalSignal(grid10, row)
            coeffs = np.array([inner_product(base, mode) for base in bases])
            response = matrix @ coeffs
            rebuilt += np.outer(response, np.conj(coeffs))
        rel = np.linalg.norm(rebuilt - matrix) / np.linalg.norm(matrix)
        assert rel < 1e-9

    def test_dominant_mode_recovers_the_matched_input(
        self, kernel_report_analytic, opt_mode
    ):
        dominant = TemporalSignal(opt_mode.grid, kernel_report_analytic.input_modes[0])
        fidelity = abs(inner_product(dominant, normalize(opt_mode))) ** 2
        assert fidelity > 0.999

    def test_small_basis_rejected(self, bench_params, control, opt_seed):
        with pytest.raises(ValueError):
            green_kernel(
                bench_params, control, np.array([opt_seed.values]), model="full"
            )

    def test_one_dimensional_basis_is_rejected(self, bench_params, control, opt_seed):
        with pytest.raises(GridMismatchError):
            green_kernel(bench_params, control, opt_seed.values)

    def test_non_orthonormal_basis_is_rejected(self, bench_params, control, opt_seed):
        duplicated = np.array([opt_seed.values, opt_seed.values])
        with pytest.raises(NonOrthonormalBasisError):
            green_kernel(bench_params, control, duplicated)

    def test_non_finite_basis_is_rejected(self, bench_params, control, family8):
        basis = family8[:2].copy()
        basis[0, 5] = np.nan
        with pytest.raises(NonOrthonormalBasisError):
            green_kernel(bench_params, control, basis)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, 1e200], ids=["inf", "1e200"])
    def test_huge_or_infinite_row_is_rejected_without_a_warning(self, bad):
        # the weighting must not raise a numpy RuntimeWarning before the check
        grid = TimeGrid(0.0, 10.0, 11)
        seed = normalize(TemporalSignal(grid, np.exp(-((grid.times - 5.0) ** 2))))
        row = np.zeros(grid.n_samples)
        row[5] = bad
        with pytest.raises(NonOrthonormalBasisError):
            green_kernel(CavityParams(**BENCH), seed, np.array([seed.values, row]))

    def test_gram_check_reads_the_complex_gram(self, bench_params, control, family8):
        # the real product of the stacked [Re; Im] rows reports the deviation
        # of the complex Gram conj(B) W B^T from the identity
        basis = family8[:3].copy()
        basis[1] += 1e-6j * basis[0]
        gram = (np.conj(basis) * quadrature_weights(control.grid)) @ basis.T
        want = np.abs(gram - np.eye(3)).max()
        with pytest.raises(NonOrthonormalBasisError) as info:
            green_kernel(bench_params, control, basis)
        assert float(str(info.value).split()[-1]) == pytest.approx(want, rel=1e-3)

    @pytest.mark.parametrize("model", ["full", "reduced"])
    def test_row_blocked_r_gives_the_one_block_input_modes(
        self, bench_params, control, family8, model, monkeypatch
    ):
        # the blocked and the one-block R differ by rounding and a phase per
        # row, and the SVD picks each right vector's phase; the rule pins it
        blocked = green_kernel(bench_params, control, family8, model=model)
        monkeypatch.setattr(analysis, "_QR_ROWS", control.grid.n_samples + 1)
        one = green_kernel(bench_params, control, family8, model=model)
        assert np.array_equal(blocked.response_matrix, one.response_matrix)
        assert np.abs(blocked.singular_values - one.singular_values).max() <= 1e-15
        assert np.abs(blocked.input_modes - one.input_modes).max() <= 1e-12

    def test_input_modes_lead_with_a_real_positive_coefficient(
        self, kernel_report_full, control, family8
    ):
        w = quadrature_weights(control.grid)
        coeffs = kernel_report_full.input_modes @ (np.conj(family8) * w).T
        top = coeffs[np.arange(len(coeffs)), np.abs(coeffs).argmax(axis=1)]
        assert (top.real > 0.0).all()
        assert np.abs(top.imag).max() <= 1e-12

    def test_kernel_peaks_below_three_basis_arrays(self, bench_params, control, opt_seed):
        # the states, into which the step drives are built, and then the
        # response matrix are the two basis-sized arrays the kernel needs;
        # combined step maps, scan copies or a whole-matrix QR copy add more
        basis = polynomial_family(opt_seed, 47, 3.0)
        gc.collect()
        tracemalloc.start()
        try:
            green_kernel(bench_params, control, basis, model="reduced")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * basis.nbytes

    def test_memory_order_of_the_basis_is_invisible(self):
        grid = TimeGrid(0.0, 10.0, 2001)
        params = CavityParams(**BENCH)
        control = gaussian_control(3.0, grid)
        basis = _random_family(grid, 5, 0)
        assert basis.flags.f_contiguous and not basis.flags.c_contiguous
        got = green_kernel(params, control, basis)
        want = green_kernel(params, control, np.ascontiguousarray(basis))
        for field in dataclasses.fields(got):
            assert np.array_equal(getattr(got, field.name), getattr(want, field.name))

    @pytest.mark.parametrize("model", ["exact", "Full"])
    def test_unknown_model_rejected(
        self, bench_params, control, opt_seed, family8, model
    ):
        # one check on the path every model name takes
        scan = dict(gamma_s=10.1, gamma_c=0.01, control=control, model=model)
        with pytest.raises(ValueError, match="model must be one of"):
            green_kernel(bench_params, control, family8, model=model)
        with pytest.raises(ValueError, match="model must be one of"):
            simulate(bench_params, control, opt_seed, model)
        with pytest.raises(ValueError, match="model must be one of"):
            scan_alpha([1.0, 2.0, 3.0], **scan)

    @pytest.mark.parametrize("model", ["full", "reduced", "analytic"])
    @pytest.mark.parametrize(
        "basis_grid", [TimeGrid(0.0, 12.0, 2001), TimeGrid(0.0, 10.0, 1001)]
    )
    def test_basis_on_another_grid_is_rejected(self, model, basis_grid):
        # A basis array carries no grid. Another sample count is the wrong
        # shape; another dt on 2001 samples scales every energy by 10/12 on
        # the control's grid, which the orthonormality check sees.
        error = {1001: GridMismatchError, 2001: NonOrthonormalBasisError}
        params = CavityParams(**BENCH)
        control = gaussian_control(3.0, TimeGrid(0.0, 10.0, 2001))
        seed = normalize(optimal_input_mode(params, gaussian_control(3.0, basis_grid)))
        basis = polynomial_family(seed, 3, 3.0)
        with pytest.raises(error[basis_grid.n_samples]):
            green_kernel(params, control, basis, model=model)


def _chirped_control(grid, center, width, chirp):
    u = grid.times - center
    return TemporalSignal(grid, np.exp(-((u / width) ** 2) + 1j * chirp * u**2))


def _random_family(grid, m, seed):
    # orthonormal columns of a QR become trapezoid-orthonormal rows once
    # divided by the square-root weights
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((grid.n_samples, m)) + 1j * rng.standard_normal(
        (grid.n_samples, m)
    )
    q = np.linalg.qr(raw)[0]
    return q.T / np.sqrt(quadrature_weights(grid))


REFERENCES = {"full": reference_full, "reduced": reference_reduced}


def _earliest_unbounded_sample(model, params, control, basis):
    named = (
        first_unbounded_sample(
            REFERENCES[model], params, control, TemporalSignal(control.grid, row)
        )
        for row in basis
    )
    return min((k for k in named if k is not None), default=None)


@st.composite
def kernel_inputs(draw):
    n = draw(
        st.sampled_from(
            [2, _STEP_BLOCK, _STEP_BLOCK + 1, _STEP_BLOCK + 2, 2 * _STEP_BLOCK + 1]
        )
        | st.integers(2, 3000),
        label="n_samples",
    )
    grid = TimeGrid(0.0, 10.0, n)
    params = CavityParams(
        gamma_s=draw(st.floats(0.1, 20.0)),
        gamma_c=draw(st.floats(0.0, 5.0)),
        alpha=draw(st.just(0.0) | st.floats(0.01, 10.0) | st.floats(-10.0, -0.01)),
        kappa_s=draw(st.floats(0.0, 5.0)),
        kappa_c=draw(st.floats(0.0, 5.0)),
    )
    control = _chirped_control(
        grid,
        center=draw(st.floats(2.0, 8.0)),
        width=draw(st.floats(0.5, 2.0)),
        chirp=draw(st.floats(-2.0, 2.0)),
    )
    m = min(draw(st.integers(2, 12), label="m"), n)
    basis = _random_family(grid, m, draw(st.integers(0, 2**32 - 1)))
    return params, control, basis


@pytest.mark.seeded
class TestBatchedKernelMatchesSingleRuns:
    """The kernel's one batched pass reproduces one single run per mode."""

    @pytest.mark.parametrize("model", ["full", "reduced", "analytic"])
    @settings(max_examples=30, deadline=None)
    @given(inputs=kernel_inputs())
    def test_columns_match_per_mode_runs(self, model, inputs):
        # An expansive draw fails the kernel with the error of its single run
        # that fails earliest, at the sample where the loop outgrows its drive.
        # The closed form leaks nothing: its column is C(end) over zeros.
        params, control, basis = inputs
        grid = control.grid
        sqw = np.sqrt(quadrature_weights(grid))
        expected = np.zeros((grid.n_samples + 1, len(basis)), complex)
        failures = []
        for j, row in enumerate(basis):
            mode = TemporalSignal(grid, row)
            try:
                traj = simulate(params, control, mode, model)
            except InstabilityError as exc:
                failures.append((named_sample(exc), str(exc), mode))
                continue
            expected[0, j] = traj.C.values[-1]
            expected[1:, j] = sqw * traj.C_out.values
        if failures:
            sample, message, mode = min(failures, key=lambda f: f[0])
            reference = REFERENCES[model]
            assert first_unbounded_sample(reference, params, control, mode) == sample
            with pytest.raises(InstabilityError) as info:
                green_kernel(params, control, basis, model=model)
            assert str(info.value) == message
            return
        matrix = green_kernel(params, control, basis, model=model).response_matrix
        if model == "analytic":
            # one scan over the same maps, row by row or batched
            assert np.array_equal(matrix, expected)
            return
        assert np.abs(matrix - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "model, stiff",
        [
            ("full", CavityParams(gamma_s=5000.0, gamma_c=0.01, alpha=5.5)),
            ("reduced", CavityParams(gamma_s=10.1, gamma_c=5000.0, alpha=5.5)),
        ],
    )
    def test_stiff_kernel_names_the_earliest_bad_sample(self, model, stiff):
        grid = TimeGrid(0.0, 10.0, 101)
        control = gaussian_control(3.0, grid)
        seed = normalize(optimal_input_mode(stiff, control))
        basis = polynomial_family(seed, 7, 3.0)
        expected = _earliest_unbounded_sample(model, stiff, control, basis)
        assert expected == 2
        with pytest.raises(InstabilityError, match=rf"at sample {expected} "):
            green_kernel(stiff, control, basis, model=model)

    def test_large_coupling_kernel_names_the_stepped_sample(self):
        # On 301 samples the reduced steps 69..111 near the pulse peak are
        # expansive at this coupling. Modes 6 and 7 reach into them, and the
        # states outgrow the drive at the last one while all stay finite.
        control = gaussian_control(3.0, TimeGrid(0.0, 10.0, 301))
        params = CavityParams(gamma_s=0.125, gamma_c=0.0, alpha=6.0)
        seed = normalize(optimal_input_mode(params, control))
        basis = polynomial_family(seed, 7, 3.0)
        expected = _earliest_unbounded_sample("reduced", params, control, basis)
        assert expected == 111
        with pytest.raises(InstabilityError, match=rf"at sample {expected} "):
            green_kernel(params, control, basis, model="reduced")

    @pytest.mark.parametrize("seed", range(5))
    def test_expansive_kernel_has_a_finite_schmidt_number(self, seed):
        # expansive reduced steps; a Schmidt number here would rest on a
        # singular value near 1e113, which no passive cavity can produce
        grid = TimeGrid(0.0, 10.0, 1024)
        control = TemporalSignal(grid, np.exp(-((grid.times - 1.0) ** 2)))
        params = CavityParams(gamma_s=0.125, gamma_c=0.0, alpha=9.0)
        basis = _random_family(grid, 2, seed)
        expected = _earliest_unbounded_sample("reduced", params, control, basis)
        with pytest.raises(InstabilityError, match=rf"at sample {expected} "):
            green_kernel(params, control, basis, model="reduced")


@pytest.fixture(scope="module")
def coarse_scan(control):
    alphas = [0.5 + 0.5 * k for k in range(20)]
    return scan_alpha(
        alphas,
        gamma_s=BENCH["gamma_s"],
        gamma_c=BENCH["gamma_c"],
        control=control,
        model="full",
    )


class TestScanAlpha:
    def test_optimum_location_and_nonmonotonicity(self, coarse_scan):
        assert coarse_scan.best_alpha == pytest.approx(5.5, abs=0.5)
        w = dict(zip(coarse_scan.alphas, coarse_scan.w_out))
        assert w[8.0] > coarse_scan.best_w_out

    def test_closed_form_curve_is_strictly_decreasing(self):
        # finer quadrature: the curve tail sits at the 1e-9 scale, below
        # the default grid's trapezoid floor
        grid = TimeGrid(0.0, 10.0, 40001)
        control = gaussian_control(3.0, grid)
        alphas = [0.5 + 0.5 * k for k in range(20)]
        scan = scan_alpha(
            alphas,
            gamma_s=BENCH["gamma_s"],
            gamma_c=0.0,
            control=control,
            model="analytic",
        )
        assert np.all(np.diff(scan.w_out) < 0.0)
        for a, w in zip(scan.alphas, scan.w_out):
            assert w == pytest.approx(math.exp(-2.0 * a**2 / 10.1), abs=1e-4)

    @pytest.mark.seeded
    @pytest.mark.parametrize("model", ["full", "reduced", "analytic"])
    @settings(max_examples=5, deadline=None)
    @given(
        shape=st.tuples(
            st.floats(2.0, 5.0), st.floats(0.5, 1.5), st.floats(-1.0, 1.0)
        ),
        alphas=st.lists(st.floats(0.5, 10.0), min_size=3, max_size=3, unique=True),
        gamma_s=st.floats(5.0, 20.0),
    )
    def test_points_equal_one_off_runs_bit_for_bit(
        self, model, shape, alphas, gamma_s
    ):
        # the scan reuses its control's pulse area across points; a one-off
        # run builds its own control, and so its own area, from scratch
        grid = TimeGrid(0.0, 10.0, 1001)
        center, width, chirp = shape

        def build_control():
            u = grid.times - center
            return TemporalSignal(grid, np.exp(-((u / width) ** 2) + 1j * chirp * u**2))

        alphas = sorted(alphas)
        kw = dict(gamma_s=gamma_s, gamma_c=0.01, model=model)
        # a scan on another control, kept alive: its area must not be reused
        other = gaussian_control(6.0, grid)
        scan_alpha(alphas, control=other, **kw)
        scan = scan_alpha(alphas, control=build_control(), **kw)
        for alpha, w in zip(alphas, scan.w_out):
            params = CavityParams(gamma_s=gamma_s, gamma_c=0.01, alpha=alpha)
            control = build_control()
            mode = normalize(optimal_input_mode(params, control))
            try:
                traj = simulate(params, control, mode, model)
                one_off = (
                    1.0 - abs(traj.C.values[-1]) ** 2
                    if model == "analytic"
                    else unconverted_energy(traj).value
                )
            except InstabilityError:
                one_off = math.nan
            if not 0.0 <= one_off < math.inf:
                one_off = math.nan
            assert np.float64(w).view(np.uint64) == np.float64(one_off).view(np.uint64)

    @pytest.mark.seeded
    def test_scan_leaves_no_pulse_area_behind(self):
        gc.collect()
        held = len(signals._PULSE_AREAS)
        control = gaussian_control(3.0, TimeGrid(0.0, 10.0, 501))
        for model in ("full", "analytic"):
            scan_alpha([1.0, 2.0, 3.0], gamma_s=10.1, gamma_c=0.0,
                       control=control, model=model)
        assert len(signals._PULSE_AREAS) == held + 1
        ref = weakref.ref(control)
        del control
        gc.collect()
        assert ref() is None and len(signals._PULSE_AREAS) == held

    def test_grid_validation(self, control):
        kw = dict(gamma_s=10.1, gamma_c=0.01, control=control)
        with pytest.raises(ValueError):
            scan_alpha([1.0, 2.0], **kw)
        with pytest.raises(ValueError):
            scan_alpha([1.0, 2.0, 2.0], **kw)

    def test_refining_the_grid_moves_the_optimum_by_at_most_one_step(
        self, control
    ):
        kw = dict(
            gamma_s=BENCH["gamma_s"],
            gamma_c=BENCH["gamma_c"],
            control=control,
            model="full",
        )
        coarse = scan_alpha([4.0 + 0.5 * k for k in range(7)], **kw)
        fine = scan_alpha([4.0 + 0.25 * k for k in range(13)], **kw)
        assert abs(coarse.best_alpha - fine.best_alpha) <= 0.5

    def test_diverging_points_are_excluded(self, monkeypatch):
        # RK4 stays finite at every matched input tried at gamma_s = 10.1, so
        # the alpha = 400 run is made to diverge
        def run(params, control, mode, model):
            if params.alpha == 400.0:
                raise InstabilityError("integration diverged")
            return simulate(params, control, mode, model)

        monkeypatch.setattr(analysis, "simulate", run)
        grid = TimeGrid(0.0, 10.0, 101)
        control = gaussian_control(3.0, grid)
        scan = scan_alpha(
            [1.0, 2.0, 400.0],
            gamma_s=10.1,
            gamma_c=0.01,
            control=control,
            model="full",
        )
        assert scan.diverged[-1]
        assert math.isnan(scan.w_out[-1])
        assert scan.best_alpha in (1.0, 2.0)

    def test_every_point_outgrowing_its_drive_raises(self):
        # dt = 0.1 against gamma_s = 100: each run's states outgrow the drive
        grid = TimeGrid(0.0, 10.0, 101)
        control = gaussian_control(3.0, grid)
        with pytest.raises(InstabilityError, match="every scan point diverged"):
            scan_alpha(
                [1.0, 2.0, 400.0],
                gamma_s=100.0,
                gamma_c=0.01,
                control=control,
                model="full",
            )

    def test_non_finite_w_out_counts_as_diverged(self):
        # One RK4 step with gamma_s dt = 1e39: the state is its own step
        # drive, so it keeps the bound, but |S_out|^2 overflows at alpha 1,
        # to inf and without a numpy warning
        grid = TimeGrid(0.0, 1.0, 2)
        control = TemporalSignal(grid, np.ones(2))
        scan = scan_alpha(
            [1.0, 1e20, 1e39],
            gamma_s=1e39,
            gamma_c=0.0,
            control=control,
            model="full",
        )
        assert scan.diverged[0] and math.isnan(scan.w_out[0])
        assert scan.best_alpha != 1.0

    def test_negative_w_out_counts_as_diverged(self, control):
        # at alpha 1e6 the grid no longer resolves exp(f_s eps) and the
        # closed form's 1 - |C(end)|^2 comes out negative, which no energy is
        scan = scan_alpha(
            [100.0, 1e3, 1e4, 1e5, 1e6],
            gamma_s=BENCH["gamma_s"],
            gamma_c=0.0,
            control=control,
            model="analytic",
        )
        assert scan.diverged == (False, False, False, False, True)
        assert all(w > 0.0 for w in scan.w_out[:4])
        assert scan.best_alpha == 100.0

    @pytest.mark.parametrize("model", ["full", "reduced", "analytic"])
    def test_strong_coupling_is_never_diverged(self, control, model):
        # 2 f_s reaches 1267 at alpha = 80; the analytic W_out follows
        # exp(-2 f_s) down to the window's quadrature floor
        alphas = [0.5, 5.5, 30.0, 61.0, 70.0, 80.0]
        gamma_c = 0.0 if model == "analytic" else BENCH["gamma_c"]
        scan = scan_alpha(
            alphas, gamma_s=BENCH["gamma_s"], gamma_c=gamma_c,
            control=control, model=model,
        )
        assert not any(scan.diverged)
        assert all(0.0 <= w <= 1.0 for w in scan.w_out)
        if model == "analytic":
            for a, w in zip(alphas, scan.w_out):
                assert w == pytest.approx(math.exp(-2.0 * a**2 / 10.1), abs=1e-5)


class TestPhysicalUnits:
    def test_benchmark_rates_and_quality_factors(self):
        par = CavityParams(**BENCH)
        rep = physical_units(100e-12, 1550e-9, 775e-9, par)
        assert rep.rate_s == pytest.approx(1.01e11, rel=1e-2)
        assert rep.rate_c == pytest.approx(1.0e8, rel=1e-2)
        assert rep.Q_s == pytest.approx(6020.0, rel=0.01)
        assert rep.Q_c == pytest.approx(1.2e7, rel=0.02)

    def test_lifetimes(self):
        par = CavityParams(**BENCH)
        rep = physical_units(100e-12, 1550e-9, 775e-9, par)
        assert rep.lifetime_s == pytest.approx(10e-12, rel=0.02)
        assert rep.lifetime_c == pytest.approx(10e-9, rel=0.02)

    def test_unit_time_one_is_the_identity_scaling(self):
        par = CavityParams(**BENCH)
        rep = physical_units(1.0, 1550e-9, 775e-9, par)
        assert rep.rate_s == par.gamma_s
        assert rep.rate_c == par.gamma_c

    def test_rejects_nonpositive_inputs(self):
        par = CavityParams(**BENCH)
        with pytest.raises(ValueError):
            physical_units(0.0, 1550e-9, 775e-9, par)
        with pytest.raises(ValueError):
            physical_units(1.0, -1e-6, 775e-9, par)
