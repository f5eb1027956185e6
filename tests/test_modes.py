"""Pulse construction, mode families, and orthogonalization contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tmcavity import (
    CavityParams,
    DegenerateBasisError,
    NonOrthonormalBasisError,
    TemporalSignal,
    TimeGrid,
    UnsupportedOrderError,
    WindowClippingError,
    gaussian_control,
    gram_schmidt_family,
    green_kernel,
    hermite_gaussian,
    inner_product,
    normalize,
    optimal_input_mode,
    polynomial_raw_basis,
    quadrature_weights,
    simulate,
    unconverted_energy,
)


class TestGaussianControl:
    def test_peak_value_and_location(self, grid10, control):
        k = int(np.abs(control.values).argmax())
        assert grid10.times[k] == pytest.approx(3.0, abs=grid10.dt)
        assert control.values[k].real == pytest.approx((2 / np.pi) ** 0.25, abs=1e-12)
        assert control.values[k].real == pytest.approx(0.89324, abs=1e-5)

    def test_unit_energy_for_any_admissible_center(self, grid10):
        for center in (3.0, 5.0, 6.5):
            pulse = gaussian_control(center, grid10)
            assert inner_product(pulse, pulse).real == pytest.approx(1.0, abs=1e-8)

    def test_even_symmetry_about_center(self):
        # symmetric window so mirrored samples land on grid points
        grid = TimeGrid(0.0, 10.0, 10001)
        pulse = gaussian_control(5.0, grid)
        assert np.abs(pulse.values - pulse.values[::-1]).max() < 1e-12

    def test_clipped_window_is_rejected(self, grid10):
        with pytest.raises(WindowClippingError):
            gaussian_control(1.0, grid10)
        with pytest.raises(WindowClippingError):
            gaussian_control(9.5, grid10)


class TestHermiteGaussian:
    def test_ground_mode_matches_closed_form(self):
        grid = TimeGrid(-8.0, 8.0, 3201)
        hg0 = hermite_gaussian(0, 0.0, grid)
        expected = np.exp(-0.5 * grid.times**2) / np.pi**0.25
        assert np.abs(hg0.values - expected).max() < 1e-12

    def test_family_is_orthonormal(self):
        grid = TimeGrid(-10.0, 10.0, 4001)
        modes = [hermite_gaussian(n, 0.0, grid) for n in range(6)]
        for i, a in enumerate(modes):
            for j, b in enumerate(modes):
                target = 1.0 if i == j else 0.0
                assert abs(inner_product(a, b) - target) < 1e-9

    def test_first_mode_node_and_odd_symmetry(self):
        grid = TimeGrid(0.0, 10.0, 10001)
        hg1 = hermite_gaussian(1, 5.0, grid)
        center_idx = grid.n_samples // 2
        assert abs(hg1.values[center_idx]) < 1e-9
        assert np.abs(hg1.values + hg1.values[::-1]).max() < 1e-12

    def test_unit_norm_even_with_clipped_tails(self, grid10):
        for n in (0, 1, 2):
            hg = hermite_gaussian(n, 3.0, grid10)
            assert inner_product(hg, hg).real == pytest.approx(1.0, abs=1e-8)

    def test_order_and_margin_limits(self, grid10):
        with pytest.raises(UnsupportedOrderError):
            hermite_gaussian(21, 5.0, grid10)
        with pytest.raises(UnsupportedOrderError):
            hermite_gaussian(-1, 5.0, grid10)
        # classical support sqrt(2n+1) must fit inside the window
        with pytest.raises(WindowClippingError):
            hermite_gaussian(5, 3.0, grid10)


class TestOptimalInputMode:
    def test_unit_norm_and_late_skew(self, grid10, opt_mode):
        assert inner_product(opt_mode, opt_mode).real == pytest.approx(1.0, abs=1e-6)
        # the exponential-area weighting pushes the peak past the control center
        t_peak = grid10.times[int(np.abs(opt_mode.values).argmax())]
        assert t_peak > 3.0

    def test_zero_coupling_limit_returns_conjugate_control(self, grid10, control):
        par = CavityParams(gamma_s=10.1, gamma_c=0.01, alpha=0.0)
        mode = optimal_input_mode(par, control)
        assert np.abs(mode.values - np.conj(control.values)).max() < 1e-6

    def test_control_phase_moves_to_conjugate(self, bench_params, control, opt_mode):
        phi = 0.77
        rotated = TemporalSignal(control.grid, np.exp(1j * phi) * control.values)
        mode = optimal_input_mode(bench_params, rotated)
        assert np.abs(mode.values - np.exp(-1j * phi) * opt_mode.values).max() < 1e-12

    def test_feeding_it_back_reproduces_benchmark(self, traj_optimal_input):
        w = unconverted_energy(traj_optimal_input)
        assert w.value == pytest.approx(0.016, abs=0.006)


class TestGramSchmidtFamily:
    def test_mode_zero_is_the_seed(self, opt_seed, family8):
        assert np.array_equal(family8[0], opt_seed.values)

    def test_pairwise_orthonormality(self, grid10, family8):
        modes = [TemporalSignal(grid10, row) for row in family8]
        for i, a in enumerate(modes):
            for j, b in enumerate(modes):
                target = 1.0 if i == j else 0.0
                assert abs(inner_product(a, b) - target) < 1e-9

    def test_orthogonal_modes_pass_through_unconverted(
        self, traj_orth_mode1, traj_orth_mode2
    ):
        assert unconverted_energy(traj_orth_mode1).value == pytest.approx(0.98, abs=0.01)
        assert unconverted_energy(traj_orth_mode2).value == pytest.approx(0.99, abs=0.01)

    def test_family_spans_the_raw_vectors(self, opt_seed, family8):
        raw = polynomial_raw_basis(opt_seed, 7, 3.0)
        for row in raw:
            vec = normalize(TemporalSignal(opt_seed.grid, row))
            residual = vec.values.copy()
            for row in family8:
                mode = TemporalSignal(opt_seed.grid, row)
                residual -= inner_product(mode, vec) * row
            res_sig = TemporalSignal(opt_seed.grid, residual)
            assert math.sqrt(inner_product(res_sig, res_sig).real) < 1e-8

    def test_exact_null_in_closed_form_for_every_member(
        self, lossless_params, control, family8
    ):
        for row in family8[1:]:
            mode = TemporalSignal(control.grid, row)
            c_end = simulate(lossless_params, control, mode, "analytic").C.values[-1]
            assert abs(c_end) < 1e-7

    def test_degenerate_raw_vector_is_named(self, opt_seed):
        raw = polynomial_raw_basis(opt_seed, 1, 3.0)
        with pytest.raises(DegenerateBasisError, match="vector 1"):
            gram_schmidt_family(opt_seed, np.array([raw[0], opt_seed.values]))

    def test_non_finite_raw_vector_is_named(self, opt_seed):
        # the family is not checked again after the QR, so a NaN row must
        # not come back as a mode
        raw = polynomial_raw_basis(opt_seed, 3, 3.0)
        raw[1, 7] = np.nan
        with pytest.raises(DegenerateBasisError, match="raw vector 1 "):
            gram_schmidt_family(opt_seed, raw)

    def test_more_raw_vectors_than_samples_is_degenerate(self):
        grid = TimeGrid(0.0, 10.0, 9)
        seed = normalize(TemporalSignal(grid, np.exp(-((grid.times - 5.0) ** 2))))
        with pytest.raises(DegenerateBasisError):
            gram_schmidt_family(seed, polynomial_raw_basis(seed, 9, 5.0))

    @pytest.mark.filterwarnings("error")
    def test_overflowing_raw_vector_is_named(self, opt_seed):
        # the window reaches t - 3 = 7, and 7^365 > 1.8e308
        with pytest.raises(DegenerateBasisError, match="raw vector 364 overflows"):
            polynomial_raw_basis(opt_seed, 399, 3.0)

    def test_seed_must_be_unit_norm(self, opt_seed):
        bad_seed = TemporalSignal(opt_seed.grid, 1.5 * opt_seed.values)
        with pytest.raises(NonOrthonormalBasisError):
            gram_schmidt_family(bad_seed, polynomial_raw_basis(bad_seed, 1, 3.0))
        # energy off by 2e-9, past the orthonormality tolerance: the seed
        # check is the family's only one, so it must name the fault
        near = TemporalSignal(opt_seed.grid, math.sqrt(1.0 + 2e-9) * opt_seed.values)
        with pytest.raises(NonOrthonormalBasisError, match="seed must be unit norm"):
            gram_schmidt_family(near, polynomial_raw_basis(near, 1, 3.0))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "checked, samples, bad, error, match",
        [
            ("basis", [5], np.inf, NonOrthonormalBasisError, None),
            ("basis", [5], 1e200, NonOrthonormalBasisError, None),
            ("raw", [5], np.inf, DegenerateBasisError, "raw vector 0 is not finite"),
            # finite, but its weighted norm overflows: the R diagonal is inf
            (
                "raw",
                [3, 5],
                1.7e308,
                DegenerateBasisError,
                "raw vector 0 has a weighted norm that overflows",
            ),
        ],
        ids=["basis-inf", "basis-1e200", "raw-inf", "raw-overflow"],
    )
    def test_huge_or_infinite_row_raises_the_package_error(
        self, checked, samples, bad, error, match
    ):
        # the weighting must not raise a numpy RuntimeWarning before the check
        grid = TimeGrid(0.0, 10.0, 11)
        seed = normalize(TemporalSignal(grid, np.exp(-((grid.times - 5.0) ** 2))))
        row = np.zeros(grid.n_samples)
        row[samples] = bad
        with pytest.raises(error, match=match):
            if checked == "basis":
                params = CavityParams(gamma_s=10.1, gamma_c=0.01, alpha=5.5)
                green_kernel(params, seed, np.array([seed.values, row]))
            else:
                gram_schmidt_family(seed, row[None])


SMALL_GRID = TimeGrid(0.0, 10.0, 2001)

family_inputs = st.tuples(
    st.floats(0.5, 10.0),  # alpha
    st.floats(3.0, 7.0),  # control_center, inside the 4-sigma margins
    st.integers(1, 12),  # raw count
    st.floats(-2.0, 2.0),  # control chirp, so the modes are truly complex
)


def _seed_and_raw(alpha, center, count, chirp):
    params = CavityParams(gamma_s=10.1, gamma_c=0.01, alpha=alpha)
    pulse = gaussian_control(center, SMALL_GRID)
    phase = np.exp(1j * chirp * (SMALL_GRID.times - center) ** 2)
    control = TemporalSignal(SMALL_GRID, pulse.values * phase)
    seed = normalize(optimal_input_mode(params, control))
    return seed, polynomial_raw_basis(seed, count, center)


class TestGramSchmidtProperties:
    @settings(max_examples=30, deadline=None)
    @given(family_inputs)
    def test_family_is_orthonormal_and_spans_the_raw_vectors(self, inputs):
        seed, raw = _seed_and_raw(*inputs)
        vals = gram_schmidt_family(seed, raw)
        assert vals.shape == (len(raw) + 1, SMALL_GRID.n_samples)
        assert vals.flags.c_contiguous
        w = quadrature_weights(SMALL_GRID)
        gram = np.conj(vals) @ (w * vals).T
        assert np.abs(gram - np.eye(len(vals))).max() < 1e-9
        assert np.array_equal(vals[0], seed.values)
        for k, row in enumerate(raw, start=1):
            vec = TemporalSignal(SMALL_GRID, row)
            overlap = inner_product(TemporalSignal(SMALL_GRID, vals[k]), vec)
            assert overlap.real > 0.0
            assert abs(overlap.imag) <= 1e-10 * abs(overlap)
            coeffs = np.conj(vals[: k + 1]) @ (w * row)
            residual = TemporalSignal(SMALL_GRID, row - coeffs @ vals[: k + 1])
            assert (
                inner_product(residual, residual).real
                < 1e-18 * inner_product(vec, vec).real
            )

    @settings(max_examples=30, deadline=None)
    @given(family_inputs, st.data())
    def test_duplicated_raw_row_is_named(self, inputs, data):
        seed, raw = _seed_and_raw(*inputs)
        source = data.draw(st.integers(0, len(raw) - 1), label="source")
        at = data.draw(st.integers(source + 1, len(raw)), label="at")
        raw = np.insert(raw, at, raw[source], axis=0)
        with pytest.raises(DegenerateBasisError, match=rf"raw vector {at} is"):
            gram_schmidt_family(seed, raw)
