"""Grid, signal container, and quadrature contracts."""

import gc
import math
import sys
import threading
import weakref

import numpy as np
import pytest

from tmcavity import (
    DegenerateSignalError,
    GridMismatchError,
    TemporalSignal,
    TimeGrid,
    cumulative_integral,
    hermite_gaussian,
    inner_product,
    normalize,
)


def rand_signal(grid, rng):
    vals = rng.normal(size=grid.n_samples) + 1j * rng.normal(size=grid.n_samples)
    return TemporalSignal(grid, vals)


class TestTimeGrid:
    def test_dt_and_sample_positions_are_exact(self):
        grid = TimeGrid(0.0, 10.0, 10001)
        assert grid.dt == pytest.approx(1e-3, abs=0)
        t = grid.times
        # sample k must be t_start + k*dt with no accumulated drift
        k = np.arange(grid.n_samples)
        assert np.array_equal(t, 0.0 + k * grid.dt)
        assert t[0] == 0.0 and t[-1] == 10.0

    def test_rejects_degenerate_windows(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 10.0, 1)
        with pytest.raises(ValueError):
            TimeGrid(5.0, 5.0, 100)
        with pytest.raises(ValueError):
            TimeGrid(5.0, 1.0, 100)

    @pytest.mark.parametrize(
        "t_start, t_end, n_samples, message",
        [
            (0.0, np.inf, 11, "got inf"),
            (-np.inf, 0.0, 11, "got inf"),
            (-np.inf, np.inf, 11, "got inf"),
            (np.nan, 1.0, 11, "got nan"),
            (0.0, np.nan, 11, "got nan"),
            (-1e308, 1e308, 3, "got inf"),
            (0.0, 5e-324, 3, "got 0.0"),
        ],
        ids=["t-end-inf", "t-start-minus-inf", "both-infinite", "t-start-nan",
             "t-end-nan", "span-overflows", "dt-underflows"],
    )
    def test_rejects_bounds_it_cannot_sample(self, t_start, t_end, n_samples, message):
        with pytest.raises(ValueError, match=f"needs a finite dt > 0, {message}$"):
            TimeGrid(t_start, t_end, n_samples)

    def test_narrowest_samplable_window_is_kept(self):
        grid = TimeGrid(0.0, 1e-323, 3)
        assert grid.dt == 5e-324
        assert grid.times.tolist() == [0.0, 5e-324, 1e-323]

    def test_bounds_are_stored_as_floats_so_equal_grids_sample_alike(self):
        # an int bound rounds dt differently from the equal float one
        as_int = TimeGrid(1, 2**54 + 4, 4)
        as_float = TimeGrid(1.0, 2.0**54 + 4, 4)
        assert type(as_int.t_start) is type(as_int.t_end) is float
        assert as_int == as_float and hash(as_int) == hash(as_float)
        assert np.array_equal(as_int.times, as_float.times)

    @pytest.mark.parametrize(
        "t_start, t_end, name",
        [(0, 10**400, "t_end"), (-(10**400), 0, "t_start")],
        ids=["t-end", "t-start"],
    )
    def test_bound_too_large_for_a_float_is_a_value_error(self, t_start, t_end, name):
        with pytest.raises(ValueError, match=f"^{name} is too large for a float$"):
            TimeGrid(t_start, t_end, 3)

    @pytest.mark.parametrize(
        "t_start, t_end, n_samples",
        [(1e16, 1e16 + 2, 1001), (1e16, 1e16 + 4, 4), (-1.0, -1.0 + 2**-52, 4)],
        ids=["1001-samples-on-2-times", "dt-between-ulps", "dt-below-one-ulp"],
    )
    def test_rejects_times_that_are_not_strictly_increasing(
        self, t_start, t_end, n_samples
    ):
        with pytest.raises(ValueError, match="times that are not strictly increasing"):
            TimeGrid(t_start, t_end, n_samples)

    def test_times_too_large_to_allocate_are_a_value_error(self, huge_grids_fail):
        with pytest.raises(ValueError) as info:
            TimeGrid(0.0, 10.0, 10**12)
        assert str(info.value) == (
            "[t_start, t_end] = [0.0, 10.0] on 1000000000000 samples "
            "has too many samples to hold"
        )
        assert TimeGrid(0.0, 10.0, 11).n_samples == 11

    def test_one_sample_per_float_is_kept(self):
        grid = TimeGrid(1e16, 1e16 + 4, 3)
        assert grid.times.tolist() == [1e16, 1e16 + 2, 1e16 + 4]


class TestTemporalSignal:
    def test_length_must_match_grid(self):
        grid = TimeGrid(0.0, 1.0, 11)
        with pytest.raises(ValueError):
            TemporalSignal(grid, np.zeros(10))

    def test_rejects_non_finite_values(self):
        grid = TimeGrid(0.0, 1.0, 11)
        vals = np.zeros(11, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(ValueError, match="index 3"):
            TemporalSignal(grid, vals)

    def test_values_are_frozen_copies(self):
        grid = TimeGrid(0.0, 1.0, 11)
        src = np.ones(11, dtype=complex)
        sig = TemporalSignal(grid, src)
        src[0] = 5.0
        assert sig.values[0] == 1.0
        with pytest.raises(ValueError):
            sig.values[0] = 2.0


class TestInnerProduct:
    def test_ground_mode_self_overlap_matches_quadrature_oracle(self):
        grid = TimeGrid(-8.0, 8.0, 4001)
        # independent oracle: trapezoid of the analytic envelope directly
        t = grid.times
        envelope = np.exp(-0.5 * t**2) / np.pi**0.25
        density = envelope**2
        oracle = grid.dt * (density.sum() - 0.5 * (density[0] + density[-1]))
        assert oracle == pytest.approx(1.0, abs=1e-8)
        hg0 = hermite_gaussian(0, 0.0, grid)
        assert inner_product(hg0, hg0).real == pytest.approx(1.0, abs=1e-8)
        assert inner_product(hg0, hg0).imag == pytest.approx(0.0, abs=1e-15)

    def test_odd_even_modes_are_orthogonal(self):
        grid = TimeGrid(-8.0, 8.0, 4001)
        hg0 = hermite_gaussian(0, 0.0, grid)
        hg1 = hermite_gaussian(1, 0.0, grid)
        assert abs(inner_product(hg0, hg1)) < 1e-10

    def test_matched_storage_mode_is_unit_norm(self, opt_mode):
        assert inner_product(opt_mode, opt_mode).real == pytest.approx(1.0, abs=1e-6)

    def test_mismatched_grids_rejected(self):
        a = TemporalSignal(TimeGrid(0.0, 1.0, 11), np.ones(11))
        b = TemporalSignal(TimeGrid(0.0, 1.0, 21), np.ones(21))
        with pytest.raises(GridMismatchError):
            inner_product(a, b)

    def test_conjugate_symmetry_and_linearity(self):
        rng = np.random.default_rng(7)
        grid = TimeGrid(0.0, 1.0, 301)
        a, b, c = (rand_signal(grid, rng) for _ in range(3))
        assert inner_product(a, b) == pytest.approx(
            np.conj(inner_product(b, a)), abs=1e-12
        )
        # linear in the second slot, conjugate-linear in the first
        lam = 0.8 - 1.7j
        lhs = inner_product(a, TemporalSignal(grid, lam * b.values + c.values))
        rhs = lam * inner_product(a, b) + inner_product(a, c)
        assert lhs == pytest.approx(rhs, rel=1e-12)
        lhs = inner_product(TemporalSignal(grid, lam * a.values), b)
        assert lhs == pytest.approx(np.conj(lam) * inner_product(a, b), rel=1e-12)


class TestCumulativeIntegral:
    def test_unit_control_pulse_area_reaches_one(self, control):
        area = cumulative_integral(control)
        assert area[0] == 0.0
        assert area[-1] == pytest.approx(1.0, abs=1e-8)
        assert np.all(np.diff(area) >= 0.0)

    def test_zero_signal_integrates_to_zero(self):
        grid = TimeGrid(0.0, 1.0, 101)
        out = cumulative_integral(TemporalSignal(grid, np.zeros(101)))
        assert np.all(out == 0.0)

    def test_constant_magnitude_on_unit_window(self):
        grid = TimeGrid(0.0, 2.0, 2001)
        out = cumulative_integral(TemporalSignal(grid, np.ones(2001)))
        assert out[-1] == pytest.approx(2.0, abs=1e-12)

    def test_integrates_squared_magnitude_of_complex_signal(self):
        # a chirped phase must drop out: the integrand is |f|^2, not f^2 or Re f
        grid = TimeGrid(0.0, 1.0, 1001)
        f = TemporalSignal(grid, 2.0 * np.exp(1j * 7.0 * grid.times**2))
        out = cumulative_integral(f)
        assert out.dtype == np.float64 and out.shape == (grid.n_samples,)
        assert out == pytest.approx(4.0 * grid.times, abs=1e-12)

    def test_starts_at_the_grid_start(self):
        # shifting the window shifts the running integral with it
        vals = np.exp(-np.linspace(-2.0, 2.0, 401) ** 2)
        at_zero = cumulative_integral(TemporalSignal(TimeGrid(0.0, 4.0, 401), vals))
        shifted = cumulative_integral(TemporalSignal(TimeGrid(5.0, 9.0, 401), vals))
        assert shifted[0] == 0.0
        np.testing.assert_allclose(shifted, at_zero, rtol=0, atol=1e-14)

    def test_final_sample_equals_signal_energy(self):
        rng = np.random.default_rng(11)
        grid = TimeGrid(0.0, 3.0, 501)
        for _ in range(5):
            f = rand_signal(grid, rng)
            area = cumulative_integral(f)[-1]
            assert area == pytest.approx(inner_product(f, f).real, abs=1e-12)


@pytest.mark.seeded
class TestPulseAreaMemo:
    """The pulse area of a control is built once, kept read-only, and
    dropped with the control."""

    def test_area_is_built_once_and_read_only(self):
        grid = TimeGrid(0.0, 1.0, 101)
        f = TemporalSignal(grid, np.exp(1j * grid.times))
        area = f.pulse_area
        assert f.pulse_area is area
        assert not area.flags.writeable
        assert np.array_equal(area, cumulative_integral(f))

    def test_cumulative_integral_stays_a_fresh_writable_array(self):
        grid = TimeGrid(0.0, 1.0, 101)
        f = TemporalSignal(grid, np.ones(101))
        area = f.pulse_area
        out = cumulative_integral(f)
        assert out is not area and out.flags.writeable
        out[:] = -1.0
        assert np.array_equal(f.pulse_area, cumulative_integral(f))

    def test_area_is_freed_with_its_control(self):
        grid = TimeGrid(0.0, 1.0, 101)
        f = TemporalSignal(grid, np.ones(101))
        area = weakref.ref(f.pulse_area)
        ref = weakref.ref(f)
        del f
        gc.collect()
        assert ref() is None
        assert area() is None

    def test_threads_building_and_dropping_areas_get_the_right_ones(self):
        # one control shared by every thread, and one per call that is
        # dropped at once, so areas are built and freed while others are read
        grid = TimeGrid(0.0, 1.0, 2001)
        shared = TemporalSignal(grid, np.exp(1j * grid.times))
        expected = cumulative_integral(shared)
        results, errors = [], []

        def work(k):
            try:
                for i in range(50):
                    own = TemporalSignal(grid, np.full(2001, k + i + 1.0))
                    results.append(
                        np.array_equal(shared.pulse_area, expected)
                        and np.array_equal(own.pulse_area, cumulative_integral(own))
                    )
            except Exception as exc:  # reported below, not lost in the thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors and len(results) == 200 and all(results)


class TestNormalize:
    def test_rescales_by_real_positive_factor(self):
        grid = TimeGrid(-8.0, 8.0, 2001)
        hg0 = hermite_gaussian(0, 0.0, grid)
        doubled = TemporalSignal(grid, 2.0 * hg0.values)
        back = normalize(doubled)
        assert np.abs(back.values - hg0.values).max() < 1e-12

    def test_unit_norm_input_is_unchanged(self):
        grid = TimeGrid(-8.0, 8.0, 2001)
        hg0 = hermite_gaussian(0, 0.0, grid)
        assert np.abs(normalize(hg0).values - hg0.values).max() < 1e-12

    def test_two_mode_superposition(self):
        grid = TimeGrid(-8.0, 8.0, 2001)
        hg0 = hermite_gaussian(0, 0.0, grid)
        hg1 = hermite_gaussian(1, 0.0, grid)
        mix = TemporalSignal(grid, hg0.values + hg1.values)
        # orthonormal parts: quadrature norm of the sum is sqrt(2)
        assert inner_product(mix, mix).real == pytest.approx(2.0, abs=1e-9)
        out = normalize(mix)
        assert inner_product(out, out).real == pytest.approx(1.0, abs=1e-12)

    def test_zero_signal_is_degenerate(self):
        grid = TimeGrid(0.0, 1.0, 11)
        with pytest.raises(DegenerateSignalError):
            normalize(TemporalSignal(grid, np.zeros(11)))


class TestQuadratureConvergence:
    def test_second_order_on_clipped_gaussian(self):
        # half-Gaussian on [0, 2]: endpoint slopes dominate the error, so
        # halving dt must cut the defect by ~4 (at least 3.9)
        exact = math.sqrt(math.pi) / 2.0 * math.erf(2.0)
        errors = []
        for n in (51, 101, 201):
            grid = TimeGrid(0.0, 2.0, n)
            f = TemporalSignal(grid, np.exp(-0.5 * grid.times**2))
            approx = cumulative_integral(f)  # integrates |f|^2 = exp(-t^2)
            errors.append(abs(approx[-1] - exact))
        assert errors[0] / errors[1] >= 3.9
        assert errors[1] / errors[2] >= 3.9

