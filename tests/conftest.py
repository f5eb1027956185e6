"""Shared fixtures: the standard benchmark runs, computed once per session."""

import pytest

from tmcavity import (
    CavityParams,
    TemporalSignal,
    TimeGrid,
    design_control,
    gaussian_control,
    green_kernel,
    hermite_gaussian,
    normalize,
    optimal_input_mode,
    polynomial_family,
    simulate,
)

CONTROL_CENTER = 3.0


@pytest.fixture(scope="session")
def grid10():
    return TimeGrid(0.0, 10.0, 10001)


@pytest.fixture(scope="session")
def bench_params():
    return CavityParams(gamma_s=10.1, gamma_c=0.01, alpha=5.5)


@pytest.fixture(scope="session")
def lossless_params():
    return CavityParams(gamma_s=10.1, gamma_c=0.0, alpha=5.5)


@pytest.fixture(scope="session")
def control(grid10):
    return gaussian_control(CONTROL_CENTER, grid10)


@pytest.fixture(scope="session")
def opt_mode(bench_params, control):
    return optimal_input_mode(bench_params, control)


@pytest.fixture(scope="session")
def opt_seed(opt_mode):
    return normalize(opt_mode)


@pytest.fixture(scope="session")
def traj_gaussian_input(bench_params, control):
    return simulate(bench_params, control, control)


@pytest.fixture(scope="session")
def traj_optimal_input(bench_params, control, opt_mode):
    return simulate(bench_params, control, opt_mode)


@pytest.fixture(scope="session")
def family8(opt_seed):
    return polynomial_family(opt_seed, 7, CONTROL_CENTER)


@pytest.fixture(scope="session")
def traj_orth_mode1(bench_params, control, family8):
    return simulate(bench_params, control, TemporalSignal(control.grid, family8[1]))


@pytest.fixture(scope="session")
def traj_orth_mode2(bench_params, control, family8):
    return simulate(bench_params, control, TemporalSignal(control.grid, family8[2]))


@pytest.fixture(scope="session")
def designed_hg0(bench_params, grid10):
    target = hermite_gaussian(0, CONTROL_CENTER, grid10)
    ctl = design_control(target, bench_params.f_s, 1e-7)
    traj = simulate(bench_params, ctl, target)
    return target, ctl, traj


@pytest.fixture(scope="session")
def designed_hg1(bench_params, grid10):
    target = hermite_gaussian(1, CONTROL_CENTER, grid10)
    ctl = design_control(target, bench_params.f_s, 1e-7)
    traj = simulate(bench_params, ctl, target)
    return target, ctl, traj


@pytest.fixture(scope="session")
def kernel_report_full(bench_params, control, family8):
    return green_kernel(bench_params, control, family8, model="full")


@pytest.fixture(scope="session")
def kernel_report_analytic(bench_params, control, family8):
    return green_kernel(bench_params, control, family8, model="analytic")


@pytest.fixture
def huge_grids_fail(monkeypatch):
    """``TimeGrid.times`` raises ``MemoryError`` past 1e9 samples, as numpy
    does when it cannot allocate them. No real request is made: with memory
    overcommit a request for terabytes can be granted and then touched."""
    times = TimeGrid.times.fget

    def fget(grid):
        if grid.n_samples > 10**9:
            raise MemoryError(f"Unable to allocate {8 * grid.n_samples} bytes")
        return times(grid)

    monkeypatch.setattr(TimeGrid, "times", property(fget))
