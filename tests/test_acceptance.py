"""Acceptance gate: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
PASS/FAIL line per criterion alongside the measured values.
"""

import math
import time

import numpy as np
import pytest

from tmcavity import (
    CavityParams,
    TemporalSignal,
    TimeGrid,
    conservation_residual,
    design_control,
    gaussian_control,
    hermite_gaussian,
    normalize,
    optimal_input_mode,
    scan_alpha,
    simulate,
    unconverted_energy,
)

GAMMA_S = 10.1
GAMMA_C = 0.01
ALPHA = 5.5


def check(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {'PASS' if ok else 'FAIL'} {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def fine_scan(control):
    alphas = [0.5 + 0.25 * k for k in range(39)]
    return scan_alpha(
        alphas, gamma_s=GAMMA_S, gamma_c=GAMMA_C, control=control, model="full"
    )


def test_criterion_1_gaussian_input_storage(bench_params, control):
    t0 = time.perf_counter()
    traj = simulate(bench_params, control, control)
    elapsed = time.perf_counter() - t0
    w = unconverted_energy(traj).value
    peak_s = float(np.abs(traj.S.values).max())
    peak_c = float(np.abs(traj.C.values).max())
    ok = (
        abs(w - 0.36) <= 0.04
        and abs(peak_s - 0.2) <= 0.05
        and abs(peak_c - 0.8) <= 0.05
        and elapsed < 1.0
    )
    check(
        "1 mismatched Gaussian input",
        ok,
        f"W_out={w:.4f} (0.36+-0.04), peak|S|={peak_s:.3f} (0.2+-0.05), "
        f"peak|-iC|={peak_c:.3f} (0.8+-0.05), runtime={elapsed:.2f}s (<1s)",
    )


def test_criterion_2_matched_input_storage(bench_params, control, opt_mode):
    t0 = time.perf_counter()
    traj = simulate(bench_params, control, opt_mode)
    elapsed = time.perf_counter() - t0
    w = unconverted_energy(traj).value
    peak_c = float(np.abs(traj.C.values).max())
    ok = abs(w - 0.016) <= 0.006 and peak_c >= 0.97 and elapsed < 1.0
    check(
        "2 matched optimal input",
        ok,
        f"W_out={w:.4f} (0.016+-0.006), peak|-iC|={peak_c:.3f} (>=0.97), "
        f"runtime={elapsed:.2f}s (<1s)",
    )


def test_criterion_3_orthogonal_modes_pass_through(
    traj_orth_mode1, traj_orth_mode2
):
    w1 = unconverted_energy(traj_orth_mode1).value
    w2 = unconverted_energy(traj_orth_mode2).value
    transient = float(np.abs(traj_orth_mode1.C.values).max())
    ok = (
        abs(w1 - 0.98) <= 0.01
        and abs(w2 - 0.99) <= 0.01
        and abs(transient - 0.7) <= 0.1
    )
    check(
        "3 orthogonal-mode rejection",
        ok,
        f"W_out(mode1)={w1:.4f} (0.98+-0.01), W_out(mode2)={w2:.4f} "
        f"(0.99+-0.01), transient |-iC|={transient:.3f} (0.7+-0.1)",
    )


def test_criterion_4_designed_controls(designed_hg0, designed_hg1):
    w0 = unconverted_energy(designed_hg0[2]).value
    w1 = unconverted_energy(designed_hg1[2]).value
    ok = w0 <= 0.010 and abs(w1 - 0.015) <= 0.008
    check(
        "4 designed-control storage",
        ok,
        f"W_out(order-0 target)={w0:.4f} (<=0.010), "
        f"W_out(order-1 target)={w1:.4f} (0.015+-0.008)",
    )


def test_criterion_5_exponential_conversion_law(grid10):
    control = gaussian_control(3.0, grid10)
    worst = 0.0
    for fs in (0.5, 1.0, 2.0, 2.995, 4.0):
        par = CavityParams(
            gamma_s=GAMMA_S, gamma_c=0.0, alpha=math.sqrt(fs * GAMMA_S)
        )
        mode = optimal_input_mode(par, control)
        expected = math.exp(-2.0 * par.f_s)
        c_end = simulate(par, control, mode, "analytic").C.values[-1]
        worst = max(worst, abs((1.0 - abs(c_end) ** 2) - expected))
        w_reduced = unconverted_energy(simulate(par, control, mode, "reduced")).value
        worst = max(worst, abs(w_reduced - expected))
    ok = worst < 1e-4
    check(
        "5 exponential conversion law",
        ok,
        f"max |W_out - exp(-2 f_s)| = {worst:.2e} over f_s in "
        "{0.5, 1, 2, 2.995, 4} (<1e-4)",
    )


def test_criterion_6_closed_form_selectivity(
    lossless_params, control, family8, kernel_report_analytic
):
    worst_amp = 0.0
    for row in family8[1:6]:
        mode = TemporalSignal(control.grid, row)
        c_end = simulate(lossless_params, control, mode, "analytic").C.values[-1]
        worst_amp = max(worst_amp, abs(c_end))
    sv = kernel_report_analytic.singular_values
    ratio = sv[1] / sv[0]
    ok = worst_amp < 1e-7 and ratio < 1e-6
    check(
        "6 closed-form selectivity",
        ok,
        f"max |C(end)| over 5 orthogonal modes = {worst_amp:.2e} (<1e-7), "
        f"sigma2/sigma1 = {ratio:.2e} (<1e-6)",
    )


def test_criterion_7_full_model_contrast(kernel_report_full):
    eff = kernel_report_full.conversion_efficiencies
    contrast = eff[0] / eff[1]
    ok = contrast >= 40.0
    check(
        "7 full-model Schmidt contrast",
        ok,
        f"dominant/next conversion = {eff[0]:.4f}/{eff[1]:.4f} = "
        f"{contrast:.1f} (>=40)",
    )


def test_criterion_8_conservation_suite(bench_params, grid10, control):
    rng = np.random.default_rng(20240817)
    hg_pool = [hermite_gaussian(k, 5.0, grid10) for k in range(6)]
    worst_balance = 0.0
    for _ in range(20):
        coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
        vals = sum(c * h.values for c, h in zip(coeffs, hg_pool))
        sig = normalize(TemporalSignal(grid10, vals))
        traj = simulate(bench_params, control, sig)
        worst_balance = max(worst_balance, conservation_residual(traj))

    s1, s2 = hg_pool[0], hg_pool[3]
    a, b = 0.6 - 0.3j, -0.2 + 0.9j
    mix = TemporalSignal(grid10, a * s1.values + b * s2.values)
    t1 = simulate(bench_params, control, s1)
    t2 = simulate(bench_params, control, s2)
    tmix = simulate(bench_params, control, mix)
    worst_linearity = 0.0
    for field in ("S", "C", "S_out", "C_out"):
        combined = a * getattr(t1, field).values + b * getattr(t2, field).values
        worst_linearity = max(
            worst_linearity,
            float(np.abs(getattr(tmix, field).values - combined).max()),
        )

    w_by_step = []
    for n in (10001, 20001):
        g = TimeGrid(0.0, 10.0, n)
        ctl = gaussian_control(3.0, g)
        w_by_step.append(
            unconverted_energy(simulate(bench_params, ctl, ctl)).value
        )
    halving_shift = abs(w_by_step[0] - w_by_step[1])

    ok = worst_balance < 1e-5 and worst_linearity < 1e-9 and halving_shift < 1e-6
    check(
        "8 conservation and convergence suite",
        ok,
        f"balance residual (20 random inputs) = {worst_balance:.2e} (<1e-5), "
        f"linearity defect = {worst_linearity:.2e} (<1e-9), "
        f"dt-halving shift = {halving_shift:.2e} (<1e-6)",
    )


def test_criterion_9_coupling_strength_optimum(fine_scan):
    w = dict(zip(fine_scan.alphas, fine_scan.w_out))
    nonmonotone = w[8.0] > fine_scan.best_w_out
    # the closed-form curve reaches the 1e-9 scale at the top of the range,
    # so resolve it on a finer grid than the integrator default
    fine_grid = TimeGrid(0.0, 10.0, 40001)
    analytic = scan_alpha(
        [0.5 + 0.5 * k for k in range(20)],
        gamma_s=GAMMA_S,
        gamma_c=0.0,
        control=gaussian_control(3.0, fine_grid),
        model="analytic",
    )
    decreasing = bool(np.all(np.diff(analytic.w_out) < 0.0))
    ok = (
        abs(fine_scan.best_alpha - 5.5) <= 0.5 and nonmonotone and decreasing
    )
    check(
        "9 coupling-strength optimum",
        ok,
        f"best alpha = {fine_scan.best_alpha} (5.5+-0.5), "
        f"W(8.0)={w[8.0]:.4f} > W(best)={fine_scan.best_w_out:.4f}, "
        f"closed-form curve strictly decreasing = {decreasing}",
    )


def test_criterion_10_physical_units(bench_params):
    from tmcavity import physical_units

    rep = physical_units(100e-12, 1550e-9, 775e-9, bench_params)
    ok = (
        abs(rep.Q_s - 6020) / 6020 <= 0.01
        and abs(rep.Q_c - 1.2e7) / 1.2e7 <= 0.02
        and abs(rep.rate_s - 1.01e11) / 1.01e11 <= 0.01
        and abs(rep.rate_c - 1.0e8) / 1.0e8 <= 0.01
    )
    check(
        "10 physical units",
        ok,
        f"Q_s={rep.Q_s:.0f} (6020+-1%), Q_c={rep.Q_c:.3e} (1.2e7+-2%), "
        f"rates={rep.rate_s:.3e},{rep.rate_c:.3e} (1.01e11, 1.0e8 +-1%)",
    )


def test_criterion_11_design_self_consistency(bench_params, grid10, designed_hg0):
    from tmcavity import impedance_residual

    res0 = impedance_residual(designed_hg0[1], designed_hg0[0], bench_params)
    # the order-1 target still has 5 percent of its peak at t = 0, so give
    # the design the pre-onset lead time its start-time contract asks for
    wide = TimeGrid(-1.0, 10.0, 11001)
    target1 = hermite_gaussian(1, 3.0, wide)
    control1 = design_control(target1, bench_params.f_s, 1e-7)
    res1 = impedance_residual(control1, target1, bench_params)

    target = designed_hg0[0]
    w_by_q = []
    for q in (1e-6, 1e-7, 1e-8):
        ctl = design_control(target, bench_params.f_s, q, 0.0)
        traj = simulate(bench_params, ctl, target)
        w_by_q.append(unconverted_energy(traj).value)
    spread = max(w_by_q) - min(w_by_q)

    ok = res0 < 1e-3 and res1 < 1e-3 and spread < 0.003
    check(
        "11 design self-consistency",
        ok,
        f"matching residuals = {res0:.2e}, {res1:.2e} (<1e-3), "
        f"W_out spread over q in {{1e-6,1e-7,1e-8}} = {spread:.2e} (<0.003)",
    )
