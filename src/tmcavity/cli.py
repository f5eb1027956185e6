"""Config-driven experiment runner.

Each scenario rebuilds its pulses from the validated config, runs the
requested model, and writes plain CSV time series next to a ``summary.json``
holding the scalar results. Outputs are deterministic: two runs of the same
config produce byte-identical files except for the timestamp, which is
confined to the summary's ``metadata`` block.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .analysis import (
    conservation_residual,
    green_kernel,
    physical_units,
    scan_alpha,
    unconverted_energy,
)
from .cavity import simulate_full, trajectory_to_csv
from .config import SCENARIO_KEYS, ExperimentConfig, dump_config, load_config
from .design import DesignInputs, design_control, impedance_residual
from .errors import ConfigError, TmCavityError
from .modes import (
    gaussian_control,
    gram_schmidt_family,
    hermite_gaussian,
    optimal_input_mode,
    polynomial_raw_basis,
)
from .signals import _write_csv, inner_product, normalize, signal_to_csv


def _trajectory_results(traj, params) -> dict:
    wout = unconverted_energy(traj)
    abs_c = np.abs(traj.C.values)
    k_peak = int(abs_c.argmax())
    minus_ic = -1j * traj.C.values[k_peak]
    return {
        "w_out": float(wout.value),
        "w_out_plateaued": bool(wout.plateaued),
        "w_out_tail_fraction": float(wout.tail_fraction),
        "max_abs_S": float(np.abs(traj.S.values).max()),
        "max_abs_C": float(abs_c.max()),
        "peak_minus_ic_re": float(minus_ic.real),
        "peak_minus_ic_im": float(minus_ic.imag),
        "final_abs_C_sq": float(abs(traj.C.values[-1]) ** 2),
        "conservation_residual": float(conservation_residual(traj, params)),
    }


def _orthogonal_family(config: ExperimentConfig, size: int):
    control = gaussian_control(config.control_center, config.grid)
    seed = normalize(optimal_input_mode(config.cavity, control))
    raw = polynomial_raw_basis(seed, size, config.control_center)
    return control, gram_schmidt_family(seed, raw)


def _run_fig2_gaussian(config, out):
    """Gaussian control driving an input of the same Gaussian shape (mode-mismatched storage benchmark)."""
    control = gaussian_control(config.control_center, config.grid)
    traj = simulate_full(config.cavity, control, control)
    trajectory_to_csv(traj, out / "trajectory.csv")
    return _trajectory_results(traj, config.cavity)


def _run_fig2_optimal(config, out):
    """Gaussian control driving its matched optimal input mode (near-complete storage)."""
    control = gaussian_control(config.control_center, config.grid)
    mode = optimal_input_mode(config.cavity, control)
    traj = simulate_full(config.cavity, control, mode)
    trajectory_to_csv(traj, out / "trajectory.csv")
    signal_to_csv(mode, out / "input_mode.csv")
    return _trajectory_results(traj, config.cavity)


def _run_fig3(config, out):
    """Input mode orthogonal to the optimal one; mode_index picks the family member."""
    control, family = _orthogonal_family(config, config.mode_index)
    mode = family[config.mode_index]
    traj = simulate_full(config.cavity, control, mode)
    trajectory_to_csv(traj, out / "trajectory.csv")
    signal_to_csv(mode, out / "input_mode.csv")
    results = _trajectory_results(traj, config.cavity)
    results["mode_index"] = config.mode_index
    results["minus_ic_min_re"] = float((-1j * traj.C.values).real.min())
    return results


def _run_fig4(config, out):
    """Control pulse designed to store a chosen Hermite-Gauss target (target_order, q, theta)."""
    target = hermite_gaussian(config.target_order, config.control_center, config.grid)
    inputs = DesignInputs(
        s_in=target, f_s=config.cavity.f_s, q=config.q, theta=config.theta
    )
    control = design_control(inputs)
    traj = simulate_full(config.cavity, control, target)
    trajectory_to_csv(traj, out / "trajectory.csv")
    signal_to_csv(control, out / "designed_control.csv")
    signal_to_csv(target, out / "target_mode.csv")
    results = _trajectory_results(traj, config.cavity)
    results.update(
        {
            "target_order": config.target_order,
            "q": float(config.q),
            "theta": float(config.theta),
            "f_s": float(config.cavity.f_s),
            "impedance_residual": float(
                impedance_residual(control, target, config.cavity)
            ),
            "control_norm": float(
                np.sqrt(inner_product(control, control).real)
            ),
        }
    )
    return results


def _run_alpha_scan(config, out):
    """Sweep of the coupling strength with per-point matched inputs; reports the best value."""
    control = gaussian_control(config.control_center, config.grid)
    result = scan_alpha(
        config.alpha_grid,
        gamma_s=config.cavity.gamma_s,
        gamma_c=config.cavity.gamma_c,
        kappa_s=config.cavity.kappa_s,
        kappa_c=config.cavity.kappa_c,
        control=control,
        model=config.model,
    )
    _write_csv(
        out / "wout_vs_alpha.csv",
        ("alpha", "w_out", "diverged"),
        (
            np.array(result.alphas),
            np.array(result.w_out),
            np.array(result.diverged, dtype=int),
        ),
    )
    return {
        "model": config.model,
        "best_alpha": float(result.best_alpha),
        "best_w_out": float(result.best_w_out),
        "n_points": len(result.alphas),
        "n_diverged": int(sum(result.diverged)),
    }


def _run_green_kernel(config, out):
    """Conversion-kernel assembly over an orthonormal basis with singular-value analysis."""
    control, family = _orthogonal_family(config, config.basis_size - 1)
    report = green_kernel(config.cavity, control, family, model=config.model)
    sv = report.singular_values
    _write_csv(
        out / "singular_values.csv",
        ("index", "sigma", "efficiency"),
        (np.arange(len(sv)), sv, report.conversion_efficiencies),
    )
    signal_to_csv(report.input_modes[0], out / "dominant_mode.csv")
    eff = report.conversion_efficiencies
    contrast = float(eff[0] / eff[1]) if eff[1] > 0 else float("inf")
    return {
        "model": config.model,
        "basis_size": config.basis_size,
        "singular_values": [float(v) for v in sv],
        "conversion_efficiencies": [float(v) for v in eff],
        "dominant_efficiency": float(eff[0]),
        "contrast": contrast,
        "schmidt_number": float(report.schmidt_number),
        "sigma2_over_sigma1": float(sv[1] / sv[0]) if sv[0] > 0 else 0.0,
    }


def _run_units(config, out):
    """Dimensionless rates translated to SI rates, lifetimes, and quality factors."""
    report = physical_units(
        config.unit_time_s, config.lambda_s_m, config.lambda_c_m, config.cavity
    )
    return {
        "unit_time_s": float(report.unit_time),
        "omega_s": float(report.omega_s),
        "omega_c": float(report.omega_c),
        "rate_s": float(report.rate_s),
        "rate_c": float(report.rate_c),
        "lifetime_s": float(report.lifetime_s),
        "lifetime_c": float(report.lifetime_c),
        "q_factor_s": float(report.Q_s),
        "q_factor_c": float(report.Q_c),
    }


_RUNNERS = {
    "fig2-gaussian": _run_fig2_gaussian,
    "fig2-optimal": _run_fig2_optimal,
    "fig3-orthogonal": _run_fig3,
    "fig4-design": _run_fig4,
    "alpha-scan": _run_alpha_scan,
    "green-kernel": _run_green_kernel,
    "units": _run_units,
}


def run(config: ExperimentConfig, out_dir) -> dict:
    """Execute one scenario, write its artifacts, and return the summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results = _RUNNERS[config.scenario](config, out)
    summary = {
        "scenario": config.scenario,
        "config": config.as_dict(),
        "results": results,
        "metadata": {
            "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        },
    }
    with open(out / "summary.json", "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return summary


def list_scenarios() -> str:
    """Human-readable registry of scenarios with the default of every key."""
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    lines = []
    for name, keys in SCENARIO_KEYS.items():
        pairs = ", ".join(f"{k}={defaults[k]!r}" for k in keys)
        lines += [name, f"    {_RUNNERS[name].__doc__}", f"    defaults: {pairs}"]
    return "\n".join(lines)


def _paper_scenario_configs() -> dict[str, ExperimentConfig]:
    """The standard benchmark runs, keyed by config-file stem."""
    from .cavity import CavityParams
    from .signals import TimeGrid

    grid = TimeGrid(0.0, 10.0, 10001)
    cavity = CavityParams(gamma_s=10.1, gamma_c=0.01, alpha=5.5)

    def cfg(scenario, **kw):
        return ExperimentConfig(scenario=scenario, grid=grid, cavity=cavity, **kw)

    return {
        "fig2-gaussian": cfg("fig2-gaussian"),
        "fig2-optimal": cfg("fig2-optimal"),
        "fig3-mode1": cfg("fig3-orthogonal", mode_index=1),
        "fig3-mode2": cfg("fig3-orthogonal", mode_index=2),
        "fig4-hg0": cfg("fig4-design", target_order=0),
        "fig4-hg1": cfg("fig4-design", target_order=1),
        "alpha-scan": cfg("alpha-scan"),
        "green-kernel": cfg("green-kernel"),
        "units": cfg("units"),
    }


def seed_figures(out_dir) -> list[str]:
    """Write config files for every standard benchmark run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for stem, config in _paper_scenario_configs().items():
        path = out / f"{stem}.ini"
        path.write_text(dump_config(config), encoding="utf-8")
        written.append(str(path))
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tmcavity",
        description="Temporal-mode-selective cavity frequency conversion toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario from a config file")
    p_run.add_argument("--config", required=True, help="path to an INI config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument(
        "--grid-samples",
        type=int,
        default=None,
        help="override [grid] n_samples from the config",
    )

    sub.add_parser("list", help="list available scenarios")

    p_seed = sub.add_parser(
        "seed-figures", help="write config files for all standard benchmark runs"
    )
    p_seed.add_argument("--out", required=True, help="directory for the configs")

    args = parser.parse_args(argv)

    if args.command == "list":
        print(list_scenarios())
        return 0

    if args.command == "seed-figures":
        for path in seed_figures(args.out):
            print(path)
        return 0

    try:
        config = load_config(args.config)
        if args.grid_samples is not None:
            try:
                grid = dataclasses.replace(config.grid, n_samples=args.grid_samples)
            except ValueError as exc:
                raise ConfigError(f"--grid-samples: {exc}") from None
            config = dataclasses.replace(config, grid=grid)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    try:
        summary = run(config, args.out)
    except TmCavityError as exc:
        print(
            f"error: scenario '{config.scenario}' failed: {exc}", file=sys.stderr
        )
        return 1
    results = summary["results"]
    headline = {
        k: results[k]
        for k in ("w_out", "best_alpha", "dominant_efficiency", "q_factor_s")
        if k in results
    }
    print(f"{config.scenario}: " + json.dumps(headline, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
