"""Scenarios: the named runs, their config keys, validation and runners.

A config file has three sections. ``[grid]`` and ``[cavity]`` are shared by
all scenarios; ``[scenario]`` selects one named experiment and carries only
the keys that scenario understands. Each section builds one dataclass
(:class:`TimeGrid`, :class:`CavityParams`, :class:`ExperimentConfig`), and
each key's type, and whether it is required, comes from its field there.
Unknown sections or keys are rejected with the offending file line, as are
out-of-range values.

:data:`SCENARIOS` is the one table of scenarios. It maps each name to the
``[scenario]`` keys it takes and to the function that runs it: that
function rebuilds the pulses from the validated config, runs the requested
model and returns ``(results, tables)``, its scalar results and the CSV
tables it computed. ``tables`` maps each file name to ``(header, columns,
grid)``, and :func:`_trajectory_table` and :func:`_signal_table` give the
layouts of the trajectory and signal files. Runners do no file I/O;
``cli.run`` writes every table once the runner has returned.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .analysis import (
    conservation_residual,
    green_kernel,
    physical_units,
    scan_alpha,
    unconverted_energy,
)
from .cavity import MODELS, CavityParams, simulate
from .design import design_control, impedance_residual
from .errors import ConfigError, WindowClippingError
from .modes import (
    CONTROL_MARGIN,
    MAX_HERMITE_ORDER,
    _require_margin,
    gaussian_control,
    hermite_gaussian,
    hermite_margin,
    optimal_input_mode,
    polynomial_family,
)
from .signals import TemporalSignal, TimeGrid, inner_product, normalize

# Written in this order by dump_config, so it fixes the bytes of every
# seeded config file.
_CAVITY_KEYS = ("alpha", "gamma_s", "gamma_c", "kappa_s", "kappa_c")


@dataclass(frozen=True)
class ExperimentConfig:
    """Validated parameters for one scenario run."""

    scenario: str
    grid: TimeGrid
    cavity: CavityParams
    control_center: float = 3.0
    mode_index: int = 1
    target_order: int = 0
    q: float = 1e-7
    theta: float = 0.0
    basis_size: int = 8
    model: str = "full"
    alpha_min: float = 0.5
    alpha_max: float = 10.0
    alpha_step: float = 0.25
    unit_time_s: float = 100e-12
    lambda_s_m: float = 1550e-9
    lambda_c_m: float = 775e-9

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{field.name} must be finite, got {value}")
        if min(self.unit_time_s, self.lambda_s_m, self.lambda_c_m) <= 0:
            raise ConfigError("unit_time_s, lambda_s_m and lambda_c_m must be > 0")
        if self.scenario == "units" and self.cavity.gamma_c <= 0:
            raise ConfigError("units needs gamma_c > 0 to report converted-band rates")
        span = self.alpha_max - self.alpha_min
        if not (self.alpha_step > 0 and math.isfinite(span / self.alpha_step)):
            raise ConfigError(
                "alpha grid needs alpha_step > 0 and a finite point count "
                "(alpha_max - alpha_min) / alpha_step, "
                f"got {self.alpha_min}, {self.alpha_max}, {self.alpha_step}"
            )
        alphas = self.alpha_grid
        if len(alphas) < 3:
            raise ConfigError(
                f"alpha grid needs at least 3 points, got {len(alphas)} from "
                f"{self.alpha_min} to {self.alpha_max} in steps of {self.alpha_step}"
            )
        # the sweep's largest |alpha| is at one end of its ascending grid
        for alpha in (alphas[0], alphas[-1]):
            try:
                dataclasses.replace(self.cavity, alpha=alpha)
            except ValueError as exc:
                raise ConfigError(str(exc)) from None
        if self.scenario == "fig4-design" and self.cavity.f_s <= 0:
            raise ConfigError("fig4-design needs a nonzero alpha (f_s > 0)")
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.scenario == "fig3-orthogonal" and self.mode_index < 1:
            raise ConfigError("mode_index must be >= 1")
        if self.basis_size < 2:
            raise ConfigError("basis_size must be >= 2")
        # at most n_samples modes are orthonormal on n_samples samples
        if (
            "basis_size" in SCENARIOS[self.scenario][0]
            and self.basis_size > self.grid.n_samples
        ):
            raise ConfigError(
                f"basis_size must be <= n_samples = {self.grid.n_samples}, "
                f"got {self.basis_size}"
            )
        if not 0 <= self.target_order <= MAX_HERMITE_ORDER:
            raise ConfigError(f"target_order must be within [0, {MAX_HERMITE_ORDER}]")
        if self.q <= 0:
            raise ConfigError(f"q must be > 0, got {self.q}")
        if "control_center" in SCENARIOS[self.scenario][0]:
            fig4 = self.scenario == "fig4-design"
            margin = hermite_margin(self.target_order) if fig4 else CONTROL_MARGIN
            try:
                _require_margin(self.control_center, self.grid, margin, "pulse")
            except WindowClippingError as exc:
                raise ConfigError(f"control_center: {exc}") from None

    @property
    def alpha_grid(self) -> list[float]:
        """The alpha-scan sweep points, alpha_min to alpha_max by alpha_step."""
        n_steps = round((self.alpha_max - self.alpha_min) / self.alpha_step)
        return [self.alpha_min + k * self.alpha_step for k in range(n_steps + 1)]

    def as_dict(self) -> dict:
        """Flat JSON-ready view: shared sections plus this scenario's keys."""
        return {
            "scenario": self.scenario,
            "grid": dataclasses.asdict(self.grid),
            "cavity": {key: getattr(self.cavity, key) for key in _CAVITY_KEYS},
            **{key: getattr(self, key) for key in SCENARIOS[self.scenario][0]},
        }


def _trajectory_table(traj):
    """The ``t,S_re,S_im,C_re,C_im,control_abs`` table of a trajectory's state."""
    s, c, a = traj.S.values, traj.C.values, np.abs(traj.control.values)
    header = ("t", "S_re", "S_im", "C_re", "C_im", "control_abs")
    return header, (s.real, s.imag, c.real, c.imag, a), traj.grid


def _signal_table(signal):
    """The ``t,re,im`` table of a signal."""
    values = signal.values
    return ("t", "re", "im"), (values.real, values.imag), signal.grid


def _trajectory_outputs(traj, *signals):
    """Results and tables of a run of ``traj``: its state in ``trajectory.csv``
    and each ``(file name, signal)`` pair of ``signals`` in a signal table."""
    wout = unconverted_energy(traj)
    abs_c = np.abs(traj.C.values)
    k_peak = int(abs_c.argmax())
    minus_ic = -1j * traj.C.values[k_peak]
    results = {
        "w_out": float(wout.value),
        "w_out_plateaued": bool(wout.plateaued),
        "w_out_tail_fraction": float(wout.tail_fraction),
        "max_abs_S": float(np.abs(traj.S.values).max()),
        "max_abs_C": float(abs_c.max()),
        "peak_minus_ic_re": float(minus_ic.real),
        "peak_minus_ic_im": float(minus_ic.imag),
        "final_abs_C_sq": float(abs(traj.C.values[-1]) ** 2),
        "conservation_residual": float(conservation_residual(traj)),
    }
    tables = {"trajectory.csv": _trajectory_table(traj)}
    tables.update((name, _signal_table(signal)) for name, signal in signals)
    return results, tables


def _orthogonal_family(config: ExperimentConfig, size: int):
    control = gaussian_control(config.control_center, config.grid)
    seed = normalize(optimal_input_mode(config.cavity, control))
    return control, polynomial_family(seed, size, config.control_center)


def _run_fig2_gaussian(config):
    """Gaussian control driving an input of the same Gaussian shape (mode-mismatched storage benchmark)."""
    control = gaussian_control(config.control_center, config.grid)
    return _trajectory_outputs(simulate(config.cavity, control, control))


def _run_fig2_optimal(config):
    """Gaussian control driving its matched optimal input mode (near-complete storage)."""
    control = gaussian_control(config.control_center, config.grid)
    mode = optimal_input_mode(config.cavity, control)
    traj = simulate(config.cavity, control, mode)
    return _trajectory_outputs(traj, ("input_mode.csv", mode))


def _run_fig3(config):
    """Input mode orthogonal to the optimal one; mode_index picks the family member."""
    control, family = _orthogonal_family(config, config.mode_index)
    mode = TemporalSignal(config.grid, family[config.mode_index])
    traj = simulate(config.cavity, control, mode)
    results, tables = _trajectory_outputs(traj, ("input_mode.csv", mode))
    results["mode_index"] = config.mode_index
    results["minus_ic_min_re"] = float((-1j * traj.C.values).real.min())
    return results, tables


def _run_fig4(config):
    """Control pulse designed to store a chosen Hermite-Gauss target (target_order, q, theta)."""
    target = hermite_gaussian(config.target_order, config.control_center, config.grid)
    control = design_control(target, config.cavity.f_s, config.q, config.theta)
    traj = simulate(config.cavity, control, target)
    results, tables = _trajectory_outputs(
        traj, ("designed_control.csv", control), ("target_mode.csv", target)
    )
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
    return results, tables


def _run_alpha_scan(config):
    """Sweep of the coupling strength with per-point matched inputs; reports the best value."""
    control = gaussian_control(config.control_center, config.grid)
    result = scan_alpha(config.cavity, control, config.alpha_grid, config.model)
    columns = (
        np.array(result.alphas),
        np.array(result.w_out),
        np.array(result.diverged, dtype=int),
    )
    results = {
        "model": config.model,
        "best_alpha": float(result.best_alpha),
        "best_w_out": float(result.best_w_out),
        "n_points": len(result.alphas),
        "n_diverged": int(sum(result.diverged)),
    }
    table = (("alpha", "w_out", "diverged"), columns, None)
    return results, {"wout_vs_alpha.csv": table}


def _run_green_kernel(config):
    """Conversion-kernel assembly over an orthonormal basis with singular-value analysis."""
    control, family = _orthogonal_family(config, config.basis_size - 1)
    report = green_kernel(config.cavity, control, family, model=config.model)
    sv, eff = report.singular_values, report.conversion_efficiencies
    columns = (np.arange(len(sv)), sv, eff)
    dominant = TemporalSignal(config.grid, report.input_modes[0])
    tables = {
        "singular_values.csv": (("index", "sigma", "efficiency"), columns, None),
        "dominant_mode.csv": _signal_table(dominant),
    }
    # JSON has no Infinity: a rank-1 kernel (eff[1] == 0) has no contrast
    contrast = float(eff[0] / eff[1]) if eff[1] > 0 else None
    results = {
        "model": config.model,
        "basis_size": config.basis_size,
        "singular_values": [float(v) for v in sv],
        "conversion_efficiencies": [float(v) for v in eff],
        "dominant_efficiency": float(eff[0]),
        "contrast": contrast,
        "schmidt_number": float(report.schmidt_number),
        "sigma2_over_sigma1": float(sv[1] / sv[0]) if sv[0] > 0 else 0.0,
    }
    return results, tables


def _run_units(config):
    """Dimensionless rates translated to SI rates, lifetimes, and quality factors."""
    report = physical_units(
        config.unit_time_s, config.lambda_s_m, config.lambda_c_m, config.cavity
    )
    results = {
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
    return results, {}


# Each scenario's [scenario] keys beyond ``name``, and the function that
# runs it, ``runner(config) -> (results, tables)``; the function's docstring
# is its description in ``tmcavity list``.
SCENARIOS = {
    "fig2-gaussian": (("control_center",), _run_fig2_gaussian),
    "fig2-optimal": (("control_center",), _run_fig2_optimal),
    "fig3-orthogonal": (("control_center", "mode_index"), _run_fig3),
    "fig4-design": (("control_center", "target_order", "q", "theta"), _run_fig4),
    "alpha-scan": (
        ("control_center", "alpha_min", "alpha_max", "alpha_step", "model"),
        _run_alpha_scan,
    ),
    "green-kernel": (("control_center", "basis_size", "model"), _run_green_kernel),
    "units": (("unit_time_s", "lambda_s_m", "lambda_c_m"), _run_units),
}

# How an INI value becomes a field of each annotated type, and what an
# error calls that type. The annotations are strings, as every module uses
# ``from __future__ import annotations``.
_PARSERS = {
    "int": (int, "integer"),
    "float": (float, "number"),
    "str": (str.strip, "string"),
}
# Each config section and the dataclass it builds, in the order they load.
_SECTIONS = {"grid": TimeGrid, "cavity": CavityParams, "scenario": ExperimentConfig}


def _line_of(text: str, section: str, key: str | None) -> int:
    """Best-effort line anchor for an error in an INI file."""
    want_section = f"[{section}]"
    in_section = section == ""
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped.startswith("["):
            if key is None and stripped == want_section:
                return lineno
            in_section = stripped == want_section
            continue
        if key is not None and in_section:
            head = stripped.split("=")[0].split(":")[0].strip()
            if head == key:
                return lineno
    return 0


def load_config(path) -> ExperimentConfig:
    """Parse and validate a config file, raising :class:`ConfigError` with
    ``path:line`` anchors on any defect."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()

    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        lineno = getattr(exc, "lineno", 0) or 0
        raise ConfigError(f"{path}:{lineno}: {exc.message}") from None

    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(
                f"{path}:{_line_of(text, section, None)}: unknown section [{section}]"
            )
    for section in _SECTIONS:
        if section not in parser:
            raise ConfigError(f"{path}:0: missing required section [{section}]")

    kwargs: dict = {}
    for section, cls in _SECTIONS.items():
        fields = {f.name: f for f in dataclasses.fields(cls)}
        items = dict(parser.items(section))
        values = kwargs[section] = {}
        if cls is ExperimentConfig:
            if "name" not in items:
                raise ConfigError(f"{path}:0: [scenario] is missing key 'name'")
            name = values["scenario"] = items.pop("name").strip()
            if name not in SCENARIOS:
                raise ConfigError(
                    f"{path}:{_line_of(text, 'scenario', 'name')}: "
                    f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
                )
            allowed = SCENARIOS[name][0]
        else:
            allowed = fields
        for key, raw in items.items():
            if key not in allowed:
                problem = (
                    f"key '{key}' is not valid for scenario '{name}'"
                    if cls is ExperimentConfig
                    else f"unknown key '{key}' in [{section}]"
                )
                raise ConfigError(f"{path}:{_line_of(text, section, key)}: {problem}")
            parse, kind = _PARSERS[fields[key].type]
            try:
                values[key] = parse(raw)
            except ValueError:
                raise ConfigError(
                    f"{path}:{_line_of(text, section, key)}: "
                    f"key '{key}' expects a {kind}, got {raw!r}"
                ) from None
        for key in allowed:
            if key not in values and fields[key].default is dataclasses.MISSING:
                raise ConfigError(f"{path}:0: [{section}] is missing key '{key}'")

    try:
        return ExperimentConfig(
            grid=TimeGrid(**kwargs["grid"]),
            cavity=CavityParams(**kwargs["cavity"]),
            **kwargs["scenario"],
        )
    except (ValueError, ConfigError) as exc:
        raise ConfigError(f"{path}:0: {exc}") from None


def dump_config(config: ExperimentConfig) -> str:
    """Serialize a config back to the INI text accepted by load_config."""
    fields = config.as_dict()
    sections = {
        "grid": fields.pop("grid"),
        "cavity": fields.pop("cavity"),
        "scenario": {"name": fields.pop("scenario"), **fields},
    }
    blocks = []
    for section, values in sections.items():
        lines = [f"[{section}]"]
        for key, value in values.items():
            text = value if isinstance(value, str) else repr(value)
            lines.append(f"{key} = {text}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"
