"""Experiment configuration: INI-style files with strict key validation.

A config has three sections. ``[grid]`` and ``[cavity]`` are shared by all
scenarios; ``[scenario]`` selects one named experiment and carries only the
keys that scenario understands. Unknown sections or keys are rejected with
the offending file line, as are out-of-range values.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
from dataclasses import dataclass

from .cavity import MODELS, CavityParams
from .errors import ConfigError, WindowClippingError
from .modes import CONTROL_MARGIN, MAX_HERMITE_ORDER, _require_margin, hermite_margin
from .signals import TimeGrid

SCENARIO_KEYS = {
    "fig2-gaussian": ("control_center",),
    "fig2-optimal": ("control_center",),
    "fig3-orthogonal": ("control_center", "mode_index"),
    "fig4-design": ("control_center", "target_order", "q", "theta"),
    "alpha-scan": (
        "control_center",
        "alpha_min",
        "alpha_max",
        "alpha_step",
        "model",
    ),
    "green-kernel": ("control_center", "basis_size", "model"),
    "units": ("unit_time_s", "lambda_s_m", "lambda_c_m"),
}

_GRID_KEYS = ("t_start", "t_end", "n_samples")
_CAVITY_KEYS = ("alpha", "gamma_s", "gamma_c", "kappa_s", "kappa_c")
_INT_KEYS = {"n_samples", "mode_index", "target_order", "basis_size"}
_STR_KEYS = {"name", "model"}


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
        if self.scenario not in SCENARIO_KEYS:
            raise ConfigError(f"unknown scenario {self.scenario!r}")
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{field.name} must be finite, got {value}")
        if min(self.unit_time_s, self.lambda_s_m, self.lambda_c_m) <= 0:
            raise ConfigError("unit_time_s, lambda_s_m and lambda_c_m must be > 0")
        if self.scenario == "units" and self.cavity.gamma_c <= 0:
            raise ConfigError("units needs gamma_c > 0 to report converted-band rates")
        try:
            rates = (self.cavity.f_s, self.cavity.g_s)
        except OverflowError:  # alpha**2 past the float range
            rates = (math.inf,)
        if not all(map(math.isfinite, rates)):
            raise ConfigError(f"f_s or g_s overflows at alpha = {self.cavity.alpha}")
        if self.scenario == "fig4-design" and self.cavity.f_s <= 0:
            raise ConfigError("fig4-design needs a nonzero alpha (f_s > 0)")
        if self.model not in MODELS:
            raise ConfigError(f"unknown model {self.model!r}")
        if self.scenario == "fig3-orthogonal" and self.mode_index < 1:
            raise ConfigError("mode_index must be >= 1")
        if self.basis_size < 2:
            raise ConfigError("basis_size must be >= 2")
        if not 0 <= self.target_order <= MAX_HERMITE_ORDER:
            raise ConfigError(f"target_order must be within [0, {MAX_HERMITE_ORDER}]")
        if self.q <= 0:
            raise ConfigError(f"q must be > 0, got {self.q}")
        if "control_center" in SCENARIO_KEYS[self.scenario]:
            fig4 = self.scenario == "fig4-design"
            margin = hermite_margin(self.target_order) if fig4 else CONTROL_MARGIN
            try:
                _require_margin(self.control_center, self.grid, margin, "pulse")
            except WindowClippingError as exc:
                raise ConfigError(f"control_center: {exc}") from None
        span = self.alpha_max - self.alpha_min
        if not (self.alpha_step > 0 and math.isfinite(span)):
            raise ConfigError(
                "alpha grid needs finite alpha_min, alpha_max and alpha_step > 0, "
                f"got {self.alpha_min}, {self.alpha_max}, {self.alpha_step}"
            )
        n_points = len(self.alpha_grid)
        if n_points < 3:
            raise ConfigError(
                f"alpha grid needs at least 3 points, got {n_points} from "
                f"{self.alpha_min} to {self.alpha_max} in steps of {self.alpha_step}"
            )

    @property
    def alpha_grid(self) -> list[float]:
        """The alpha-scan sweep points, alpha_min to alpha_max by alpha_step."""
        n_steps = round((self.alpha_max - self.alpha_min) / self.alpha_step)
        return [self.alpha_min + k * self.alpha_step for k in range(n_steps + 1)]

    def as_dict(self) -> dict:
        """Flat JSON-ready view: shared sections plus this scenario's keys."""
        out = {
            "scenario": self.scenario,
            "grid": {key: getattr(self.grid, key) for key in _GRID_KEYS},
            "cavity": {key: getattr(self.cavity, key) for key in _CAVITY_KEYS},
        }
        for key in SCENARIO_KEYS[self.scenario]:
            out[key] = getattr(self, key)
        return out


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


def _convert(section: str, key: str, raw: str, path, text):
    try:
        if key in _STR_KEYS:
            return raw.strip()
        if key in _INT_KEYS:
            return int(raw)
        return float(raw)
    except ValueError:
        kind = "string" if key in _STR_KEYS else ("integer" if key in _INT_KEYS else "number")
        raise ConfigError(
            f"{path}:{_line_of(text, section, key)}: "
            f"key '{key}' expects a {kind}, got {raw!r}"
        ) from None


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
        if section not in ("grid", "cavity", "scenario"):
            raise ConfigError(
                f"{path}:{_line_of(text, section, None)}: unknown section [{section}]"
            )
    for section in ("grid", "cavity", "scenario"):
        if section not in parser:
            raise ConfigError(f"{path}:0: missing required section [{section}]")

    values: dict = {}

    for key, raw in parser.items("grid"):
        if key not in _GRID_KEYS:
            raise ConfigError(
                f"{path}:{_line_of(text, 'grid', key)}: unknown key '{key}' in [grid]"
            )
        values[key] = _convert("grid", key, raw, path, text)
    for key in _GRID_KEYS:
        if key not in values:
            raise ConfigError(f"{path}:0: [grid] is missing key '{key}'")

    cavity_kwargs: dict = {}
    for key, raw in parser.items("cavity"):
        if key not in _CAVITY_KEYS:
            raise ConfigError(
                f"{path}:{_line_of(text, 'cavity', key)}: "
                f"unknown key '{key}' in [cavity]"
            )
        cavity_kwargs[key] = _convert("cavity", key, raw, path, text)
    for key in ("alpha", "gamma_s", "gamma_c"):
        if key not in cavity_kwargs:
            raise ConfigError(f"{path}:0: [cavity] is missing key '{key}'")

    scen_items = dict(parser.items("scenario"))
    name = scen_items.pop("name", None)
    if name is None:
        raise ConfigError(f"{path}:0: [scenario] is missing key 'name'")
    name = name.strip()
    if name not in SCENARIO_KEYS:
        raise ConfigError(
            f"{path}:{_line_of(text, 'scenario', 'name')}: "
            f"unknown scenario {name!r}; choose from {sorted(SCENARIO_KEYS)}"
        )
    scen_kwargs: dict = {}
    for key, raw in scen_items.items():
        if key not in SCENARIO_KEYS[name]:
            raise ConfigError(
                f"{path}:{_line_of(text, 'scenario', key)}: "
                f"key '{key}' is not valid for scenario '{name}'"
            )
        scen_kwargs[key] = _convert("scenario", key, raw, path, text)

    try:
        grid = TimeGrid(
            t_start=values["t_start"],
            t_end=values["t_end"],
            n_samples=values["n_samples"],
        )
        cavity = CavityParams(**cavity_kwargs)
        return ExperimentConfig(
            scenario=name, grid=grid, cavity=cavity, **scen_kwargs
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
