"""Temporal-mode-selective frequency conversion in a two-band cavity.

Simulation of the coupled-mode dynamics at three levels of approximation,
construction of matched input modes and orthogonal families, inverse design
of control pulses for chosen targets, and Schmidt-mode selectivity analysis.
"""

from .analysis import (
    AlphaScanResult,
    PhysicalUnitsReport,
    SchmidtReport,
    UnconvertedEnergy,
    conservation_residual,
    green_kernel,
    physical_units,
    scan_alpha,
    unconverted_energy,
)
from .cavity import CavityParams, CavityTrajectory, simulate
from .config import ExperimentConfig, load_config
from .design import design_control, impedance_residual
from .errors import (
    ConfigError,
    DegenerateBasisError,
    DegenerateSignalError,
    GridMismatchError,
    InstabilityError,
    InvalidRegularizationError,
    NonOrthonormalBasisError,
    TmCavityError,
    UndefinedResidualError,
    UnsupportedInputError,
    UnsupportedOrderError,
    WindowClippingError,
)
from .modes import (
    gaussian_control,
    hermite_gaussian,
    optimal_input_mode,
    polynomial_family,
)
from .signals import (
    TemporalSignal,
    TimeGrid,
    cumulative_integral,
    inner_product,
    normalize,
    quadrature_weights,
)

__version__ = "0.1.0"
