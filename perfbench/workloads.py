"""Seeded scenario generator and the benchmark's workload definitions.

A workload is a fixed list of ``tmcavity run`` scenarios. Sizes never vary:
the grid keeps 10001 samples, the alpha sweep keeps its 39 points and the
kernels keep their basis sizes, so timings compare across seeds. The seed
only jitters continuous physical inputs, inside ranges where every paper
invariant in ``checks.py`` still holds. Seed 0 is the paper point.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import checks

PAPER_POINT = {
    "alpha": 5.5,
    "gamma_s": 10.1,
    "gamma_c": 0.01,
    "control_center": 3.0,
    "theta": 0.0,
}

# Jitter ranges for seeds other than 0. Within them the mismatched W_out
# stays in 0.29..0.42, matched and designed W_out below 0.02, orthogonal
# W_out above 0.98, the full-model sweep optimum at 5.25..5.5 and the
# full-kernel contrast near 93.
JITTER = {
    "alpha": (5.2, 5.8),
    "gamma_s": (9.8, 10.4),
    "control_center": (2.9, 3.3),
    "theta": (-math.pi, math.pi),
}

GRID = (0.0, 10.0, 10001)


@dataclass(frozen=True)
class Scenario:
    """One ``tmcavity run``: a config stem, its scenario keys and its checks.

    ``golden`` names the file in ``tests/golden`` that this scenario must
    reproduce at seed 0, or is None where the repository has no golden.
    """

    stem: str
    scenario: str
    keys: dict = field(default_factory=dict)
    golden: str | None = None
    invariants: tuple = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    scenarios: tuple[Scenario, ...]


ALPHA_GRID = {"alpha_min": 0.5, "alpha_max": 10.0, "alpha_step": 0.25}
_LOSSLESS = (checks.lossless_balance,)

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "figures",
            # Each scenario does one full integration but writes three to
            # four 10001-row CSVs, so the row-by-row writers take most of a
            # pass and the integrator about a fifth. A CSV-writer change
            # shows here; a faster integrator shows only a fraction of its
            # gain.
            "the six paper-figure runs: one integration each but 3-4 CSVs "
            "of 10001 rows, so the CSV writers dominate",
            (
                Scenario("fig2-gaussian", "fig2-gaussian", {},
                         "fig2-gaussian", (checks.mismatched_stores_little,) + _LOSSLESS),
                Scenario("fig2-optimal", "fig2-optimal", {},
                         "fig2-optimal", (checks.matched_stores,) + _LOSSLESS),
                Scenario("fig3-mode1", "fig3-orthogonal", {"mode_index": 1},
                         "fig3-mode1", (checks.orthogonal_passes,) + _LOSSLESS),
                Scenario("fig3-mode2", "fig3-orthogonal", {"mode_index": 2},
                         "fig3-mode2", (checks.orthogonal_passes,) + _LOSSLESS),
                Scenario("fig4-hg0", "fig4-design", {"target_order": 0},
                         "fig4-hg0", (checks.matched_stores,) + _LOSSLESS),
                Scenario("fig4-hg1", "fig4-design", {"target_order": 1},
                         "fig4-hg1", (checks.matched_stores,) + _LOSSLESS),
            ),
        ),
        Workload(
            "alpha-sweep",
            # Nearly all of a pass is 78 sequential integrations (39 full,
            # 39 reduced) and the output is one 39-row CSV per sweep. A
            # batched integrator shows here; a CSV change should not. The
            # closed-form sweep costs about 1 % of a pass; it is the one
            # run of the benchmark that calls analytic_conversion.
            "alpha-scan over 39 points with the full, reduced and closed-form "
            "models: 78 integrations, tiny output, so the integrators dominate",
            (
                Scenario("alpha-scan-full", "alpha-scan", {"model": "full", **ALPHA_GRID},
                         "alpha-scan", (checks.full_sweep_optimum,)),
                Scenario("alpha-scan-reduced", "alpha-scan", {"model": "reduced", **ALPHA_GRID},
                         None, (checks.reduced_sweep_decreasing,)),
                Scenario("alpha-scan-analytic", "alpha-scan", {"model": "analytic", **ALPHA_GRID},
                         None, (checks.analytic_sweep_decreasing,)),
            ),
        ),
        Workload(
            "kernel",
            # The only workload where the O(m^2) orthonormalisation path
            # (Gram-Schmidt, ModeFamily checks, inner products, kernel
            # reconstruction) carries real weight, and where the basis CSV
            # is wide (97 columns) rather than long. The 8-mode full kernel
            # is the paper's selectivity point. The 48-mode kernel uses the
            # reduced model: the closed-form kernel is exactly rank 1, and
            # green_kernel rejects it on about one seed in six, when
            # rounding puts its Schmidt number 1 ulp below 1.
            "green-kernel full/8 (paper selectivity point) and reduced/48: "
            "O(m^2) orthonormalisation and a wide basis CSV",
            (
                Scenario("kernel-full-8", "green-kernel",
                         {"model": "full", "basis_size": 8},
                         "green-kernel", (checks.full_kernel_selective,)),
                Scenario("kernel-reduced-48", "green-kernel",
                         {"model": "reduced", "basis_size": 48},
                         None, (checks.reduced_kernel_selective,)),
            ),
        ),
    )
}

def inputs_for_seed(seed: int) -> dict:
    """Continuous physical inputs for a seed; seed 0 is the paper point."""
    if seed == 0:
        return dict(PAPER_POINT)
    rng = random.Random(seed)
    out = dict(PAPER_POINT)
    for key, (lo, hi) in JITTER.items():
        out[key] = rng.uniform(lo, hi)
    return out


def write_configs(workload: Workload, seed: int, config_dir: Path) -> list[Path]:
    """Write the workload's INI files for ``seed`` through ``dump_config``.

    The benchmark later hands the program only what ``load_config`` reads
    back from these files.
    """
    from tmcavity.cavity import CavityParams
    from tmcavity.config import ExperimentConfig, dump_config
    from tmcavity.signals import TimeGrid

    point = inputs_for_seed(seed)
    grid = TimeGrid(*GRID)
    cavity = CavityParams(
        gamma_s=point["gamma_s"], gamma_c=point["gamma_c"], alpha=point["alpha"]
    )
    config_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for sc in workload.scenarios:
        keys = dict(sc.keys)
        if sc.scenario == "fig4-design":
            keys["theta"] = point["theta"]
        config = ExperimentConfig(
            scenario=sc.scenario,
            grid=grid,
            cavity=cavity,
            control_center=point["control_center"],
            **keys,
        )
        path = config_dir / f"{sc.stem}.ini"
        path.write_text(dump_config(config), encoding="utf-8")
        paths.append(path)
    return paths
