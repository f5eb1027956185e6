"""Correctness checks applied to every scenario the benchmark runs.

Two kinds of check:

* paper invariants, which hold at every seed the generator can produce;
* at seed 0, a field-by-field comparison with ``tests/golden/*.json``
  under a written numerical budget: ints, strings, bools and the config
  echo exactly; floats to ``rel <= 1e-12``; the two cancellation
  quantities ``conservation_residual`` and ``w_out_tail_fraction`` to
  ``abs <= 1e-13``, since they are differences of O(1) energies.

Each invariant takes a scenario's ``summary.json`` contents and its output
directory, and returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# Largest |W_out - exp(-2 f_s)| of the reduced-model sweep: the slow decay
# and the finite window leave at most 2.1e-3 across the jitter ranges.
EXP_LAW_ABS = 5e-3
# W_out of the closed-form sweep below which it has reached the energy
# outside the time window (8.6e-7 at the paper point) and stops falling.
ANALYTIC_FLOOR = 1e-5

REL_BUDGET = 1e-12
ABS_BUDGET = 1e-13
ABS_FIELDS = {"conservation_residual", "w_out_tail_fraction"}


def _bound(summary: dict, key: str, *, above=None, below=None) -> list[str]:
    value = summary["results"][key]
    if above is not None and not value > above:
        return [f"{key} = {value!r}, expected > {above}"]
    if below is not None and not value < below:
        return [f"{key} = {value!r}, expected < {below}"]
    return []


def mismatched_stores_little(summary, out_dir):
    """Gaussian input on its own control leaves a large W_out (0.36)."""
    return _bound(summary, "w_out", above=0.2)


def matched_stores(summary, out_dir):
    """Matched and designed inputs are stored almost completely."""
    return _bound(summary, "w_out", below=0.03)


def orthogonal_passes(summary, out_dir):
    """Inputs orthogonal to the matched mode pass through unconverted."""
    return _bound(summary, "w_out", above=0.95)


def lossless_balance(summary, out_dir):
    """Photons are conserved without internal loss."""
    return _bound(summary, "conservation_residual", below=1e-5)


def full_kernel_selective(summary, out_dir):
    """The full-model kernel converts one mode at least 40x better."""
    contrast = summary["results"]["contrast"]
    return [] if contrast >= 40.0 else [f"contrast = {contrast!r}, expected >= 40"]


def reduced_kernel_selective(summary, out_dir):
    """The reduced-model kernel over a wide basis converts one input mode
    almost completely (efficiency above 0.995, contrast near 107, Schmidt
    number near 1.04 across the jitter ranges), never more than all of it
    (the model is lossless), and has one singular value per basis mode."""
    results = summary["results"]
    failures = _bound(summary, "dominant_efficiency", above=0.99)
    failures += _bound(summary, "dominant_efficiency", below=1.0 + 1e-9)
    failures += _bound(summary, "contrast", above=40.0)
    failures += _bound(summary, "schmidt_number", above=1.0)
    failures += _bound(summary, "schmidt_number", below=1.1)
    if len(results["singular_values"]) != results["basis_size"]:
        failures.append(f"{len(results['singular_values'])} singular values for "
                        f"basis_size {results['basis_size']}")
    return failures


def full_sweep_optimum(summary, out_dir):
    """The full-model sweep has its optimum near alpha = 5.5."""
    results = summary["results"]
    failures = []
    if abs(results["best_alpha"] - 5.5) > 0.5:
        failures.append(f"best_alpha = {results['best_alpha']!r}, expected 5.5 +/- 0.5")
    if results["n_diverged"] != 0:
        failures.append(f"n_diverged = {results['n_diverged']}, expected 0")
    return failures


def reduced_sweep_decreasing(summary, out_dir):
    """The reduced model has no interior optimum: W_out falls with alpha,
    following the closed-form law W_out = exp(-2 f_s), f_s = alpha^2 / gt_s."""
    return _exp_law_sweep(summary, out_dir, floor=0.0)


def analytic_sweep_decreasing(summary, out_dir):
    """The closed-form sweep follows the same law, down to the ~9e-7 of the
    pulse the finite window leaves out; below ``ANALYTIC_FLOOR`` the points
    may tie or rise by rounding."""
    return _exp_law_sweep(summary, out_dir, floor=ANALYTIC_FLOOR)


def _exp_law_sweep(summary, out_dir, *, floor):
    results = summary["results"]
    cavity = summary["config"]["cavity"]
    gt_s = cavity["gamma_s"] + cavity["kappa_s"]
    with open(Path(out_dir) / "wout_vs_alpha.csv", encoding="utf-8") as fh:
        rows = [(float(r["alpha"]), float(r["w_out"])) for r in csv.DictReader(fh)]
    failures = []
    if len(rows) != results["n_points"]:
        failures.append(f"wout_vs_alpha.csv has {len(rows)} rows, summary says {results['n_points']}")
    bad = [i for i in range(1, len(rows))
           if rows[i - 1][1] > floor and not rows[i][1] < rows[i - 1][1]]
    if bad:
        failures.append(f"W_out not strictly decreasing at sweep point {bad[0]}")
    off = [(a, w) for a, w in rows if not abs(w - math.exp(-2.0 * a * a / gt_s)) <= EXP_LAW_ABS]
    if off:
        failures.append(f"W_out = {off[0][1]!r} at alpha {off[0][0]} is off exp(-2 f_s) by more than {EXP_LAW_ABS}")
    if results["n_diverged"] != 0:
        failures.append(f"n_diverged = {results['n_diverged']}, expected 0")
    return failures


def compare_golden(summary: dict, golden_path: Path) -> list[str]:
    """Field-by-field comparison of a summary with a golden file."""
    with open(golden_path, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = {k: v for k, v in summary.items() if k != "metadata"}
    failures: list[str] = []
    _compare(got, golden, golden_path.stem, failures, exact=False)
    return failures


def _compare(got, want, where, failures, *, exact):
    if isinstance(want, dict):
        if not isinstance(got, dict) or set(got) != set(want):
            failures.append(f"{where}: keys {sorted(got) if isinstance(got, dict) else got!r} != {sorted(want)}")
            return
        for key in want:
            _compare(got[key], want[key], f"{where}.{key}", failures,
                     exact=exact or key == "config")
        return
    if isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            failures.append(f"{where}: {got!r} != {want!r}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{where}[{i}]", failures, exact=exact)
        return
    if exact or not isinstance(want, float) or not isinstance(got, float):
        if type(got) is not type(want) or got != want:
            failures.append(f"{where}: {got!r} != golden {want!r}")
        return
    diff = abs(got - want)
    if where.rsplit(".", 1)[-1] in ABS_FIELDS:
        if not diff <= ABS_BUDGET:
            failures.append(f"{where}: |{got!r} - {want!r}| = {diff:.3e} > {ABS_BUDGET}")
    elif not diff <= REL_BUDGET * max(abs(got), abs(want)):
        failures.append(f"{where}: {got!r} vs golden {want!r} beyond rel {REL_BUDGET}")
