"""Regression: stored summaries for the standard runs, within a written budget.

Goldens freeze the full float output of every benchmark scenario. A rerun
must match them field by field:

* ints, strings, bools and the whole ``config`` echo exactly;
* other floats to ``rel <= 1e-12``;
* ``conservation_residual`` and ``w_out_tail_fraction`` to ``abs <= 1e-13``,
  because they are cancellations of O(1) energies, so their relative error
  is set by rounding in the energies, not by the quantity itself.

The budget admits the last-digit drift of another Python/numpy build
(at most 2.4e-15 relative, 1e-16 absolute on the cancellations) and is still
about six orders of magnitude tighter than the 1e-6 dt-halving accuracy the
integrators promise, so any change to the numerics shows. It is the budget
``perfbench/checks.py`` applies at seed 0. Regenerate deliberately with
``python scripts/regen_goldens.py`` after an intentional numerical change.
"""

import json
import time
from pathlib import Path

import pytest

from tmcavity.cli import _paper_scenario_configs, run

GOLDEN_DIR = Path(__file__).parent / "golden"

REL_BUDGET = 1e-12
ABS_BUDGET = 1e-13
ABS_FIELDS = {"conservation_residual", "w_out_tail_fraction"}


def within_budget(golden, key=None):
    """The golden with each float outside ``config`` replaced by its tolerance."""
    if isinstance(golden, dict):
        return {k: v if k == "config" else within_budget(v, k) for k, v in golden.items()}
    if isinstance(golden, list):
        return [within_budget(v, key) for v in golden]
    if isinstance(golden, float):
        if key in ABS_FIELDS:
            return pytest.approx(golden, rel=0, abs=ABS_BUDGET)
        return pytest.approx(golden, rel=REL_BUDGET, abs=0)
    return golden


@pytest.mark.parametrize("stem", sorted(_paper_scenario_configs()))
def test_summary_matches_golden(stem, tmp_path):
    config = _paper_scenario_configs()[stem]
    t0 = time.perf_counter()
    summary = run(config, tmp_path / stem)
    assert time.perf_counter() - t0 < 10.0
    summary.pop("metadata")
    golden_path = GOLDEN_DIR / f"{stem}.json"
    assert golden_path.exists(), f"missing golden file {golden_path}"
    with open(golden_path, "r", encoding="utf-8") as fh:
        golden = json.load(fh)
    assert summary == within_budget(golden)
