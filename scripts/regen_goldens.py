#!/usr/bin/env python3
"""Regenerate the golden summaries under tests/golden/, or report their headroom.

Runs every standard benchmark scenario and stores its summary with the
metadata block stripped, for the regression test to compare reruns with
field by field under its numerical budget.
Rerun this only when an intentional change shifts the stored numbers.

With ``--headroom`` it writes nothing: it prints each golden float's drift
from the rerun as a percentage of its budget, largest first. The budget is
the one ``tests/test_golden.py`` applies (``REL_BUDGET`` times the golden,
or ``ABS_BUDGET`` for the ``ABS_FIELDS``); over 100 % fails that test.
"""

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

from tmcavity.cli import _paper_scenario_configs, run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_DIR = ROOT / "tests" / "golden"
sys.path.insert(0, str(ROOT / "tests"))
from test_golden import ABS_BUDGET, ABS_FIELDS, REL_BUDGET  # noqa: E402


def summaries():
    """(stem, summary without metadata) of every standard scenario."""
    with tempfile.TemporaryDirectory() as tmp:
        for stem, config in _paper_scenario_configs().items():
            summary = run(config, Path(tmp) / stem)
            summary.pop("metadata")
            yield stem, summary


def drifts(golden, rerun, key=None, path=""):
    """(path, drift / budget) of each float of ``golden`` outside ``config``."""
    if isinstance(golden, dict):
        for k, v in golden.items():
            if k != "config":
                yield from drifts(v, rerun[k], k, f"{path}.{k}".lstrip("."))
    elif isinstance(golden, list):
        for i, (g, r) in enumerate(zip(golden, rerun)):
            yield from drifts(g, r, key, f"{path}[{i}]")
    elif isinstance(golden, float):
        drift = abs(rerun - golden)
        budget = ABS_BUDGET if key in ABS_FIELDS else REL_BUDGET * abs(golden)
        yield path, drift / budget if budget else (0.0 if drift == 0 else math.inf)


def headroom() -> int:
    rows = []
    for stem, summary in summaries():
        golden = json.loads((GOLDEN_DIR / f"{stem}.json").read_text(encoding="utf-8"))
        rows += [(f, stem, p) for p, f in drifts(golden, summary)]
    for fraction, stem, path in sorted(rows, key=lambda r: -r[0]):
        print(f"{100.0 * fraction:9.2f} %  {stem}  {path}")
    return 0


def regenerate() -> int:
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for stem, summary in summaries():
        path = GOLDEN_DIR / f"{stem}.json"
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--headroom", action="store_true",
        help="print each golden float's drift as a percentage of its budget",
    )
    args = parser.parse_args(argv)
    return headroom() if args.headroom else regenerate()


if __name__ == "__main__":
    sys.exit(main())
