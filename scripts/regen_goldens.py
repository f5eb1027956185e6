#!/usr/bin/env python3
"""Regenerate the golden summaries under tests/golden/.

Runs every standard benchmark scenario and stores its summary with the
metadata block stripped, for the regression test to compare reruns with
field by field under its numerical budget.
Rerun this only when an intentional change shifts the stored numbers.
"""

import json
import sys
import tempfile
from pathlib import Path

from tmcavity.cli import _paper_scenario_configs, run


def main() -> int:
    golden_dir = Path(__file__).resolve().parent.parent / "tests" / "golden"
    golden_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for stem, config in _paper_scenario_configs().items():
            summary = run(config, Path(tmp) / stem)
            summary.pop("metadata")
            path = golden_dir / f"{stem}.json"
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                json.dump(summary, fh, indent=2, sort_keys=True)
                fh.write("\n")
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
