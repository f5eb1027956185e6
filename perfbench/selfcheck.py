"""Self-check of the benchmark's traced run.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py [--seed 0] [--seconds 6]

For every workload it makes two traced runs of the same seed and requires
them to give identical counts: call counts of every traced name, RK4 steps,
bytes written and computed. Later changes may rest count-based claims only
on counts that repeat like this. It also requires each run to pass its own
correctness checks, and the layer self times of a pass to add up to the
traced pass time.

It then reports whether the layer split each workload was chosen for still
holds (CSV writers above 60 % of ``figures``, integrators above 90 % of
``alpha-sweep``, the orthonormalisation path above 10 % of ``kernel`` and
below 2 % elsewhere). A change that speeds one layer up is expected to
move these shares, so they are reported and do not fail the check.

Exit status is 0 when every required check passed, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
RESULTS = HERE.parent / ".perfbench" / "results"

WRITERS = ("cavity.trajectory_to_csv", "signals.signal_to_csv",
           "modes.mode_family_to_csv")
INTEGRATORS = ("cavity.simulate_full", "cavity.simulate_reduced")
ORTHONORMALISATION = ("modes.gram_schmidt_family", "modes.ModeFamily",
                      "signals.inner_product", "analysis.green_kernel")

# (names whose summed self time is the share, workload, lower, upper)
SPLITS = (
    (WRITERS, "figures", 0.60, 1.0),
    (INTEGRATORS, "alpha-sweep", 0.90, 1.0),
    # 11-12 % with the 48-mode reduced kernel; 48 reduced-model runs take
    # most of the rest of that scenario.
    (ORTHONORMALISATION, "kernel", 0.10, 1.0),
    (ORTHONORMALISATION, "figures", 0.0, 0.02),
    (ORTHONORMALISATION, "alpha-sweep", 0.0, 0.02),
)


def traced_run(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=600)
    with open(RESULTS / f"{workload}-seed{seed}-trace1.json", encoding="utf-8") as fh:
        record = json.load(fh)
    record["exit_code"] = proc.returncode
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Self-check of the traced run.")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=6.0)
    args = parser.parse_args(argv)

    ok = True
    first = {}
    for name in workloads.WORKLOADS:
        runs = [traced_run(name, args.seed, args.seconds) for _ in range(2)]
        first[name] = runs[0]
        for i, run in enumerate(runs):
            if run["exit_code"] != 0 or run["failures"]:
                ok = False
                print(f"FAIL {name} run {i}: exit {run['exit_code']}, "
                      f"failures {run['failures'][:3]}")
        a, b = runs[0]["counts"], runs[1]["counts"]
        differ = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
        ok &= not differ
        print(f"{'FAIL' if differ else 'ok  '} {name}: {len(a)} counts "
              f"{'differ: ' + ', '.join(differ) if differ else 'repeat exactly'}")
        for run in runs:
            traced = statistics.median(run["samples"]["traced_pass_s"])
            gap = abs(run["layer_self_sum_s"] - traced)
            # Medians of per-layer sums need not add up to the median pass,
            # so allow for the tracing overhead and 1 % of the pass.
            allowed = max(abs(run["metrics"]["trace.overhead_s"]["value"]), 0.01 * traced)
            good = gap <= allowed
            ok &= good
            print(f"{'ok  ' if good else 'FAIL'} {name}: layer self times "
                  f"{run['layer_self_sum_s']:.4f} s vs traced pass {traced:.4f} s")

    for names, workload, lo, hi in SPLITS:
        metrics = first[workload]["metrics"]
        share = sum(metrics[f"{n}.self_s"]["value"] for n in names) / sum(
            metrics[f"{layer}.self_s"]["value"] for layer in layers.PASS_LAYERS)
        holds = lo <= share <= hi
        print(f"{'holds' if holds else 'MOVED'} {workload}: {' + '.join(names)} "
              f"= {share:.1%} of the pass (expected {lo:.0%}..{hi:.0%})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
