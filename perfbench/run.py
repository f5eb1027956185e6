"""tmcavity benchmark: seeded scenario workloads driven through ``cli.run``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload figures --seed 0 --seconds 20 --trace 0

Each workload is a fixed list of scenarios (see ``workloads.py`` for what
they are and why each was chosen). The seed generates the scenario configs,
which pass through ``dump_config`` and ``load_config`` before the program
sees them. The load is closed-loop: one process, one client, each scenario
starting when the previous one has finished, as the CLI is used in batch.
Native thread pools are capped at the number of CPUs this process may use.

``--trace 0`` times whole passes over the scenario list with tracing off
and reports the end-to-end metrics. ``--trace 1`` alternates untraced
passes with passes in which every public function of each package module
is wrapped (see ``layers.py``), and reports the per-layer split and the
tracing overhead. Every scenario of every pass is checked against the
paper invariants and, at seed 0, against ``tests/golden``; repeated passes
must reproduce their results, and traced passes their counts, exactly.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit and sample count, and the environment. A full record,
and in traced runs every span, is written under ``.perfbench/results``.
Exit status is 0 when every check passed, 1 when one failed, 2 when the
package sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import layers
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = ROOT / "tests" / "golden"
OUT_DIR = ROOT / ".perfbench"

# Fewest fresh interpreters started to time set-up; the median is reported.
MIN_SETUP_ROUNDS = 5
# Rounds of config loading timed in a traced run.
LOAD_ROUNDS = 5

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import tmcavity; "
    "from tmcavity.config import load_config; "
    "[load_config(p) for p in sys.argv[2:]]"
)


def cap_threads() -> int:
    """Cap native thread pools at the CPUs this process may run on."""
    cap = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        os.environ[var] = str(cap)
    return cap


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int, cap: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py")
    )
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "thread_cap": cap,
        "seed": seed,
        "git_commit": git_commit(),
        "src_lines": src_lines,
    }


def setup_round(ini_paths: list[Path]) -> float:
    """Wall time of a fresh interpreter importing the package and loading
    the workload's configs."""
    cmd = [sys.executable, "-c", SETUP_CODE, str(SRC), *map(str, ini_paths)]
    t0 = time.perf_counter()
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=120, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


class Runner:
    """Runs passes over one workload's scenarios and checks each result."""

    def __init__(self, workload, configs, out_root: Path, seed: int):
        from tmcavity import cli

        self.cli = cli
        self.workload = workload
        self.configs = configs
        self.out_root = out_root
        self.seed = seed
        self.first_results: dict[str, dict] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.failed = 0

    def run_pass(self, label, span=None) -> tuple[float, float]:
        """One timed pass, inside ``span`` if given; returns (wall, CPU) s."""
        shutil.rmtree(self.out_root, ignore_errors=True)
        errors = {}
        with span or contextlib.nullcontext():
            t0, c0 = time.perf_counter(), time.process_time()
            for sc, config in zip(self.workload.scenarios, self.configs):
                try:
                    # Looked up on the module each time, so the traced
                    # run's wrapper is the one called.
                    self.cli.run(config, self.out_root / sc.stem)
                except Exception:  # a scenario failure is counted, not fatal
                    errors[sc.stem] = traceback.format_exc().strip().splitlines()[-1]
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        for sc in self.workload.scenarios:
            self.attempted += 1
            problems = [errors[sc.stem]] if sc.stem in errors else self.check(sc)
            if problems:
                self.failed += 1
                self.failures += [f"pass {label} {sc.stem}: {p}" for p in problems]
        return wall, cpu

    def check(self, sc) -> list[str]:
        out = self.out_root / sc.stem
        with open(out / "summary.json", encoding="utf-8") as fh:
            summary = json.load(fh)
        problems = []
        for invariant in sc.invariants:
            problems += invariant(summary, out)
        if self.seed == 0 and sc.golden is not None:
            problems += checks.compare_golden(summary, GOLDEN_DIR / f"{sc.golden}.json")
        summary.pop("metadata", None)
        first = self.first_results.setdefault(sc.stem, summary)
        if summary != first:
            problems.append("result differs from the first pass of the same seed")
        return problems

    def output_bytes(self) -> int:
        return sum(p.stat().st_size for p in self.out_root.rglob("*") if p.is_file())


def repeat_for(budget_s: float, step) -> None:
    """Call ``step(i)`` while the next call is expected to end within
    ``budget_s`` (at least once), so a run never overshoots by a whole step."""
    durations = []
    start = time.perf_counter()
    while not durations or time.perf_counter() - start + statistics.median(durations) <= budget_s:
        t0 = time.perf_counter()
        step(len(durations))
        durations.append(time.perf_counter() - t0)


def end_to_end(runner, ini_paths, budget_s):
    setup_round(ini_paths)  # unrecorded: warms the file cache
    setup, walls, cpus = [], [], []

    # Set-up rounds alternate with passes, so both sample the same machine
    # conditions over the whole run.
    def step(i):
        setup.append(setup_round(ini_paths))
        wall, cpu = runner.run_pass(str(i))
        walls.append(wall)
        cpus.append(cpu)

    repeat_for(budget_s, step)
    while len(setup) < MIN_SETUP_ROUNDS:
        setup.append(setup_round(ini_paths))
    n_sc = len(runner.workload.scenarios)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "pass_s": (statistics.median(walls), "s", len(walls)),
        "scenarios_per_s": (n_sc * len(walls) / sum(walls), "1/s", len(walls)),
        "cpu_s": (statistics.median(cpus), "s", len(cpus)),
        "peak_rss_mb": (peak_rss, "MB", 1),
    }
    samples = {"setup_s": setup, "pass_s": walls, "cpu_s": cpus}
    return metrics, samples, {}


def traced(runner, ini_paths, budget_s):
    from tmcavity import config as config_mod

    tracer = layers.Tracer()
    load_ids = [f"load{i}" for i in range(LOAD_ROUNDS)]
    with tracer.installed():
        for load_id in load_ids:
            with tracer.root("bench.load", load_id):
                for path in ini_paths:
                    config_mod.load_config(path)

    # Untraced and traced passes alternate, so their difference (the
    # tracing overhead) is taken under the same machine conditions; which
    # of the two goes first alternates too, as the first of a pair tends
    # to run slower.
    plain, walls, output_bytes = [], [], []

    def traced_pass(i):
        with tracer.installed():
            walls.append(runner.run_pass(f"traced{i}", tracer.root("bench.pass", i))[0])
        output_bytes.append(runner.output_bytes())

    def step(i):
        if i % 2:
            traced_pass(i)
        plain.append(runner.run_pass(f"plain{i}")[0])
        if not i % 2:
            traced_pass(i)

    repeat_for(budget_s, step)
    pass_ids = list(range(len(walls)))
    values, counts = layers.layer_metrics(
        tracer.per_pass(), pass_ids, load_ids, output_bytes)
    for i, row in enumerate(counts[1:], start=1):
        diff = sorted(k for k in set(row) | set(counts[0]) if row.get(k) != counts[0].get(k))
        if diff:
            runner.failures.append(f"traced pass {i}: counts differ from pass 0: {diff}")
    overhead = statistics.median([t - p for t, p in zip(walls, plain)])
    values["trace.overhead_s"] = (overhead, "s")
    metrics = {k: (v, unit, len(walls)) for k, (v, unit) in values.items()}
    metrics["config.load_config.self_s"] = values["config.load_config.self_s"] + (LOAD_ROUNDS,)
    info = {
        "absent": [n for n in layers.NAMED if n not in tracer.traced],
        "traced_names": tracer.traced,
        "unmeasured": sorted(tracer.hook_errors),
        "counts": counts[0],
        "layer_self_sum_s": sum(values[f"{layer}.self_s"][0] for layer in layers.PASS_LAYERS),
        "tracer": tracer,
    }
    return metrics, {"plain_pass_s": plain, "traced_pass_s": walls}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tmcavity" / "__init__.py").is_file():
        print(f"error: package sources not found under {SRC}", file=sys.stderr)
        return 2
    cap = cap_threads()
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]
    work = OUT_DIR / "work" / f"{workload.name}-{os.getpid()}"
    results_dir = OUT_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    try:
        from tmcavity.config import load_config

        ini_paths = workloads.write_configs(workload, args.seed, work / "configs")
        configs = [load_config(p) for p in ini_paths]
        runner = Runner(workload, configs, work / "out", args.seed)
        measure = traced if args.trace else end_to_end
        metrics, samples, info = measure(runner, ini_paths, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed, cap)
    stem = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    tracer = info.pop("tracer", None)
    if tracer is not None:
        tracer.write(results_dir / f"{stem}-spans.csv")

    print(f"workload {workload.name} (seed {args.seed}): {workload.why}")
    print(f"  {len(workload.scenarios)} scenarios per pass, closed loop, 1 client")
    for name, (value, unit, n) in metrics.items():
        print(f"  {name:<42} {value:>14.6g} {unit:<6} n={n}")
    failed_ratio = runner.failed / runner.attempted
    print(f"  {'failed_ratio':<42} {failed_ratio:>14.6g} {'ratio':<6} n={runner.attempted}")
    if tracer is not None:
        print(f"  layer self times sum to {info['layer_self_sum_s']:.4f} s of a "
              f"traced pass_s of {statistics.median(samples['traced_pass_s']):.4f} s")
        if info["absent"]:
            print(f"  absent from the package (metrics read 0): {', '.join(info['absent'])}")
        if info["unmeasured"]:
            print(f"  steps/bytes not measurable (read 0): {', '.join(info['unmeasured'])}")
    for failure in runner.failures:
        print(f"  FAILED {failure}")
    print("env " + json.dumps(env, sort_keys=True))

    correct = not runner.failures
    record = {
        "workload": workload.name,
        "why": workload.why,
        "trace": args.trace,
        "environment": env,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "failed_ratio": failed_ratio,
        "samples": samples,
        "failures": runner.failures,
        **info,
    }
    with open(results_dir / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)

    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
