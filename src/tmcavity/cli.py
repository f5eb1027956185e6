"""Command-line front end: ``tmcavity run``, ``list`` and ``seed-figures``.

``run`` loads and validates one config and runs its scenario from
:data:`config.SCENARIOS`, which computes the results and CSV tables. Only
then does :func:`run` write the tables, through the package's one CSV writer
:func:`_write_csv`, and a ``summary.json`` holding the config echo and the
results, so a run that fails writes no file. Outputs are deterministic: two
runs of the same config produce byte-identical files except for the
timestamp, which is confined to the summary's ``metadata`` block. Bad input,
an unreadable config or an ``--out`` that cannot be created or written exits
2, and a numerical failure, or a result that is not finite, exits 1, each
with one ``error:`` line; one ``try`` in :func:`main` gives every exit code.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

from .config import SCENARIOS, ExperimentConfig, dump_config, load_config
from .errors import ConfigError, InstabilityError, TmCavityError
from .signals import TimeGrid

_CSV_BLOCK = 256


# A grid's time column is the same text in every CSV on that grid, so it is
# formatted once and kept, for the last grid only, as one newline-joined string
# per _CSV_BLOCK rows.
@functools.lru_cache(maxsize=1)
def _time_text(grid: TimeGrid) -> tuple[str, ...]:
    times = grid.times
    return tuple(
        "\n".join(map(repr, times[start : start + _CSV_BLOCK].tolist()))
        for start in range(0, grid.n_samples, _CSV_BLOCK)
    )


def _write_csv(path, header, columns, grid: TimeGrid | None = None) -> None:
    """Write equal-length 1-D numeric arrays as CSV columns under ``header``.

    Every cell is the ``repr`` of the Python number, i.e. full round-trip
    precision. Rows are formatted in blocks of ``_CSV_BLOCK`` so only one
    block of text is alive at a time, whatever the column count. With
    ``grid``, the first column is the grid's times, taken from
    :func:`_time_text`, and ``columns`` holds the rest.
    """
    times = None if grid is None else _time_text(grid)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for block, start in enumerate(range(0, len(columns[0]), _CSV_BLOCK)):
            cells = [
                map(repr, col[start : start + _CSV_BLOCK].tolist()) for col in columns
            ]
            if times is not None:
                cells.insert(0, times[block].split("\n"))
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")


def run(config: ExperimentConfig, out_dir) -> dict:
    """Run one scenario, then write its tables and summary, so a scenario
    that fails, or whose results are not all finite (JSON has no NaN or
    Infinity), writes no file into ``out_dir``; return the summary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    results, tables = SCENARIOS[config.scenario][1](config)
    for key, value in results.items():
        try:
            json.dumps(value, allow_nan=False)
        except ValueError:
            raise InstabilityError(f"result {key!r} is not finite") from None
    summary = {
        "scenario": config.scenario,
        "config": config.as_dict(),
        "results": results,
        "metadata": {
            "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        },
    }
    text = json.dumps(summary, indent=2, sort_keys=True, allow_nan=False)
    for name, (header, columns, grid) in tables.items():
        _write_csv(out / name, header, columns, grid)
    (out / "summary.json").write_text(text + "\n", encoding="utf-8", newline="\n")
    return summary


def list_scenarios() -> str:
    """Human-readable registry of scenarios with the default of every key."""
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}
    lines = []
    for name, (keys, runner) in SCENARIOS.items():
        pairs = ", ".join(f"{k}={defaults[k]!r}" for k in keys)
        lines += [name, f"    {runner.__doc__}", f"    defaults: {pairs}"]
    return "\n".join(lines)


def _paper_scenario_configs() -> dict[str, ExperimentConfig]:
    """The standard benchmark runs, keyed by config-file stem."""
    from .cavity import CavityParams

    grid = TimeGrid(0.0, 10.0, 10001)
    cavity = CavityParams(gamma_s=10.1, gamma_c=0.01, alpha=5.5)

    def cfg(scenario, **kw):
        return ExperimentConfig(scenario=scenario, grid=grid, cavity=cavity, **kw)

    return {
        "fig2-gaussian": cfg("fig2-gaussian"),
        "fig2-optimal": cfg("fig2-optimal"),
        "fig3-mode1": cfg("fig3-orthogonal", mode_index=1),
        "fig3-mode2": cfg("fig3-orthogonal", mode_index=2),
        "fig4-hg0": cfg("fig4-design", target_order=0),
        "fig4-hg1": cfg("fig4-design", target_order=1),
        "alpha-scan": cfg("alpha-scan"),
        "green-kernel": cfg("green-kernel"),
        "units": cfg("units"),
    }


def seed_figures(out_dir) -> list[str]:
    """Write config files for every standard benchmark run."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for stem, config in _paper_scenario_configs().items():
        path = out / f"{stem}.ini"
        path.write_text(dump_config(config), encoding="utf-8")
        written.append(str(path))
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tmcavity",
        description="Temporal-mode-selective cavity frequency conversion toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario from a config file")
    p_run.add_argument("--config", required=True, help="path to an INI config")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument(
        "--grid-samples",
        type=int,
        default=None,
        help="override [grid] n_samples from the config",
    )

    sub.add_parser("list", help="list available scenarios")

    p_seed = sub.add_parser(
        "seed-figures", help="write config files for all standard benchmark runs"
    )
    p_seed.add_argument("--out", required=True, help="directory for the configs")

    args = parser.parse_args(argv)

    # what an exit-1 message names, once a config has loaded its scenario
    failed = args.command
    try:
        if args.command == "list":
            lines = [list_scenarios()]
        elif args.command == "seed-figures":
            lines = seed_figures(args.out)
        else:
            config = load_config(args.config)
            failed = f"scenario '{config.scenario}'"
            if args.grid_samples is not None:
                try:
                    grid = dataclasses.replace(config.grid, n_samples=args.grid_samples)
                except ValueError as exc:
                    raise ConfigError(f"--grid-samples: {exc}") from None
                config = dataclasses.replace(config, grid=grid)
            results = run(config, args.out)["results"]
            headline = {
                k: results[k]
                for k in ("w_out", "best_alpha", "dominant_efficiency", "q_factor_s")
                if k in results
            }
            lines = [f"{config.scenario}: " + json.dumps(headline, sort_keys=True)]
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TmCavityError as exc:
        print(f"error: {failed} failed: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # an unreadable config is a ConfigError, so this is about --out
        print(f"error: --out: {exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
