"""The one CSV writer emits exactly the bytes of a row-by-row formatter, for
the trajectory and signal layouts the scenarios hand to ``cli.run``."""

import dataclasses

import numpy as np
import pytest

from tmcavity import CavityParams, CavityTrajectory, TemporalSignal, TimeGrid
from tmcavity.cli import (
    _CSV_BLOCK,
    _paper_scenario_configs,
    _time_text,
    _write_csv,
    run,
)
from tmcavity.config import _signal_table, _trajectory_table

# Signed zero, the smallest subnormal, a huge value and integral floats.
SPECIAL = np.array([-0.0, 5e-324, 1e300, 2.0, -7.0, -1e-300, 0.1])


def write_signal(sig, path):
    _write_csv(path, *_signal_table(sig))


def reference_csv(path, header, rows):
    """One ``repr`` per cell, one formatted line per row."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def complex_parts(values):
    return [part for v in values for part in (v.real, v.imag)]


def signal(grid, rng):
    n = grid.n_samples
    re = rng.standard_normal(n)
    im = rng.standard_normal(n)
    k = min(n, len(SPECIAL))
    re[:k] = SPECIAL[:k]
    im[-k:] = SPECIAL[::-1][:k]
    return TemporalSignal(grid, re + 1j * im)


@pytest.fixture(params=[2, 257, 1001], ids=lambda n: f"{n}-samples")
def grid(request):
    # Integral time stamps 0.0, 1.0, ... on one grid, a wide span on another.
    n = request.param
    return TimeGrid(0.0, 1e300 if n == 2 else float(n - 1), n)


def test_signal_table_bytes(grid, tmp_path):
    sig = signal(grid, np.random.default_rng(1))
    write_signal(sig, tmp_path / "new.csv")
    reference_csv(
        tmp_path / "ref.csv",
        ["t", "re", "im"],
        ([t, v.real, v.imag] for t, v in zip(grid.times, sig.values)),
    )
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_trajectory_table_bytes(grid, tmp_path):
    rng = np.random.default_rng(2)
    s, c, s_in, control = (signal(grid, rng) for _ in range(4))
    params = CavityParams(gamma_s=1.0, gamma_c=1.0, alpha=1.0)
    traj = CavityTrajectory(grid, s, c, s_in, control, params, "full")
    _write_csv(tmp_path / "new.csv", *_trajectory_table(traj))
    header = "t,S_re,S_im,C_re,C_im,control_abs"
    reference_csv(
        tmp_path / "ref.csv",
        header.split(","),
        (
            [t, *complex_parts(vals), ctrl_abs]
            for t, *vals, ctrl_abs in zip(
                grid.times, s.values, c.values, np.abs(control.values),
            )
        ),
    )
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def signal_reference_bytes(sig, path):
    reference_csv(
        path,
        ["t", "re", "im"],
        ([t, v.real, v.imag] for t, v in zip(sig.grid.times, sig.values)),
    )
    return path.read_bytes()


def test_interleaved_grids_each_get_their_own_time_column(tmp_path):
    # The memo holds one grid, so alternating grids evict each other; equal
    # grids built apart share one entry, and so do an int bound and the equal
    # float one, which a grid stores as the same float.
    grids = [
        TimeGrid(0.0, 10.0, 1001),
        TimeGrid(0.0, 10.0, 1002),
        TimeGrid(0.5, 10.5, 1001),
        TimeGrid(0.0, 1e300, 2),
        TimeGrid(0.0, 10.0, 1001),
        TimeGrid(1.0, float(2**54 + 4), 4),
        TimeGrid(1, 2**54 + 4, 4),
    ]
    assert grids[0] == grids[4] and grids[0] is not grids[4]
    assert grids[5] == grids[6]
    assert np.array_equal(grids[5].times, grids[6].times)
    rng = np.random.default_rng(3)
    for round_ in range(2):
        for i, g in enumerate(grids):
            sig = signal(g, rng)
            path = tmp_path / f"new-{round_}-{i}.csv"
            write_signal(sig, path)
            ref = signal_reference_bytes(sig, tmp_path / "ref.csv")
            assert path.read_bytes() == ref


def test_memo_holds_one_grid_as_one_string_per_block(tmp_path):
    rng = np.random.default_rng(4)
    for n in (1001, 600):
        write_signal(signal(TimeGrid(0.0, 1.0, n), rng), tmp_path / "new.csv")
    info = _time_text.cache_info()
    assert info.maxsize == 1 and info.currsize == 1
    blocks = _time_text(TimeGrid(0.0, 1.0, 600))
    assert _time_text.cache_info().hits == info.hits + 1
    assert len(blocks) == -(-600 // _CSV_BLOCK)
    assert all(isinstance(b, str) for b in blocks)
    times = TimeGrid(0.0, 1.0, 600).times.tolist()
    assert "\n".join(blocks).split("\n") == list(map(repr, times))


def test_fig4_design_formats_its_time_column_once(tmp_path):
    config = _paper_scenario_configs()["fig4-hg0"]
    config = dataclasses.replace(
        config, grid=dataclasses.replace(config.grid, n_samples=2001)
    )
    _time_text.cache_clear()
    run(config, tmp_path)
    info = _time_text.cache_info()
    assert (info.misses, info.hits) == (1, 2)
    names = ("trajectory.csv", "designed_control.csv", "target_mode.csv")
    first = [
        [line.split(",")[0] for line in (tmp_path / n).read_text().splitlines()[1:]]
        for n in names
    ]
    assert first[0] == first[1] == first[2]
    assert first[0] == list(map(repr, config.grid.times.tolist()))


class TestCsvRoundTrip:
    def test_full_precision_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        grid = TimeGrid(0.25, 4.75, 301)
        vals = rng.normal(size=301) + 1j * rng.normal(size=301)
        sig = TemporalSignal(grid, vals)
        path = tmp_path / "sig.csv"
        write_signal(sig, path)
        back = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 0], grid.times)
        assert np.array_equal(back[:, 1] + 1j * back[:, 2], sig.values)

    def test_header_schema(self, tmp_path):
        grid = TimeGrid(0.0, 1.0, 11)
        path = tmp_path / "sig.csv"
        write_signal(TemporalSignal(grid, np.ones(11)), path)
        assert path.read_text().splitlines()[0] == "t,re,im"


class TestTrajectoryCsv:
    def test_schema_and_shape(self, traj_gaussian_input, tmp_path):
        path = tmp_path / "traj.csv"
        _write_csv(path, *_trajectory_table(traj_gaussian_input))
        lines = path.read_text().splitlines()
        assert lines[0] == "t,S_re,S_im,C_re,C_im,control_abs"
        assert len(lines) == 1 + traj_gaussian_input.grid.n_samples
