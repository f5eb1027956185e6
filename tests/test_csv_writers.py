"""The columnar CSV writers emit exactly the bytes of a row-by-row formatter."""

import numpy as np
import pytest

from tmcavity import (
    CavityParams,
    CavityTrajectory,
    TemporalSignal,
    TimeGrid,
    signal_to_csv,
    trajectory_to_csv,
)

# Signed zero, the smallest subnormal, a huge value and integral floats.
SPECIAL = np.array([-0.0, 5e-324, 1e300, 2.0, -7.0, -1e-300, 0.1])


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


def test_signal_to_csv_bytes(grid, tmp_path):
    sig = signal(grid, np.random.default_rng(1))
    signal_to_csv(sig, tmp_path / "new.csv")
    reference_csv(
        tmp_path / "ref.csv",
        ["t", "re", "im"],
        ([t, v.real, v.imag] for t, v in zip(grid.times, sig.values)),
    )
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_trajectory_to_csv_bytes(grid, tmp_path):
    rng = np.random.default_rng(2)
    s, c, s_in, control = (signal(grid, rng) for _ in range(4))
    params = CavityParams(gamma_s=1.0, gamma_c=1.0, alpha=1.0)
    traj = CavityTrajectory(grid, s, c, s_in, control, params, "full")
    trajectory_to_csv(traj, tmp_path / "new.csv")
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
