"""Config parsing, CLI subcommands, artifact schemas, and determinism."""

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from tmcavity import ConfigError, TimeGrid, load_config, quadrature_weights
from tmcavity.cli import _paper_scenario_configs, main, run, seed_figures
from tmcavity.config import SCENARIOS, ExperimentConfig, dump_config

GOOD_CONFIG = """\
[grid]
t_start = 0.0
t_end = 10.0
n_samples = 10001

[cavity]
alpha = 5.5
gamma_s = 10.1
gamma_c = 0.01
kappa_s = 0.0
kappa_c = 0.0

[scenario]
name = fig2-optimal
"""


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def load_summary(out_dir):
    with open(out_dir / "summary.json", "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestConfigParsing:
    def test_valid_config_loads(self, tmp_path):
        cfg = load_config(write_config(tmp_path, GOOD_CONFIG))
        assert cfg.scenario == "fig2-optimal"
        assert cfg.grid.n_samples == 10001
        assert cfg.cavity.alpha == 5.5

    def test_unknown_key_is_line_anchored(self, tmp_path):
        bad = GOOD_CONFIG.replace("kappa_c = 0.0", "kappa_z = 0.0")
        path = write_config(tmp_path, bad)
        with pytest.raises(ConfigError, match=r"exp\.ini:11: unknown key 'kappa_z'"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write_config(tmp_path, GOOD_CONFIG + "\n[plotting]\ndpi = 300\n")
        with pytest.raises(ConfigError, match=r"unknown section \[plotting\]"):
            load_config(path)

    def test_unknown_scenario_rejected(self, tmp_path):
        bad = GOOD_CONFIG.replace("name = fig2-optimal", "name = fig9-mystery")
        with pytest.raises(ConfigError, match="unknown scenario"):
            load_config(write_config(tmp_path, bad))

    def test_scenario_key_must_match_scenario(self, tmp_path):
        bad = GOOD_CONFIG + "basis_size = 8\n"
        with pytest.raises(ConfigError, match="not valid for scenario"):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize(
        "old, new, anchor",
        [
            ("n_samples = 10001", "n_samples = one", r"exp\.ini:4: key 'n_samples' "
             r"expects a integer, got 'one'"),
            ("gamma_s = 10.1", "gamma_s = ten", r"exp\.ini:8: key 'gamma_s' "
             r"expects a number, got 'ten'"),
            ("name = fig2-optimal", "name = fig3-orthogonal\nmode_index = first",
             r"exp\.ini:15: key 'mode_index' expects a integer, got 'first'"),
        ],
        ids=["grid", "cavity", "scenario"],
    )
    def test_type_errors_are_anchored(self, tmp_path, old, new, anchor):
        bad = GOOD_CONFIG.replace(old, new)
        with pytest.raises(ConfigError, match=anchor):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize(
        "line, message",
        [
            ("n_samples = 10001\n", r"exp\.ini:0: \[grid\] is missing key 'n_samples'"),
            ("alpha = 5.5\n", r"exp\.ini:0: \[cavity\] is missing key 'alpha'"),
            ("name = fig2-optimal\n", r"exp\.ini:0: \[scenario\] is missing key 'name'"),
        ],
        ids=["grid", "cavity", "scenario"],
    )
    def test_missing_required_key_is_named(self, tmp_path, line, message):
        bad = GOOD_CONFIG.replace(line, "")
        with pytest.raises(ConfigError, match=message):
            load_config(write_config(tmp_path, bad))

    def test_missing_section_rejected(self, tmp_path):
        bad = GOOD_CONFIG.replace("[cavity]", "[grid2]")
        path = write_config(tmp_path, bad)
        with pytest.raises(ConfigError):
            load_config(path)

    def test_invalid_values_rejected(self, tmp_path):
        bad = GOOD_CONFIG.replace("gamma_s = 10.1", "gamma_s = -1.0")
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, bad))

    @pytest.mark.parametrize("stem", list(_paper_scenario_configs()))
    def test_dump_and_reload_round_trip(self, tmp_path, stem):
        cfg = _paper_scenario_configs()[stem]
        again = load_config(write_config(tmp_path, dump_config(cfg), "again.ini"))
        assert again == cfg


class TestCliCommands:
    def test_list_names_every_scenario(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIOS:
            assert name in out
        assert "fig2-optimal" in out
        assert "alpha-scan" in out
        assert "fig4-design" in out

    def test_list_shows_every_default(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert (
            "control_center=3.0, alpha_min=0.5, alpha_max=10.0, alpha_step=0.25, "
            "model='full'" in out
        )
        assert "control_center=3.0, basis_size=8, model='full'" in out

    def test_one_scenario_registry(self):
        fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
        for keys, runner in SCENARIOS.values():
            assert set(keys) <= fields
            assert runner.__doc__

    def test_seed_figures_writes_loadable_configs(self, tmp_path):
        written = seed_figures(tmp_path / "cfgs")
        assert len(written) == 9
        for path in written:
            cfg = load_config(path)
            assert cfg.scenario in SCENARIOS

    @pytest.mark.parametrize(
        "replacements, extra_args",
        [
            ({"10001": "one"}, []),
            ({}, ["--grid-samples", "1"]),
            ({"fig2-optimal": "alpha-scan\nalpha_step = 0.0"}, []),
            ({"fig2-optimal": "alpha-scan\nalpha_step = -0.25"}, []),
            ({"fig2-optimal": "alpha-scan\nalpha_min = 5.0\nalpha_max = 5.2"}, []),
            ({"fig2-optimal": "alpha-scan\nalpha_max = inf"}, []),
            ({"fig2-optimal": "fig4-design\ntheta = nan"}, []),
            ({"fig2-optimal": "fig2-optimal\ncontrol_center = nan"}, []),
            ({"fig2-optimal": "units\nunit_time_s = 0"}, []),
            ({"fig2-optimal": "units\nlambda_s_m = -1"}, []),
            ({"fig2-optimal": "units", "gamma_c = 0.01": "gamma_c = 0.0"}, []),
            ({"fig2-optimal": "fig4-design", "alpha = 5.5": "alpha = 0.0"}, []),
            ({"fig2-optimal": "fig4-design\nq = -1"}, []),
            ({"fig2-optimal": "fig4-design\ntarget_order = 25"}, []),
            ({"fig2-optimal": "fig4-design\ntarget_order = 2\ncontrol_center = 1.0"}, []),
            ({"fig2-optimal": "fig2-gaussian\ncontrol_center = 1.0"}, []),
            ({"fig2-optimal": "alpha-scan\ncontrol_center = 1.0"}, []),
            ({"fig2-optimal": "green-kernel\ncontrol_center = 1.0"}, []),
            ({"fig2-optimal": "fig3-orthogonal\ncontrol_center = 9.0"}, []),
            ({"alpha = 5.5": "alpha = 1e160"}, ["--grid-samples", "101"]),
            ({"fig2-optimal": "fig4-design", "alpha = 5.5": "alpha = 1e160"}, []),
            (
                {"fig2-optimal": "alpha-scan\nalpha_min = 1e159\nalpha_max = 3e159\n"
                 "alpha_step = 1e159"},
                ["--grid-samples", "101"],
            ),
            ({"fig2-optimal": "alpha-scan\nalpha_min = -1e300\nalpha_max = 1e300\n"
              "alpha_step = 1e-300"}, []),
        ],
        ids=["n-samples-not-int", "grid-samples-1", "alpha-step-0",
             "alpha-step-negative", "alpha-grid-2-points", "alpha-max-inf",
             "theta-nan", "control-center-nan", "unit-time-0",
             "lambda-s-negative", "units-gamma-c-0", "fig4-alpha-0",
             "fig4-q-negative", "fig4-order-25", "fig4-target-clipped",
             "fig2-control-clipped", "alpha-scan-control-clipped",
             "green-kernel-control-clipped", "fig3-control-clipped",
             "alpha-1e160", "fig4-alpha-1e160", "alpha-grid-1e159",
             "alpha-grid-count-inf"],
    )
    def test_bad_config_exits_2(self, tmp_path, capsys, replacements, extra_args):
        text = GOOD_CONFIG
        for old, new in replacements.items():
            text = text.replace(old, new)
        path = write_config(tmp_path, text)
        code = main(
            ["run", "--config", str(path), "--out", str(tmp_path / "o"), *extra_args]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "replacements, alpha",
        [
            ({"alpha = 5.5": "alpha = 1e160"}, "1e+160"),
            ({"fig2-optimal": "fig4-design", "alpha = 5.5": "alpha = 1e160"}, "1e+160"),
            ({"fig2-optimal": "alpha-scan\nalpha_min = 1e159\nalpha_max = 3e159\n"
              "alpha_step = 1e159"}, "1e+159"),
            ({"fig2-optimal": "alpha-scan\nalpha_min = -2e154\nalpha_max = 1.0\n"
              "alpha_step = 1e154"}, "-2e+154"),
            ({"fig2-optimal": "alpha-scan\nalpha_min = 1.0\nalpha_max = 2e154\n"
              "alpha_step = 1e154"}, "2e+154"),
        ],
        ids=["alpha-1e160", "fig4-alpha-1e160", "alpha-grid-1e159", "alpha-grid-min",
             "alpha-grid-max"],
    )
    def test_overflowing_alpha_exits_2_naming_it(
        self, tmp_path, capsys, replacements, alpha
    ):
        # the cavity's own check, at its alpha and at both sweep ends
        text = GOOD_CONFIG
        for old, new in replacements.items():
            text = text.replace(old, new)
        path = write_config(tmp_path, text)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.rstrip().endswith(f": f_s or g_s overflows at alpha = {alpha}")

    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(
            ["run", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_divergent_run_exits_1_naming_the_scenario(self, tmp_path, capsys):
        stiff = GOOD_CONFIG.replace("gamma_s = 10.1", "gamma_s = 5000.0").replace(
            "name = fig2-optimal", "name = fig2-gaussian"
        )
        path = write_config(tmp_path, stiff)
        code = main(
            [
                "run",
                "--config",
                str(path),
                "--out",
                str(tmp_path / "o"),
                "--grid-samples",
                "101",
            ]
        )
        assert code == 1
        assert "fig2-gaussian" in capsys.readouterr().err

    @pytest.mark.filterwarnings("error")
    def test_degenerate_basis_exits_1_with_one_line(self, tmp_path, capsys):
        # 101 samples cannot hold 80 orthonormal modes of the matched seed
        wide = GOOD_CONFIG.replace("n_samples = 10001", "n_samples = 101").replace(
            "name = fig2-optimal", "name = green-kernel\nbasis_size = 80"
        )
        path = write_config(tmp_path, wide)
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert re.search(r"polynomial mode \d+ is not orthonormal", err)

    @staticmethod
    def _weak_reduced_kernel(n_samples, alpha):
        return (
            GOOD_CONFIG.replace("n_samples = 10001", f"n_samples = {n_samples}")
            .replace("alpha = 5.5", f"alpha = {alpha}")
            .replace("gamma_s = 10.1", "gamma_s = 0.125")
            .replace("gamma_c = 0.01", "gamma_c = 0.0")
            .replace(
                "name = fig2-optimal",
                "name = green-kernel\ncontrol_center = 3.0\nbasis_size = 8\n"
                "model = reduced",
            )
        )

    @pytest.mark.filterwarnings("error")
    def test_expansive_kernel_exits_1_with_one_line(self, tmp_path, capsys):
        # the reduced RK4 steps are expansive here, so no efficiency the
        # kernel could report would be physical
        path = write_config(tmp_path, self._weak_reduced_kernel(301, 6.0))
        code = main(["run", "--config", str(path), "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("error:") and "at sample" in err

    @pytest.mark.filterwarnings("error")
    def test_coarse_kernel_with_expansive_steps_converges(self, tmp_path, capsys):
        # At 1024 samples 111 RK4 steps expand, by e^198 in all, but the
        # family is below e^-79 on them, so the run stays bounded; its
        # dominant efficiency is that of a four times finer grid to 1.7e-4.
        efficiency = {}
        for n_samples in (1024, 4096):
            path = write_config(tmp_path, self._weak_reduced_kernel(n_samples, 9.0))
            out = tmp_path / str(n_samples)
            assert main(["run", "--config", str(path), "--out", str(out)]) == 0
            efficiency[n_samples] = load_summary(out)["results"]["dominant_efficiency"]
        assert efficiency[1024] == pytest.approx(efficiency[4096], abs=3e-4)

    def test_matched_input_at_large_alpha_has_no_overflow(self, tmp_path, capsys):
        strong = GOOD_CONFIG.replace("alpha = 5.5", "alpha = 80.0")
        path = write_config(tmp_path, strong)
        out = tmp_path / "o"
        assert main(["run", "--config", str(path), "--out", str(out)]) == 0
        w_out = load_summary(out)["results"]["w_out"]
        assert math.isfinite(w_out) and 0.0 < w_out < 1.0

    def test_grid_samples_override(self, tmp_path, capsys):
        path = write_config(tmp_path, GOOD_CONFIG)
        out = tmp_path / "out"
        code = main(
            [
                "run",
                "--config",
                str(path),
                "--out",
                str(out),
                "--grid-samples",
                "2001",
            ]
        )
        assert code == 0
        summary = load_summary(out)
        assert summary["config"]["grid"]["n_samples"] == 2001


class TestScenarioRuns:
    def test_matched_input_scenario(self, tmp_path):
        cfg = load_config(write_config(tmp_path, GOOD_CONFIG))
        summary = run(cfg, tmp_path / "out")
        res = summary["results"]
        assert res["w_out"] == pytest.approx(0.016, abs=0.006)
        assert res["w_out_plateaued"] is True
        assert res["max_abs_C"] >= 0.97
        assert res["conservation_residual"] < 1e-5
        assert (tmp_path / "out" / "trajectory.csv").exists()
        assert (tmp_path / "out" / "input_mode.csv").exists()

    def test_unit_conversion_scenario(self, tmp_path):
        text = GOOD_CONFIG.replace("name = fig2-optimal", "name = units")
        cfg = load_config(write_config(tmp_path, text))
        summary = run(cfg, tmp_path / "out")
        res = summary["results"]
        assert res["q_factor_s"] == pytest.approx(6020, rel=0.01)
        assert res["q_factor_c"] == pytest.approx(1.2e7, rel=0.02)
        assert res["rate_s"] == pytest.approx(1.01e11, rel=0.01)
        assert res["rate_c"] == pytest.approx(1.0e8, rel=0.01)

    def test_orthogonal_mode_scenario(self, tmp_path):
        text = GOOD_CONFIG.replace(
            "name = fig2-optimal", "name = fig3-orthogonal\nmode_index = 1"
        )
        cfg = load_config(write_config(tmp_path, text))
        summary = run(cfg, tmp_path / "out")
        assert summary["results"]["w_out"] == pytest.approx(0.98, abs=0.01)

    def test_kernel_scenario_writes_no_basis(self, tmp_path):
        text = GOOD_CONFIG.replace("name = fig2-optimal", "name = green-kernel")
        cfg = load_config(write_config(tmp_path, text))
        run(cfg, tmp_path / "out")
        written = sorted(p.name for p in (tmp_path / "out").iterdir())
        assert written == ["dominant_mode.csv", "singular_values.csv", "summary.json"]

    def test_determinism_excluding_metadata(self, tmp_path):
        cfg = load_config(write_config(tmp_path, GOOD_CONFIG))
        run(cfg, tmp_path / "a")
        run(cfg, tmp_path / "b")
        sa = load_summary(tmp_path / "a")
        sb = load_summary(tmp_path / "b")
        sa.pop("metadata")
        sb.pop("metadata")
        assert sa == sb
        traj_a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        traj_b = (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert traj_a == traj_b

    @pytest.mark.parametrize(
        "stem, s_in_csv",
        [
            ("fig2-gaussian", None),
            ("fig2-optimal", "input_mode.csv"),
            ("fig3-mode1", "input_mode.csv"),
            ("fig4-hg0", "target_mode.csv"),
        ],
    )
    def test_w_out_rebuilds_from_the_written_state(self, tmp_path, stem, s_in_csv):
        # trajectory.csv holds only the state. S_out = -S_in + sqrt(2 gamma_s) S
        # follows from it and the scenario's input CSV; fig2-gaussian's input
        # is its own real, positive control, written as control_abs
        seed_figures(tmp_path / "cfg")
        cfg, out = tmp_path / "cfg" / f"{stem}.ini", tmp_path / "out"
        args = ["--config", str(cfg), "--out", str(out), "--grid-samples", "2001"]
        assert main(["run", *args]) == 0
        summary = load_summary(out)
        header = (out / "trajectory.csv").read_text().split("\n", 1)[0]
        assert header == "t,S_re,S_im,C_re,C_im,control_abs"
        t, s_re, s_im, _, _, control_abs = np.loadtxt(
            out / "trajectory.csv", delimiter=",", skiprows=1, unpack=True
        )
        if s_in_csv is None:
            s_in = control_abs
        else:
            _, re, im = np.loadtxt(out / s_in_csv, delimiter=",", skiprows=1, unpack=True)
            s_in = re + 1j * im
        gamma_s = summary["config"]["cavity"]["gamma_s"]
        s_out = -s_in + np.sqrt(2.0 * gamma_s) * (s_re + 1j * s_im)
        w = quadrature_weights(TimeGrid(**summary["config"]["grid"]))
        assert len(t) == len(w) == 2001
        w_out = float((w * np.abs(s_out) ** 2).sum())
        assert w_out == pytest.approx(summary["results"]["w_out"], rel=1e-12, abs=0)

    def test_timestamp_is_confined_to_metadata(self, tmp_path):
        cfg = load_config(write_config(tmp_path, GOOD_CONFIG))
        summary = run(cfg, tmp_path / "out")
        assert "created_utc" in summary["metadata"]
        flat = json.dumps({k: v for k, v in summary.items() if k != "metadata"})
        assert "created_utc" not in flat
