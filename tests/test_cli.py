"""Command-line driver: artifacts, determinism, exit codes.

Everything runs through ``main(argv)`` with throwaway configs; one test
exercises the installed console script through a subprocess to cover the
entry point itself.
"""
from __future__ import annotations

import json
import subprocess
import sys

import numpy as np
import pytest

from ofdmpcs import cli
from ofdmpcs.cli import EXIT_CONFIG, EXIT_NONCONVERGED, EXIT_OK, main

BASE_CONFIG = """\
[run]
seed = 11

[constellation]
family = qam
order = 16

[ofdm]
n_subcarriers = 64

[channel]
sigma2 = 0.01
snr_db_min = 0
snr_db_max = 20
snr_db_step = 10
n_mc = 2000

[shaping]
c0 = 1.2
c0_min = 1.0
c0_max = 1.32
c0_step = 0.16
n_mc = 2000
air_n_mc = 2000

[af]
tau_min_tp = 0.0
tau_max_tp = 0.25
n_tau = 3
nu_min_df = 0.0
nu_max_df = 0.5
n_nu = 2
n_mc = 50

[detection]
sensing_snr_db = 13
snr_db_min = 10
snr_db_max = 14
snr_db_step = 2
p_fa = 1e-2
n_trials = 60
ref_cells = 16
guard_cells = 2
"""


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "exp.ini"
    path.write_text(BASE_CONFIG)
    return path


def run_cli(*argv):
    return main(list(argv))


class TestExitCodes:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = run_cli("shape", "--config", str(tmp_path / "nope.ini"))
        assert rc == EXIT_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_key(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[constellation]\nfamily = qam\n")
        rc = run_cli("shape", "--config", str(bad), "--out", str(tmp_path))
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "order" in err

    def test_bad_value(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("order = 16", "order = sixteen"))
        rc = run_cli("shape", "--config", str(bad), "--out", str(tmp_path))
        assert rc == EXIT_CONFIG

    def test_disjoint_sweep(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("c0_min = 1.0", "c0_min = 9.0")
                       .replace("c0_max = 1.32", "c0_max = 9.5"))
        rc = run_cli("tradeoff", "--config", str(bad), "--out", str(tmp_path))
        assert rc == EXIT_CONFIG
        assert "feasible range" in capsys.readouterr().err

    def test_nonconvergence_exit(self, config, tmp_path, capsys):
        starved = tmp_path / "starved.ini"
        starved.write_text(
            BASE_CONFIG.replace("[shaping]", "[shaping]\nmax_outer = 1\nouter_tol = 1e-30"))
        rc = run_cli("shape", "--config", str(starved), "--out", str(tmp_path / "o"))
        assert rc == EXIT_NONCONVERGED

    def test_non_finite_numbers_rejected_at_parse(self, config, tmp_path,
                                                  capsys):
        # each value once reached the library and came back as numpy or
        # linprog text; the message must name the offending key instead
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("snr_db_max = 20", "snr_db_max = inf"))
        cases = [(("air", "--config", str(bad)), "snr_db_max"),
                 (("shape", "--config", str(config), "--method", "heuristic",
                   "--c0", "nan"), "--c0")]
        for argv, key in cases:
            rc = run_cli(*argv, "--out", str(tmp_path / "o"))
            err = capsys.readouterr().err
            assert rc == EXIT_CONFIG, argv
            assert err.startswith("config error:") and key in err, err
            assert "finite" in err, err
            assert "linprog" not in err and "Maximum allowed" not in err, err

    @pytest.mark.parametrize("key,value", [("max_outer", "0"),
                                           ("outer_tol", "-1e-5")])
    def test_bad_outer_loop_settings_rejected(self, tmp_path, capsys, key,
                                              value):
        # unchecked, max_outer = 0 writes the uniform masses and a negative
        # outer_tol runs every iteration; both then exit 3 with no message
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("[shaping]",
                                           f"[shaping]\n{key} = {value}"))
        out = tmp_path / "o"
        rc = run_cli("shape", "--config", str(bad), "--out", str(out))
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("config error:") and key in err, err
        assert not (out / "shape_optimal.json").exists()


    @pytest.mark.parametrize("method", ["optimal", "heuristic"])
    def test_small_air_n_mc_rejected_before_solving(self, tmp_path, capsys,
                                                    monkeypatch, method):
        # it was checked only by the final rate estimate, after the whole
        # solve, and the message named the shaper's n_mc instead
        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran")

        monkeypatch.setattr(cli, "run_mba", no_solve)
        monkeypatch.setattr(cli, "solve_heuristic", no_solve)
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("air_n_mc = 2000", "air_n_mc = 10"))
        out = tmp_path / "o"
        rc = run_cli("shape", "--config", str(bad), "--method", method,
                     "--out", str(out))
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("config error:") and "air_n_mc" in err, err
        assert not list(out.glob("shape_*.json"))

    @pytest.mark.parametrize("value", ["0", "-5"])
    def test_n_mc_flag_below_one_rejected(self, config, tmp_path, capsys,
                                          value):
        # 0 used to fall back to the config's n_mc and exit 0; a negative
        # value exited 2 with a library message that did not name the flag
        out = tmp_path / "o"
        rc = run_cli("air", "--config", str(config), f"--n-mc={value}",
                     "--out", str(out))
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("config error:") and "--n-mc" in err, err
        assert not (out / "air_curve.csv").exists()

    @pytest.mark.parametrize("command,flags,old,new,name", [
        ("shape", ("--n-mc", "50"), "", "", "--n-mc"),
        ("air", ("--n-mc", "50"), "", "", "--n-mc"),
        ("shape", (), "n_mc = 2000\nair_n_mc", "n_mc = 50\nair_n_mc",
         "[shaping] n_mc"),
        ("air", (), "snr_db_step = 10\nn_mc = 2000",
         "snr_db_step = 10\nn_mc = 50", "[channel] n_mc"),
    ], ids=["shape-flag", "air-flag", "shaping-key", "channel-key"])
    def test_n_mc_below_consumer_minimum_rejected(self, tmp_path, capsys,
                                                  monkeypatch, command, flags,
                                                  old, new, name):
        # a count between 1 and the consumer's own minimum (100 for the
        # shaper's update integrals, 1000 for a rate) used to exit 2 with a
        # library message naming neither the flag nor the key
        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran")

        monkeypatch.setattr(cli, "run_mba", no_solve)
        monkeypatch.setattr(cli, "rate_curve", no_solve)
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace(old, new) if old else BASE_CONFIG)
        out = tmp_path / "o"
        rc = run_cli(command, "--config", str(bad), *flags, "--out", str(out))
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("config error:") and name in err, err
        assert not out.exists() or not any(out.iterdir())

class TestShape:
    def test_writes_json_and_is_deterministic(self, config, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert run_cli("shape", "--config", str(config), "--out", str(out1)) == EXIT_OK
        assert run_cli("shape", "--config", str(config), "--out", str(out2)) == EXIT_OK
        blob1 = (out1 / "shape_optimal.json").read_bytes()
        blob2 = (out2 / "shape_optimal.json").read_bytes()
        assert blob1 == blob2
        parsed = json.loads(blob1)
        assert parsed["c0"] == 1.2
        assert parsed["converged"] is True

    def test_heuristic_method_flag(self, config, tmp_path):
        out = tmp_path / "h"
        rc = run_cli("shape", "--config", str(config), "--method", "heuristic",
                     "--out", str(out))
        assert rc == EXIT_OK
        parsed = json.loads((out / "shape_heuristic.json").read_text())
        assert parsed["method"] == "heuristic"
        np.testing.assert_allclose(parsed["ring_mass"], [0.15625, 0.6875, 0.15625],
                                   atol=1e-10)

    def test_c0_override_and_clamp_warning(self, config, tmp_path, capsys):
        out = tmp_path / "c"
        rc = run_cli("shape", "--config", str(config), "--method", "heuristic",
                     "--c0", "9.0", "--out", str(out))
        assert rc == EXIT_OK
        err = capsys.readouterr().err
        assert "clamped" in err
        parsed = json.loads((out / "shape_heuristic.json").read_text())
        np.testing.assert_allclose(parsed["ring_mass"], [0.5, 0.0, 0.5], atol=1e-8)


class TestAir:
    def test_rate_curve_artifact(self, config, tmp_path):
        out = tmp_path / "air"
        assert run_cli("air", "--config", str(config), "--out", str(out)) == EXIT_OK
        lines = (out / "air_curve.csv").read_text().strip().split("\n")
        assert lines[0] == "snr_db,mi_bits,std_err"
        assert len(lines) == 4  # 0, 10, 20 dB
        rates = [float(line.split(",")[1]) for line in lines[1:]]
        assert rates[0] < rates[1] < rates[2]


class TestAf:
    def test_grid_and_slice_artifacts(self, config, tmp_path):
        out = tmp_path / "af"
        assert run_cli("af", "--config", str(config), "--out", str(out)) == EXIT_OK
        grid_lines = (out / "af_grid.csv").read_text().strip().split("\n")
        assert grid_lines[0] == "tau,nu,value_db"
        assert len(grid_lines) == 1 + 3 * 2
        slice_lines = (out / "af_slice.csv").read_text().strip().split("\n")
        assert slice_lines[0] == "tau,value_db,var_self,var_cross"
        assert len(slice_lines) == 1 + 3
        first = slice_lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(0.0, abs=1e-9)  # peak-normalized
        assert float(first[2]) == pytest.approx(64 * 0.32, rel=1e-6)
        assert float(first[3]) == pytest.approx(0.0, abs=1e-9)


class TestDetect:
    def test_pd_curve_artifact_and_determinism(self, config, tmp_path):
        out1, out2 = tmp_path / "d1", tmp_path / "d2"
        assert run_cli("detect", "--config", str(config), "--out", str(out1)) == EXIT_OK
        assert run_cli("detect", "--config", str(config), "--out", str(out2)) == EXIT_OK
        text = (out1 / "pd_curve.csv").read_text()
        assert text == (out2 / "pd_curve.csv").read_text()
        lines = text.strip().split("\n")
        assert lines[0] == "snr_db,pd,ci_lo,ci_hi"
        assert len(lines) == 4  # 10, 12, 14 dB
        pds = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(0.0 <= p <= 1.0 for p in pds)


class TestTradeoff:
    def test_artifacts_and_lut_consistency(self, config, tmp_path):
        out = tmp_path / "t"
        assert run_cli("tradeoff", "--config", str(config), "--out", str(out)) == EXIT_OK
        lines = (out / "tradeoff.csv").read_text().strip().split("\n")
        assert lines[0].startswith("c0,air_optimal,air_heuristic,pd,mass_0")
        assert len(lines) == 1 + 3  # c0 in {1.0, 1.16, 1.32}
        c0s = [float(line.split(",")[0]) for line in lines[1:]]
        assert c0s == [1.0, 1.16, 1.32]

        lut = json.loads((out / "lut.json").read_text())
        assert [e["c0"] for e in lut] == c0s
        for entry in lut:
            assert list(entry) == ["c0", "sigma2", "ring_mass", "air_bits", "method"]
            assert entry["sigma2"] == 0.01
            assert len(entry["ring_mass"]) == 3

    def test_single_point_sweep_matches_shape(self, config, tmp_path):
        single = tmp_path / "single.ini"
        single.write_text(BASE_CONFIG
                          .replace("c0_min = 1.0", "c0_min = 1.2")
                          .replace("c0_max = 1.32", "c0_max = 1.2"))
        out_t, out_s = tmp_path / "t", tmp_path / "s"
        assert run_cli("tradeoff", "--config", str(single), "--out", str(out_t)) == EXIT_OK
        assert run_cli("shape", "--config", str(single), "--out", str(out_s)) == EXIT_OK
        lut = json.loads((out_t / "lut.json").read_text())
        shape = json.loads((out_s / "shape_optimal.json").read_text())
        assert len(lut) == 1
        assert lut[0]["ring_mass"] == shape["ring_mass"]
        assert lut[0]["air_bits"] == shape["air_bits"]

    def test_overlapping_sweep_is_clipped_with_warning(self, config, tmp_path, capsys):
        wide = tmp_path / "wide.ini"
        wide.write_text(BASE_CONFIG
                        .replace("c0_min = 1.0", "c0_min = 0.5")
                        .replace("c0_max = 1.32", "c0_max = 1.2"))
        out = tmp_path / "w"
        assert run_cli("tradeoff", "--config", str(wide), "--out", str(out)) == EXIT_OK
        assert "clamped" in capsys.readouterr().err
        lines = (out / "tradeoff.csv").read_text().strip().split("\n")
        c0s = [float(line.split(",")[0]) for line in lines[1:]]
        assert min(c0s) >= 1.0


class TestLutExport:
    def test_reexport_is_byte_identical(self, config, tmp_path):
        out = tmp_path / "t"
        assert run_cli("tradeoff", "--config", str(config), "--out", str(out)) == EXIT_OK
        before = (out / "lut.json").read_bytes()
        assert run_cli("lut-export", "--config", str(config), "--out", str(out)) == EXIT_OK
        assert (out / "lut.json").read_bytes() == before

    def test_computes_without_existing_table(self, config, tmp_path):
        out = tmp_path / "fresh"
        assert run_cli("lut-export", "--config", str(config), "--out", str(out)) == EXIT_OK
        lut = json.loads((out / "lut.json").read_text())
        assert [e["c0"] for e in lut] == [1.0, 1.16, 1.32]
        assert all(e["method"] == "optimal" for e in lut)


class TestConsoleScript:
    def test_entry_point_runs(self, config, tmp_path):
        out = tmp_path / "cli"
        proc = subprocess.run(
            [sys.executable, "-m", "ofdmpcs.cli", "shape", "--config", str(config),
             "--method", "heuristic", "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert (out / "shape_heuristic.json").exists()

    def test_usage_error_without_subcommand(self):
        proc = subprocess.run([sys.executable, "-m", "ofdmpcs.cli"],
                              capture_output=True, text=True)
        assert proc.returncode != EXIT_OK


# Runs in a fresh interpreter: the heuristic solve, then the optimal one at
# the 16-QAM lower endpoint c0 = 1.0, where Newton stalls and the nested
# bisection fallback runs (counted to prove it did).
_SCIPY_FREE_SCRIPT = """\
import sys
import ofdmpcs.cli
import ofdmpcs.shaping as sh

config, out = sys.argv[1:]
calls = []
nested = sh._nested_multiplier_root
sh._nested_multiplier_root = lambda *a: calls.append(1) or nested(*a)
for flags in (["--method", "heuristic"], ["--c0", "1.0"]):
    rc = ofdmpcs.cli.main(["shape", "--config", config, "--out", out, *flags])
    assert rc == 0, (flags, rc)
assert calls, "the nested fallback did not run"
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
"""


class TestRuntimeDependencies:
    def test_cli_runs_without_scipy(self, config, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_FREE_SCRIPT, str(config),
             str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
