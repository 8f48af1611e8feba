"""Command-line driver: artifacts, determinism, exit codes.

Everything runs through ``main(argv)`` with throwaway configs; one test
exercises the installed console script through a subprocess to cover the
entry point itself.
"""
from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ofdmpcs import cli, detection, rates, shaping, shaping_ba
from ofdmpcs.cli import (EXIT_CONFIG, EXIT_INTERNAL, EXIT_NONCONVERGED,
                         EXIT_OK, main)

README = Path(__file__).parents[1] / "README.md"

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


def exit_code(*argv):
    """``run_cli``'s exit code, argparse's rejections included."""
    try:
        return run_cli(*argv)
    except SystemExit as exc:
        return exc.code


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

    def test_absurd_ladder_rejected(self, tmp_path, capsys):
        # this step asks np.arange for 2e16 points (142 PiB), which fail
        # with a traceback; a step of 1e-8 would really allocate 16 GB
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("snr_db_step = 10",
                                           "snr_db_step = 1e-15"))
        out = tmp_path / "o"
        rc = run_cli("air", "--config", str(bad), "--out", str(out))
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("config error: snr_db ladder in [channel] "), err
        assert not out.exists()

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


    @pytest.mark.parametrize("value", ["0", "-0.05", "1e-310"])
    @pytest.mark.parametrize("command,flags", [
        ("shape", ()), ("tradeoff", ()), ("air", ("--c0", "1.2")),
    ], ids=["shape", "tradeoff", "air-c0"])
    def test_nonpositive_sigma2_rejected_at_parse(self, tmp_path, capsys,
                                                  monkeypatch, command, flags,
                                                  value):
        # it reached the library, whose message named neither the section
        # nor the key: "noise_power must be positive"
        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran")

        for module, name in ((shaping_ba, "run_mba"),
                             (shaping, "solve_heuristic"),
                             (rates, "rate_curve")):
            monkeypatch.setattr(module, name, no_solve)
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("sigma2 = 0.01",
                                           f"sigma2 = {value}"))
        out = tmp_path / "o"
        rc = run_cli(command, "--config", str(bad), *flags, "--out", str(out))
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("config error:") and "[channel] sigma2" in err, err
        assert "noise_power" not in err, err
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command", ["air", "af", "detect"])
    def test_shaped_input_needs_sigma2(self, tmp_path, capsys, command):
        # the shaper's noise power used to default to 0.01 here, and only
        # here: shape, tradeoff and lut-export always required the key
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("sigma2 = 0.01\n", ""))
        out = tmp_path / "o"
        rc = run_cli(command, "--config", str(bad), "--c0", "1.2",
                     "--out", str(out))
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err == "config error: missing config key [channel] sigma2\n"
        assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("command,artifact", [
        ("air", "air_curve.csv"), ("af", "af_grid.csv"),
        ("detect", "pd_curve.csv")])
    def test_unscored_heuristic_reads_no_sigma2(self, config, tmp_path,
                                                command, artifact):
        # the heuristic uses no noise power unless a rate scores it: these
        # exited 2 with "missing config key [channel] sigma2"
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("sigma2 = 0.01\n", ""))
        blobs = []
        for path, name in ((bad, "bad"), (config, "good")):
            out = tmp_path / name
            assert run_cli(command, "--config", str(path), "--c0", "1.2",
                           "--method", "heuristic",
                           "--out", str(out)) == EXIT_OK
            blobs.append((out / artifact).read_bytes())
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("command,artifact", [
        ("air", "air_curve.csv"), ("af", "af_grid.csv"),
        ("detect", "pd_curve.csv")])
    def test_uniform_input_reads_no_sigma2(self, config, tmp_path, command,
                                           artifact):
        # no shaper runs, so no noise power is read: the bytes are those of
        # a config with a valid one
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("sigma2 = 0.01", "sigma2 = -1"))
        blobs = []
        for path, name in ((bad, "bad"), (config, "good")):
            out = tmp_path / name
            assert run_cli(command, "--config", str(path),
                           "--out", str(out)) == EXIT_OK
            blobs.append((out / artifact).read_bytes())
        assert blobs[0] == blobs[1]

    def test_unset_keys_take_the_library_defaults(self, config, tmp_path,
                                                  monkeypatch):
        # the CLI passes a key only when the config sets it
        seen = {}

        def record_mba(c, c0, noise_power, **stop):
            seen["mba"] = (c0, noise_power, stop)
            return shaping.solve_heuristic(c, c0)

        monkeypatch.setattr(shaping_ba, "run_mba", record_mba)
        assert run_cli("shape", "--config", str(config),
                       "--out", str(tmp_path / "o")) == EXIT_OK
        assert seen["mba"] == (1.2, 0.01, {})

    @pytest.mark.parametrize("key,line,value", [
        ("n_tau", "n_tau = 3", "-1"), ("n_nu", "n_nu = 2", "-2"),
        ("n_tau", "n_tau = 3", "0"), ("n_nu", "n_nu = 2", "0")])
    def test_af_grid_size_below_one_rejected(self, tmp_path, capsys, key,
                                             line, value):
        # a negative size exited 2 with numpy's linspace message and a zero
        # one with "grid axes must be nonempty"; neither named the key
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace(line, f"{key} = {value}"))
        out = tmp_path / "o"
        rc = run_cli("af", "--config", str(bad), "--out", str(out))
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("config error:") and f"[af] {key}" in err, err
        assert not out.exists() or not any(out.iterdir())

    def test_shaping_n_mc_is_read_by_nothing(self, config, tmp_path):
        # run_mba and the rate integrate on a fixed node grid: [shaping]
        # n_mc, [shaping] air_n_mc and [channel] n_mc, valid or not, write
        # the bytes of a config without them
        variants = {
            "set": BASE_CONFIG,
            "tiny": BASE_CONFIG.replace("n_mc = 2000", "n_mc = 5"),
            "unset": re.sub(r"^(air_)?n_mc = 2000\n", "", BASE_CONFIG,
                            flags=re.M)}
        artifacts = {"shape": ("shape_optimal.json",),
                     "air": ("air_curve.csv",),
                     "tradeoff": ("tradeoff.csv", "lut.json"),
                     "lut-export": ("lut.json",)}
        blobs = {}
        for name, text in variants.items():
            assert text.count("n_mc = 2000") == (3 if name == "set" else 0)
            path = tmp_path / f"{name}.ini"
            path.write_text(text)
            blobs[name] = []
            for command, files in artifacts.items():
                out = tmp_path / name / command
                assert run_cli(command, "--config", str(path),
                               "--out", str(out)) == EXIT_OK
                blobs[name] += [(out / f).read_bytes() for f in files]
        assert blobs["set"] == blobs["tiny"] == blobs["unset"]

    def test_run_seed_moves_no_byte_of_a_drawless_command(self, tmp_path):
        # shape, air and lut-export draw nothing: every rate is the
        # quadrature, so [run] seed is read by none of them
        runs = {"shape": ((), ("--method", "heuristic")),
                "air": ((), ("--c0", "1.2")),
                "lut-export": ((),)}
        blobs = {}
        for seed in ("11", "12345"):
            path = tmp_path / f"seed{seed}.ini"
            path.write_text(BASE_CONFIG.replace("seed = 11", f"seed = {seed}"))
            blobs[seed] = []
            for command, variants in runs.items():
                for k, flags in enumerate(variants):
                    out = tmp_path / seed / f"{command}{k}"
                    assert run_cli(command, "--config", str(path), *flags,
                                   "--out", str(out)) == EXIT_OK
                    blobs[seed] += [f.read_bytes()
                                    for f in sorted(out.iterdir())]
        assert len(blobs["11"]) == 5
        assert blobs["11"] == blobs["12345"]

    def test_underflowing_noise_power_rejected(self, tmp_path, capsys):
        # 4000 dB is a noise power of 10**-400, which underflows to 0; on
        # the way there, at 10**-308, the quadrature's D**2 / sigma2
        # overflowed with a RuntimeWarning, which the CLI's own warning
        # filter printed instead of failing
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("snr_db_max = 20",
                                           "snr_db_max = 4000"))
        out = tmp_path / "o"
        rc = run_cli("air", "--config", str(bad), "--out", str(out))
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err == ("config error: [channel] snr_db ladder must lie "
                       "within +-3000 dB, got [0, 4000]\n"), err
        assert not out.exists()

    def test_overshooting_ladder_rejected_at_its_maximum(self, tmp_path,
                                                          capsys):
        # 10..4000 by 1000 ended at 4010, so the message named a point past
        # the configured maximum
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("snr_db_min = 0", "snr_db_min = 10")
                       .replace("snr_db_max = 20", "snr_db_max = 4000")
                       .replace("snr_db_step = 10", "snr_db_step = 1000"))
        rc = run_cli("air", "--config", str(bad), "--out", str(tmp_path / "o"))
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: [channel] snr_db ladder must lie within +-3000 "
            "dB, got [10, 4000]\n")

    @pytest.mark.parametrize("command,old,new,artifact,want", [
        ("air", "snr_db_max = 20", "snr_db_max = 26", "air_curve.csv",
         ["0", "10", "20", "26"]),
        ("lut-export", "c0_max = 1.32\nc0_step = 0.16",
         "c0_max = 1.1\nc0_step = 0.06", "lut.json", [1.0, 1.06, 1.1]),
    ], ids=["snr_db", "c0"])
    def test_ladder_ends_at_its_maximum(self, tmp_path, command, old, new,
                                        artifact, want):
        # np.arange(lo, hi + step / 2, step) kept a last step up to half a
        # step past hi: 0..26 by 10 gave 0, 10, 20, 30 and 1.0..1.1 by 0.06
        # gave 1.0, 1.06, 1.12
        path = tmp_path / "exp.ini"
        path.write_text(BASE_CONFIG.replace(old, new))
        out = tmp_path / "o"
        flags = ("--method", "heuristic") if command == "lut-export" else ()
        assert run_cli(command, "--config", str(path), *flags,
                       "--out", str(out)) == EXIT_OK
        text = (out / artifact).read_text()
        if command == "air":
            got = [row.split(",")[0] for row in text.splitlines()[1:]]
        else:
            got = [entry["c0"] for entry in json.loads(text)]
        assert got == want

    def test_zero_rate_written_as_zero(self, tmp_path):
        # 8-PSK at -3000 dB has rate -0.0 from the one-ring path, which the
        # CSV writer wrote as "-0"
        path = tmp_path / "exp.ini"
        path.write_text(BASE_CONFIG.replace("family = qam", "family = psk")
                        .replace("order = 16", "order = 8")
                        .replace("snr_db_min = 0", "snr_db_min = -3000")
                        .replace("snr_db_max = 20", "snr_db_max = -3000"))
        out = tmp_path / "o"
        assert run_cli("air", "--config", str(path), "--out", str(out)) == EXIT_OK
        assert (out / "air_curve.csv").read_text() == (
            "snr_db,mi_bits,std_err\n-3000,0,0\n")

    def test_overflowing_noise_power_rejected(self, tmp_path, capsys,
                                              monkeypatch):
        # -4000 dB is a noise power of 10**400: 10 ** (snr_db / 10) raised
        # OverflowError with a traceback.  Every point is checked before
        # any rate is computed
        monkeypatch.setattr(rates, "rate_curve", None)
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("snr_db_min = 0",
                                           "snr_db_min = -4000"))
        out = tmp_path / "o"
        rc = run_cli("air", "--config", str(bad), "--out", str(out))
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err == ("config error: [channel] snr_db ladder must lie "
                       "within +-3000 dB, got [-4000, 20]\n"), err
        assert not out.exists()

    @pytest.mark.parametrize("command,old,new,err", [
        ("detect", "snr_db_max = 14", "snr_db_max = 4000",
         "[detection] snr_db ladder must lie within +-3000 dB, "
         "got [10, 4000]"),
        ("tradeoff", "sensing_snr_db = 13", "sensing_snr_db = 4000",
         "[detection] sensing_snr_db must lie within +-3000 dB, got 4000"),
        ("tradeoff", "guard_cells = 2", "guard_cells = 2\nsi_to_noise_db = 4000",
         "[detection] si_to_noise_db must lie within +-3000 dB, got 4000"),
    ])
    def test_overflowing_sensing_power_rejected(self, tmp_path, capsys,
                                                monkeypatch, command, old,
                                                new, err):
        # 10 ** (4000 / 10) raised OverflowError with a traceback in the
        # detection draws.  Every dB value is checked before anything is
        # solved or drawn
        for module, name in ((shaping_ba, "run_mba"),
                             (shaping, "solve_heuristic"),
                             (detection, "pd_curve")):
            monkeypatch.setattr(module, name, None)
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace(old, new))
        out = tmp_path / "o"
        rc = run_cli(command, "--config", str(bad), "--out", str(out),
                     *(("--c0", "1.2") if command == "detect" else ()))
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {err}\n"
        assert not out.exists()

    @pytest.mark.parametrize("failure", ["vertex", "vanished"])
    def test_internal_error_exits_4(self, tmp_path, capsys, monkeypatch,
                                    failure):
        # a RuntimeError of the matcher escaped as a traceback, and "all
        # update weights vanished" exited 2 as a config error
        if failure == "vertex":
            def solver(c, c0, noise_power, **stop):
                raise RuntimeError("no nonnegative ring loading meets fourth "
                                   "moment 1.2 under unit power")

            monkeypatch.setattr(shaping_ba, "run_mba", solver)
        else:
            match = shaping_ba.match_ring_masses
            monkeypatch.setattr(
                shaping_ba, "match_ring_masses",
                lambda c, u, c0, warm: match(c, np.full_like(u, -np.inf), c0,
                                             warm))
        path = tmp_path / "exp.ini"
        path.write_text(BASE_CONFIG)
        out = tmp_path / "o"
        for command in ("shape", "tradeoff", "lut-export"):
            rc = run_cli(command, "--config", str(path), "--out", str(out))
            captured = capsys.readouterr()
            assert rc == EXIT_INTERNAL
            assert captured.err.startswith("internal error: "), captured.err
            assert captured.err.count("\n") == 1, captured.err
            assert "Traceback" not in captured.err + captured.out
            assert not out.exists() or not any(out.iterdir())

    @pytest.mark.parametrize("n_tau,n_nu", [(10**12, 1), (1000, 1001)])
    def test_af_grid_bounded_at_parse(self, tmp_path, capsys, monkeypatch,
                                      n_tau, n_nu):
        # 10**12 ended in numpy's 7.28 TiB _ArrayMemoryError, and 10**7
        # would run the closed form once per cell for hours
        def no_solve(*args, **kwargs):
            raise AssertionError("a solver ran")

        monkeypatch.setattr(shaping_ba, "run_mba", no_solve)
        bad = tmp_path / "bad.ini"
        bad.write_text(BASE_CONFIG.replace("n_tau = 3", f"n_tau = {n_tau}")
                       .replace("n_nu = 2", f"n_nu = {n_nu}"))
        out = tmp_path / "o"
        rc = run_cli("af", "--config", str(bad), "--c0", "1.2",
                     "--out", str(out))
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("config error: [af] n_tau * n_nu "), err
        assert f"{cli.MAX_LADDER_POINTS}" in err and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command,flag", [
        ("tradeoff", ("--c0", "1.2")), ("tradeoff", ("--method", "heuristic")),
        ("lut-export", ("--c0", "1.2")),
        *((command, ("--n-mc", "500")) for command in (
            "shape", "air", "af", "detect", "tradeoff", "lut-export")),
        *((command, ("--seed", "3")) for command in (
            "shape", "air", "af", "lut-export")),
    ], ids=["tradeoff-c0", "tradeoff-method", "lut-export-c0", "shape-n-mc",
            "air-n-mc", "af-n-mc", "detect-n-mc", "tradeoff-n-mc",
            "lut-export-n-mc", "shape-seed", "air-seed", "af-seed",
            "lut-export-seed"])
    def test_flag_the_command_never_reads_rejected(self, config, tmp_path,
                                                   capsys, command, flag):
        # each exited 0 as if the flag applied; --n-mc set [channel] n_mc
        # under air and [shaping] n_mc under every other command, and
        # --seed moved no byte of a command that draws nothing
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            run_cli(command, "--config", str(config), *flag, "--out", str(out))
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(flag)}" in (
            capsys.readouterr().err)
        assert not out.exists()


    @pytest.mark.parametrize("command,flags,name", [
        ("air", ("--method", "heuristic"), "--method"),
        ("af", ("--method", "heuristic"), "--method"),
        ("detect", ("--method", "optimal"), "--method"),
    ], ids=["air-method", "af-method", "detect-method"])
    def test_flag_left_unread_rejected(self, config, tmp_path, capsys,
                                       command, flags, name):
        # without --c0 the input is uniform and no shaper runs, and the
        # heuristic draws nothing: each exited 0 with the bytes it writes
        # without the flag
        out = tmp_path / "o"
        rc = run_cli(command, "--config", str(config), *flags,
                     "--out", str(out))
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("config error:") and name in err, err
        assert err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("command,artifact", [
        ("air", "air_curve.csv"), ("af", "af_grid.csv"),
        ("detect", "pd_curve.csv")])
    def test_heuristic_shaped_input_still_runs(self, config, tmp_path,
                                               command, artifact):
        out = tmp_path / "o"
        rc = run_cli(command, "--config", str(config), "--c0", "1.2",
                     "--method", "heuristic", "--out", str(out))
        assert rc == EXIT_OK
        assert (out / artifact).exists()


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

    def _af_bytes(self, tmp_path, name, text, *flags):
        path = tmp_path / f"{name}.ini"
        path.write_text(text)
        out = tmp_path / name
        assert run_cli("af", "--config", str(path), "--out", str(out),
                       *flags) == EXIT_OK
        return [(out / f).read_bytes() for f in ("af_grid.csv",
                                                  "af_slice.csv")]

    def test_exact_surface_draws_nothing(self, tmp_path):
        # the surface is closed-form: neither [run] seed nor [af] n_mc moves
        # a byte, and af takes no --seed
        base = self._af_bytes(tmp_path, "base", BASE_CONFIG)
        assert self._af_bytes(tmp_path, "s1", BASE_CONFIG.replace(
            "seed = 11", "seed = 1")) == base
        assert self._af_bytes(tmp_path, "n7", BASE_CONFIG.replace(
            "n_mc = 50", "n_mc = 7")) == base
        assert self._af_bytes(tmp_path, "none", BASE_CONFIG.replace(
            "n_mc = 50\n", "")) == base
        for flags in (("--seed", "1"), ("--c0", "1.25", "--seed", "3")):
            with pytest.raises(SystemExit) as exc:
                self._af_bytes(tmp_path, "rejected", BASE_CONFIG, *flags)
            assert exc.value.code == EXIT_CONFIG
        # ... and neither does the seed move a shaped input: no shaper draws
        shaped = self._af_bytes(tmp_path, "c0", BASE_CONFIG, "--c0", "1.25")
        assert self._af_bytes(tmp_path, "c0s3", BASE_CONFIG.replace(
            "seed = 11", "seed = 3"), "--c0", "1.25") == shaped

    def test_surface_matches_closed_form(self, config, tmp_path):
        from ofdmpcs import OFDMConfig, analytic_moments
        from ofdmpcs import Distribution, make_constellation
        out = tmp_path / "af"
        assert run_cli("af", "--config", str(config), "--out", str(out)) == EXIT_OK
        c = make_constellation("qam", 16)
        d = Distribution.uniform(c)
        cfg = OFDMConfig(64)
        peak = analytic_moments(c, d, cfg, 0.0, 0.0).mean_power
        grid = (out / "af_grid.csv").read_text().strip().split("\n")[1:]
        for line in grid:
            tau, nu, value = map(float, line.split(","))
            power = analytic_moments(c, d, cfg, tau, nu).mean_power
            assert value == pytest.approx(10 * np.log10(power / peak),
                                          abs=1e-7)

    def test_axes_in_symbol_and_spacing_units(self, tmp_path, capsys):
        # the axes are in units of T_p and of the spacing, so both are 1:
        # honoured, either key would scale af_slice.csv's variance columns
        # by T_p^2, and ignored, it would silently not
        for key in ("subcarrier_spacing = 2.0", "symbol_duration = 0.5"):
            bad = tmp_path / "bad.ini"
            bad.write_text(BASE_CONFIG.replace(
                "n_subcarriers = 64\n", f"n_subcarriers = 64\n{key}\n"))
            out = tmp_path / key.split()[0]
            rc = run_cli("af", "--config", str(bad), "--out", str(out))
            err = capsys.readouterr().err
            assert rc == EXIT_CONFIG
            assert err.startswith(f"config error: [ofdm] {key.split()[0]} ")
            assert not out.exists()


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

    @pytest.mark.parametrize("flags,rc", [(("--method", "heuristic"), EXIT_OK),
                                          (("--seed", "99"), EXIT_CONFIG)],
                             ids=["heuristic", "seed-99"])
    def test_existing_table_is_not_reused(self, config, tmp_path, flags, rc):
        # a table already in the directory used to be re-sorted and written
        # back whatever the inputs: three "optimal" entries for --method
        # heuristic, seed 11's table for --seed 99.  lut-export draws
        # nothing now, so --seed is rejected and leaves the table as it was
        used, fresh = tmp_path / "used", tmp_path / "fresh"
        assert run_cli("tradeoff", "--config", str(config),
                       "--out", str(used)) == EXIT_OK
        before = (used / "lut.json").read_bytes()
        for out in (used, fresh):
            assert exit_code("lut-export", "--config", str(config),
                             "--out", str(out), *flags) == rc
        want = (fresh / "lut.json").read_bytes() if rc == EXIT_OK else before
        assert (used / "lut.json").read_bytes() == want


def count_rate_calls(*argv):
    """``(exit code, calls of rates.mutual_information, calls of
    rates.rate_bits)`` of one run.

    Calls are counted by code object, so a call through any module's
    binding of a function is seen.
    """
    codes = {rates.mutual_information.__code__: 0, rates.rate_bits.__code__: 0}

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            codes[frame.f_code] += 1

    sys.setprofile(profile)
    try:
        rc = run_cli(*argv)
    finally:
        sys.setprofile(None)
    return rc, *codes.values()


class TestRateEstimates:
    @pytest.mark.parametrize("command,method,expected", [
        ("af", "optimal", 0), ("af", "heuristic", 0),
        ("shape", "optimal", 1), ("shape", "heuristic", 1),
        ("detect", "optimal", 0), ("air", "optimal", 3),
        ("lut-export", "optimal", 3), ("tradeoff", "both", 6),
    ])
    def test_one_estimate_and_only_when_scored(self, config, tmp_path,
                                               command, method, expected):
        # af used to have run_mba estimate the rate of its input and then
        # drop it; each scored solve is one quadrature rate (tradeoff scores
        # both methods at three c0, air one rate per ladder point), and no
        # command runs the Monte-Carlo estimator
        flags = {"lut-export": ("--method", method),
                 "tradeoff": ()}.get(command,
                                     ("--c0", "1.2", "--method", method))
        rc, mc_calls, rate_calls = count_rate_calls(
            command, "--config", str(config), *flags,
            "--out", str(tmp_path / "o"))
        assert rc == EXIT_OK
        assert mc_calls == 0
        assert rate_calls == expected


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
# the 16-QAM lower endpoint c0 = 1.0, where the match returns the enumerated
# vertex (counted to prove it did).
_SCIPY_FREE_SCRIPT = """\
import sys
import ofdmpcs.cli
import ofdmpcs.shaping as sh

config, out = sys.argv[1:]
calls = []
vertex = sh._lp_match
sh._lp_match = lambda *a: calls.append(1) or vertex(*a)
for flags in (["--method", "heuristic"], ["--c0", "1.0"]):
    rc = ofdmpcs.cli.main(["shape", "--config", config, "--out", out, *flags])
    assert rc == 0, (flags, rc)
assert calls, "the endpoint vertex was not taken"
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded[:5]
"""


# Runs in a fresh interpreter with numpy's LAPACK solvers patched to raise:
# the moment matcher's Newton step and its endpoint vertex are closed forms
_LAPACK_FREE_SCRIPT = """\
import sys
import numpy as np
import ofdmpcs.cli

def refuse(*args, **kwargs):
    raise AssertionError("a LAPACK solver ran")

for name in ("solve", "lstsq", "inv", "pinv", "det", "eig", "eigh", "svd",
             "qr", "cholesky"):
    setattr(np.linalg, name, refuse)
config, out = sys.argv[1:]
for argv in (["shape", "--method", "heuristic"], ["shape"],
             ["shape", "--c0", "1.0"],
             ["shape", "--method", "heuristic", "--c0", "1.0"],
             ["lut-export"], ["tradeoff"]):
    rc = ofdmpcs.cli.main([*argv, "--config", config, "--out", out])
    assert rc == 0, (argv, rc)
"""


# Runs in a fresh interpreter: numpy 2's np.unique would import numpy.ma
_MASKED_FREE_SCRIPT = """\
import sys
import ofdmpcs.cli

config, out = sys.argv[1:]
for argv in (["tradeoff"], ["shape", "--method", "heuristic"]):
    rc = ofdmpcs.cli.main([*argv, "--config", config, "--out", out])
    assert rc == 0, (argv, rc)
assert "numpy.ma" not in sys.modules, "a command loaded numpy.ma"
"""


class TestRuntimeDependencies:
    def test_cli_runs_without_scipy(self, config, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", _SCIPY_FREE_SCRIPT, str(config),
             str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_shapers_run_without_lapack(self, config, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", _LAPACK_FREE_SCRIPT, str(config),
             str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_commands_do_not_load_numpy_ma(self, config, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-c", _MASKED_FREE_SCRIPT, str(config),
             str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


# Runs in a fresh interpreter: the package and the CLI module load no numpy
# and no layer; one command then loads only the layers it runs.
_LAZY_SCRIPT = """\
import sys
import ofdmpcs.cli
assert "numpy" not in sys.modules, "import ofdmpcs.cli loaded numpy"
assert sorted(m for m in sys.modules if m.startswith("ofdmpcs")) == [
    "ofdmpcs", "ofdmpcs.cli"]
command, config, out, *flags = sys.argv[1:]
assert ofdmpcs.cli.main([command, "--config", config, "--out", out,
                         *flags]) == 0
print(" ".join(sorted(m.split(".")[1] for m in sys.modules
                      if m.startswith("ofdmpcs."))))
"""


# Runs in a fresh interpreter: the commands that draw nothing, with and
# without a shaped input
_NO_RANDOM_SCRIPT = """\
import sys
import numpy
eager = "numpy.random" in sys.modules
import ofdmpcs.cli

config, out = sys.argv[1:]
for argv in (["shape"], ["shape", "--method", "heuristic"], ["air"],
             ["air", "--c0", "1.2"], ["af"], ["af", "--c0", "1.2"],
             ["lut-export"]):
    rc = ofdmpcs.cli.main([*argv, "--config", config, "--out", out])
    assert rc == 0, (argv, rc)
assert eager or "numpy.random" not in sys.modules, "a command loaded numpy.random"
"""


class TestLazyImports:
    @pytest.mark.parametrize("command,layers", [
        ("af", "ambiguity cli constellation seeds"),
        ("air", "cli constellation rates"),
        ("detect", "ambiguity cli constellation detection seeds"),
    ])
    def test_command_loads_only_its_layers(self, config, tmp_path, command,
                                           layers):
        proc = subprocess.run(
            [sys.executable, "-c", _LAZY_SCRIPT, command, str(config),
             str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == layers

    def test_unscored_heuristic_loads_no_rates(self, config, tmp_path):
        # the heuristic solve behind af's shaped input estimates no rate
        proc = subprocess.run(
            [sys.executable, "-c", _LAZY_SCRIPT, "af", str(config),
             str(tmp_path / "o"), "--c0", "1.2", "--method", "heuristic"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == \
            "ambiguity cli constellation seeds shaping"

    def test_drawless_commands_load_no_numpy_random(self, config, tmp_path):
        # shape, air, af and lut-export draw nothing, so they leave
        # numpy.random unloaded, unless a bare numpy import loads it (as
        # numpy 1.x does)
        proc = subprocess.run(
            [sys.executable, "-c", _NO_RANDOM_SCRIPT, str(config),
             str(tmp_path / "o")],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_package_names_load_on_first_use(self):
        script = (
            "import sys, ofdmpcs\n"
            "assert not [m for m in sys.modules if m.startswith('ofdmpcs.')]\n"
            "assert ofdmpcs.run_mba.__module__ == 'ofdmpcs.shaping_ba'\n"
            "assert 'ofdmpcs.detection' not in sys.modules\n"
            "assert 'ofdmpcs.ambiguity' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr


def test_readme_flag_table_is_the_parsers():
    # README's "command | further flags" table, cell by cell, is the
    # parser's: each command with the flags it takes beyond the common ones
    lines = README.read_text().splitlines()
    start = lines.index("| command | further flags |")
    table = {}
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        _, commands, flags, _ = re.split(r"(?<!\\)\|", line)
        names = tuple(f.split()[0] for f in re.findall(r"`([^`]+)`", flags)
                      if f.startswith("--"))
        for command in re.findall(r"`([^`]+)`", commands):
            table[command] = names
    assert table == {name: flags for name, (_, flags) in cli._COMMANDS.items()}
