"""Command-line surface: reproducible experiment runners over INI configs.

Subcommands
-----------
``shape``       one shaping solve (heuristic or moment-matched BA), JSON out
``air``         mutual-information-vs-SNR curve, CSV out
``af``          average ambiguity surface + zero-Doppler slice, CSV out
``detect``      detection-probability-vs-SNR curve, CSV out
``tradeoff``    c0 sweep: both solvers + detection point per c0, CSV + LUT
``lut-export``  shaped-probability look-up table, JSON out

Every command is a pure function of (config file, flags, seed): reruns emit
byte-identical artifacts.  All randomness flows from the single ``seed`` key;
sub-seeds are derived by hashing (seed, purpose string).  Exit codes: 0 on
success, 2 for configuration errors, 3 for numerical non-convergence.
Clamping of out-of-range moment targets is reported on stderr, never silent.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import warnings

import numpy as np

from .ambiguity import OFDMConfig, analytic_moments, average_af
from .constellation import Constellation, Distribution, make_constellation
from .detection import DetectionScenario, calibrate_so_cfar, pd_curve
from .rates import (MIN_MI_SAMPLES, ChannelSpec, mutual_information,
                    rate_curve, rate_curve_csv)
from .seeds import derive_seed
from .shaping import ShapingResult, feasible_c0_range, solve_heuristic
from .shaping_ba import MIN_UPDATE_SAMPLES, MBAConfig, run_mba

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3


class ConfigError(Exception):
    """Bad or missing configuration; maps to exit code 2."""


# ---------------------------------------------------------------------------
# config plumbing


def _load_config(path: str) -> configparser.ConfigParser:
    if not os.path.isfile(path):
        raise ConfigError(f"config file not found: {path}")
    cp = configparser.ConfigParser()
    try:
        cp.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    return cp


def _get(cp, section, key, conv, default=None):
    if not cp.has_option(section, key):
        if default is not None:
            return default
        raise ConfigError(f"missing config key [{section}] {key}")
    raw = cp.get(section, key)
    try:
        value = conv(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for [{section}] {key}: {raw!r}") from exc
    if conv is float and not math.isfinite(value):
        raise ConfigError(f"[{section}] {key} must be a finite number, "
                          f"got {raw!r}")
    return value


def _ladder(cp, section, prefix) -> np.ndarray:
    lo = _get(cp, section, f"{prefix}_min", float)
    hi = _get(cp, section, f"{prefix}_max", float)
    step = _get(cp, section, f"{prefix}_step", float)
    if step <= 0 or hi < lo:
        raise ConfigError(f"empty {prefix} ladder in [{section}]")
    vals = np.arange(lo, hi + 0.5 * step, step)
    if vals[-1] < hi - 1e-9:
        vals = np.append(vals, hi)
    # kill arange accumulation drift so sweep values match flag values
    return np.round(vals, 10)


def _build_constellation(cp) -> Constellation:
    family = _get(cp, "constellation", "family", str)
    order = _get(cp, "constellation", "order", int)
    try:
        return make_constellation(family, order)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_ofdm(cp) -> OFDMConfig:
    try:
        return OFDMConfig(
            n_subcarriers=_get(cp, "ofdm", "n_subcarriers", int, 64),
            subcarrier_spacing=_get(cp, "ofdm", "subcarrier_spacing", float, 1.0),
            symbol_duration=_get(cp, "ofdm", "symbol_duration", float, 1.0),
            n_symbols=_get(cp, "ofdm", "n_symbols", int, 1))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _master_seed(cp, args) -> int:
    if args.seed is not None:
        return args.seed
    return _get(cp, "run", "seed", int, 0) if cp.has_section("run") else 0


def _out_dir(cp, args) -> str:
    out = args.out
    if out is None and cp.has_section("run"):
        out = _get(cp, "run", "out_dir", str, ".")
    out = out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _n_mc(cp, args, section, default, minimum=1) -> int:
    """``--n-mc`` when given, else ``[section] n_mc``; at least ``minimum``,
    the smallest sample count its consumer accepts."""
    if args.n_mc is not None:
        n_mc, name = args.n_mc, "--n-mc"
    else:
        n_mc = _get(cp, section, "n_mc", int, default)
        name = f"[{section}] n_mc"
    if n_mc < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {n_mc}")
    return n_mc


def _air_n_mc(cp) -> int:
    n_mc = _get(cp, "shaping", "air_n_mc", int, 100_000)
    if n_mc < MIN_MI_SAMPLES:
        raise ConfigError(f"[shaping] air_n_mc must be >= {MIN_MI_SAMPLES} "
                          f"for a usable standard error, got {n_mc}")
    return n_mc


def _clamp_c0(c: Constellation, c0: float) -> float:
    lo, hi = feasible_c0_range(c)
    if c0 < lo - 1e-12 or c0 > hi + 1e-12:
        clamped = float(np.clip(c0, lo, hi))
        print(f"warning: c0={c0:.9g} outside feasible range "
              f"[{lo:.9g}, {hi:.9g}]; clamped to {clamped:.9g}",
              file=sys.stderr)
        return clamped
    return float(c0)


def _shaped_distribution(c, cp, args, sigma2, seed) -> Distribution:
    """Uniform unless --c0 given; then shape by the selected method."""
    if args.c0 is None:
        return Distribution.uniform(c)
    res = _solve_one(c, cp, args, float(args.c0), sigma2, seed,
                     with_air=False)
    return res.distribution


def _mba_config(cp, args, c0, sigma2, air_n_mc) -> MBAConfig:
    return MBAConfig(
        c0=c0, noise_power=sigma2,
        n_mc=_n_mc(cp, args, "shaping", 10_000, MIN_UPDATE_SAMPLES),
        outer_tol=_get(cp, "shaping", "outer_tol", float, 1e-5),
        max_outer=_get(cp, "shaping", "max_outer", int, 300),
        air_n_mc=air_n_mc)


def _solve_one(c, cp, args, c0, sigma2, master_seed, with_air=True) -> ShapingResult:
    """One shaping solve at c0 with a per-c0 sub-seed (composition-stable)."""
    air_n_mc = _air_n_mc(cp)
    c0 = _clamp_c0(c, c0)
    sub_seed = derive_seed(master_seed, f"shape[{c0:.9g}]")
    if args.method == "heuristic":
        res = solve_heuristic(c, c0)
        if with_air:
            air = mutual_information(
                c, res.distribution, ChannelSpec(sigma2),
                n_mc=air_n_mc,
                seed=derive_seed(sub_seed, "mba-air"))
            res.air_bits = float(air.mi_bits)
        return res
    return run_mba(c, _mba_config(cp, args, c0, sigma2, air_n_mc),
                   seed=sub_seed)


# ---------------------------------------------------------------------------
# subcommands


def cmd_shape(cp, args) -> int:
    c = _build_constellation(cp)
    sigma2 = _get(cp, "channel", "sigma2", float)
    c0 = args.c0 if args.c0 is not None else _get(cp, "shaping", "c0", float)
    seed = _master_seed(cp, args)
    res = _solve_one(c, cp, args, float(c0), sigma2, seed)
    out = os.path.join(_out_dir(cp, args), f"shape_{args.method}.json")
    with open(out, "w", newline="") as fh:
        fh.write(res.to_json() + "\n")
    print(f"wrote {out}")
    return EXIT_OK if res.converged else EXIT_NONCONVERGED


def cmd_air(cp, args) -> int:
    c = _build_constellation(cp)
    seed = _master_seed(cp, args)
    snrs = _ladder(cp, "channel", "snr_db")
    sigma2_ref = _get(cp, "channel", "sigma2", float, 0.01)
    n_mc = _n_mc(cp, args, "channel", 100_000, MIN_MI_SAMPLES)
    d = _shaped_distribution(c, cp, args, sigma2_ref, seed)
    estimates = rate_curve(c, d, snrs, n_mc=n_mc,
                           seed=derive_seed(seed, "air-curve"))
    out = os.path.join(_out_dir(cp, args), "air_curve.csv")
    rate_curve_csv(out, snrs, estimates)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_af(cp, args) -> int:
    c = _build_constellation(cp)
    cfg = _build_ofdm(cp)
    seed = _master_seed(cp, args)
    sigma2_ref = _get(cp, "channel", "sigma2", float, 0.01)
    d = _shaped_distribution(c, cp, args, sigma2_ref, seed)
    n_mc = _n_mc(cp, args, "af", 5000)
    t_p = cfg.symbol_duration
    d_f = cfg.subcarrier_spacing
    tau = np.linspace(_get(cp, "af", "tau_min_tp", float, 0.0) * t_p,
                      _get(cp, "af", "tau_max_tp", float, 0.5) * t_p,
                      _get(cp, "af", "n_tau", int, 33))
    nu = np.linspace(_get(cp, "af", "nu_min_df", float, 0.0) * d_f,
                     _get(cp, "af", "nu_max_df", float, 0.0) * d_f,
                     _get(cp, "af", "n_nu", int, 1))
    out_dir = _out_dir(cp, args)

    grid = average_af(c, d, cfg, tau, nu, n_mc=n_mc,
                      seed=derive_seed(seed, "af-grid"))
    grid_path = os.path.join(out_dir, "af_grid.csv")
    grid.to_csv(grid_path)

    zero = average_af(c, d, cfg, tau, np.array([0.0]), n_mc=n_mc,
                      seed=derive_seed(seed, "af-slice"))
    slice_path = os.path.join(out_dir, "af_slice.csv")
    lines = ["tau,value_db,var_self,var_cross"]
    for i, t in enumerate(tau):
        mom = analytic_moments(c, d, cfg, float(t), 0.0)
        lines.append(f"{t / t_p:.9g},{zero.values[i, 0]:.9g},"
                     f"{mom.var_self:.9g},{mom.var_cross:.9g}")
    with open(slice_path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {grid_path}")
    print(f"wrote {slice_path}")
    return EXIT_OK


def _scenario(cp, c, d, cfg, snr_db=None) -> DetectionScenario:
    try:
        return DetectionScenario(
            constellation=c, distribution=d, cfg=cfg,
            snr_db=snr_db if snr_db is not None
            else _get(cp, "detection", "sensing_snr_db", float, 10.0),
            target_cell=_get(cp, "detection", "target_cell", int, 8),
            si_cell=_get(cp, "detection", "si_cell", int, 0),
            si_to_noise_db=_get(cp, "detection", "si_to_noise_db", float, 10.0),
            p_fa=_get(cp, "detection", "p_fa", float, 1e-4),
            n_trials=_get(cp, "detection", "n_trials", int, 5000),
            ref_cells=_get(cp, "detection", "ref_cells", int, 16),
            guard_cells=_get(cp, "detection", "guard_cells", int, 2))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_detect(cp, args) -> int:
    c = _build_constellation(cp)
    cfg = _build_ofdm(cp)
    seed = _master_seed(cp, args)
    sigma2_ref = _get(cp, "channel", "sigma2", float, 0.01)
    d = _shaped_distribution(c, cp, args, sigma2_ref, seed)
    sc = _scenario(cp, c, d, cfg)
    snrs = _ladder(cp, "detection", "snr_db")
    curve = pd_curve(sc, snrs, seed=derive_seed(seed, "detect"))
    out = os.path.join(_out_dir(cp, args), "pd_curve.csv")
    curve.to_csv(out)
    print(f"wrote {out}")
    return EXIT_OK


def _lut_entry(res: ShapingResult, sigma2: float) -> dict:
    return {
        "c0": float(res.c0),
        "sigma2": float(sigma2),
        "ring_mass": [float(m) for m in res.ring_mass],
        "air_bits": None if res.air_bits is None else float(res.air_bits),
        "method": res.method,
    }


def _write_lut(path: str, entries: list[dict]) -> None:
    entries = sorted(entries, key=lambda e: e["c0"])
    with open(path, "w", newline="") as fh:
        fh.write(json.dumps(entries, indent=2) + "\n")


def _c0_sweep(cp, c: Constellation) -> np.ndarray:
    sweep = _ladder(cp, "shaping", "c0")
    lo, hi = feasible_c0_range(c)
    if sweep[-1] < lo - 1e-9 or sweep[0] > hi + 1e-9:
        raise ConfigError(f"c0 sweep [{sweep[0]:.9g}, {sweep[-1]:.9g}] has no "
                          f"overlap with the feasible range [{lo:.9g}, {hi:.9g}]")
    clamped = np.clip(sweep, lo, hi)
    if not np.array_equal(clamped, sweep):
        print(f"warning: c0 sweep clamped to feasible range [{lo:.9g}, {hi:.9g}]",
              file=sys.stderr)
    return np.unique(clamped)


def cmd_tradeoff(cp, args) -> int:
    c = _build_constellation(cp)
    cfg = _build_ofdm(cp)
    sigma2 = _get(cp, "channel", "sigma2", float)
    seed = _master_seed(cp, args)
    sweep = _c0_sweep(cp, c)
    out_dir = _out_dir(cp, args)

    all_converged = True
    rows = []
    lut = []
    for c0 in sweep:
        opt_args = argparse.Namespace(**{**vars(args), "method": "optimal"})
        heur_args = argparse.Namespace(**{**vars(args), "method": "heuristic"})
        opt = _solve_one(c, cp, opt_args, float(c0), sigma2, seed)
        heur = _solve_one(c, cp, heur_args, float(c0), sigma2, seed)
        all_converged = all_converged and opt.converged and heur.converged

        sc = _scenario(cp, c, opt.distribution, cfg)
        pd_seed = derive_seed(seed, f"pd[{float(c0):.9g}]")
        alpha = calibrate_so_cfar(sc, seed=pd_seed)
        curve = pd_curve(sc, [sc.snr_db], seed=pd_seed, alpha=alpha)

        masses = ",".join(f"{m:.9g}" for m in opt.ring_mass)
        rows.append(f"{opt.c0:.9g},{opt.air_bits:.9g},{heur.air_bits:.9g},"
                    f"{curve.pd[0]:.9g},{masses}")
        lut.append(_lut_entry(opt, sigma2))

    mass_cols = ",".join(f"mass_{w}" for w in range(c.n_rings))
    csv_path = os.path.join(out_dir, "tradeoff.csv")
    with open(csv_path, "w", newline="") as fh:
        fh.write(f"c0,air_optimal,air_heuristic,pd,{mass_cols}\n")
        fh.write("\n".join(rows) + "\n")
    lut_path = os.path.join(out_dir, "lut.json")
    _write_lut(lut_path, lut)
    print(f"wrote {csv_path}")
    print(f"wrote {lut_path}")
    return EXIT_OK if all_converged else EXIT_NONCONVERGED


def cmd_lut_export(cp, args) -> int:
    out_dir = _out_dir(cp, args)
    lut_path = os.path.join(out_dir, "lut.json")
    if os.path.isfile(lut_path):
        with open(lut_path) as fh:
            entries = json.load(fh)
        if not entries:
            raise ConfigError("existing look-up table is empty")
        _write_lut(lut_path, entries)
        print(f"wrote {lut_path}")
        return EXIT_OK

    c = _build_constellation(cp)
    sigma2 = _get(cp, "channel", "sigma2", float)
    seed = _master_seed(cp, args)
    sweep = _c0_sweep(cp, c)
    if sweep.size == 0:
        raise ConfigError("empty c0 sweep")
    entries = []
    all_converged = True
    for c0 in sweep:
        res = _solve_one(c, cp, args, float(c0), sigma2, seed)
        all_converged = all_converged and res.converged
        entries.append(_lut_entry(res, sigma2))
    _write_lut(lut_path, entries)
    print(f"wrote {lut_path}")
    return EXIT_OK if all_converged else EXIT_NONCONVERGED


# ---------------------------------------------------------------------------
# entry point


_COMMANDS = {
    "shape": cmd_shape,
    "air": cmd_air,
    "af": cmd_af,
    "detect": cmd_detect,
    "tradeoff": cmd_tradeoff,
    "lut-export": cmd_lut_export,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdmpcs",
        description="Shaped-constellation OFDM sensing/communication experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--method", choices=("optimal", "heuristic"),
                       default="optimal")
        p.add_argument("--c0", type=float, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--n-mc", type=int, default=None, dest="n_mc")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    warnings.filterwarnings("default")
    try:
        if args.c0 is not None and not math.isfinite(args.c0):
            raise ConfigError(f"--c0 must be a finite number, got {args.c0!r}")
        if args.n_mc is not None and args.n_mc < 1:
            raise ConfigError(f"--n-mc must be at least 1, got {args.n_mc}")
        cp = _load_config(args.config)
        return _COMMANDS[args.command](cp, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
