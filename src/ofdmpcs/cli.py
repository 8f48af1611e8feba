"""Command-line surface: reproducible experiment runners over INI configs.

Subcommands
-----------
``shape``       one shaping solve (heuristic or moment-matched BA), JSON out
``air``         mutual-information-vs-SNR curve, CSV out
``af``          exact average ambiguity surface + zero-Doppler slice, CSV out
``detect``      detection-probability-vs-SNR curve, CSV out
``tradeoff``    c0 sweep: both solvers + detection point per c0, CSV + LUT
``lut-export``  shaped-probability look-up table, JSON out

Every command is a pure function of (config file, flags, seed): reruns emit
byte-identical artifacts, and ``lut-export`` solves afresh each time, so it
never reuses a table already in the output directory.  All randomness flows
from the single ``seed`` key; sub-seeds are derived by hashing (seed,
purpose string).  ``af`` draws
nothing: its surface is the closed form E|AF|^2 = |E AF|^2 + var_self +
var_cross, so it reads no ``[af] n_mc``, and the seed reaches it only
through the shaper when ``--c0`` asks for a shaped input.  Its axes are in
units of T_p and of the subcarrier spacing, as the key names say.  Exit
codes: 0 on success, 2 for configuration errors, 3 for numerical
non-convergence.

This module owns three decisions the library leaves to its caller.  It
clamps out-of-range moment targets to the feasible range and says so on
stderr (the solvers reject them).  It scores both solvers' inputs with
one rate estimate, one seed and one sample count.  And it builds the
look-up table.

This module imports only the standard library; each command imports the
layers it runs when it runs, so ``af`` or ``detect`` never loads the
shapers, and a usage error never loads numpy.
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import warnings
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .ambiguity import OFDMConfig
    from .constellation import Constellation, Distribution
    from .detection import DetectionScenario
    from .shaping import ShapingResult
    from .shaping_ba import MBAConfig

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


def _sigma2(cp, default=None) -> float:
    sigma2 = _get(cp, "channel", "sigma2", float, default)
    if sigma2 <= 0:
        raise ConfigError(f"[channel] sigma2 must be positive, got {sigma2!r}")
    return sigma2


def _ladder(cp, section, prefix) -> np.ndarray:
    import numpy as np

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
    from .constellation import make_constellation

    family = _get(cp, "constellation", "family", str)
    order = _get(cp, "constellation", "order", int)
    try:
        return make_constellation(family, order)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_ofdm(cp) -> OFDMConfig:
    from .ambiguity import OFDMConfig

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
    """``[section] n_mc``, or ``--n-mc`` when given and it sets this key:
    ``[channel]`` (the rate curve) for ``air``, ``[shaping]`` (the shaper)
    for every other command.  At least ``minimum``, the smallest sample
    count its consumer accepts."""
    flag_section = "channel" if args.command == "air" else "shaping"
    if args.n_mc is not None and section == flag_section:
        n_mc, name = args.n_mc, "--n-mc"
    else:
        n_mc = _get(cp, section, "n_mc", int, default)
        name = f"[{section}] n_mc"
    if n_mc < minimum:
        raise ConfigError(f"{name} must be at least {minimum}, got {n_mc}")
    return n_mc


def _air_n_mc(cp) -> int:
    from .rates import MIN_MI_SAMPLES

    n_mc = _get(cp, "shaping", "air_n_mc", int, 100_000)
    if n_mc < MIN_MI_SAMPLES:
        raise ConfigError(f"[shaping] air_n_mc must be >= {MIN_MI_SAMPLES} "
                          f"for a usable standard error, got {n_mc}")
    return n_mc


def _clamp_c0(c: Constellation, c0: float) -> float:
    from .shaping import feasible_c0_range

    lo, hi = feasible_c0_range(c)
    if c0 < lo - 1e-12 or c0 > hi + 1e-12:
        clamped = float(min(max(c0, lo), hi))
        print(f"warning: c0={c0:.9g} outside feasible range "
              f"[{lo:.9g}, {hi:.9g}]; clamped to {clamped:.9g}",
              file=sys.stderr)
        return clamped
    return float(c0)


def _shaped_distribution(c, cp, args, sigma2, seed) -> Distribution:
    """Uniform unless --c0 given; then shape by the selected method."""
    from .constellation import Distribution

    if args.c0 is None:
        return Distribution.uniform(c)
    res = _solve_one(c, cp, args, args.method, float(args.c0), sigma2, seed,
                     with_air=False)
    return res.distribution


def _mba_config(cp, args, c0, sigma2) -> MBAConfig:
    from .shaping_ba import MIN_UPDATE_SAMPLES, MBAConfig

    return MBAConfig(
        c0=c0, noise_power=sigma2,
        n_mc=_n_mc(cp, args, "shaping", 10_000, MIN_UPDATE_SAMPLES),
        outer_tol=_get(cp, "shaping", "outer_tol", float, 1e-5),
        max_outer=_get(cp, "shaping", "max_outer", int, 300))


def _solve_one(c, cp, args, method, c0, sigma2, master_seed,
               with_air=True) -> ShapingResult:
    """One shaping solve at c0 with a per-c0 sub-seed (composition-stable).

    c0 is clamped here; ``with_air`` scores the input by its rate, one
    estimate with the same draw and sample count for either method.
    """
    from .seeds import derive_seed

    air_n_mc = _air_n_mc(cp)
    c0 = _clamp_c0(c, c0)
    sub_seed = derive_seed(master_seed, f"shape[{c0:.9g}]")
    if method == "heuristic":
        from .shaping import solve_heuristic

        res = solve_heuristic(c, c0)
    else:
        from .shaping_ba import run_mba

        res = run_mba(c, _mba_config(cp, args, c0, sigma2), seed=sub_seed)
    if with_air:
        from .rates import ChannelSpec, mutual_information

        # the purpose keeps the name it had when run_mba drew it: a new
        # name would move every rate byte
        air = mutual_information(c, res.distribution, ChannelSpec(sigma2),
                                 n_mc=air_n_mc,
                                 seed=derive_seed(sub_seed, "mba-air"))
        res.air_bits = float(air.mi_bits)
    return res


# ---------------------------------------------------------------------------
# subcommands


def cmd_shape(cp, args) -> int:
    c = _build_constellation(cp)
    sigma2 = _sigma2(cp)
    c0 = args.c0 if args.c0 is not None else _get(cp, "shaping", "c0", float)
    seed = _master_seed(cp, args)
    res = _solve_one(c, cp, args, args.method, float(c0), sigma2, seed)
    out = os.path.join(_out_dir(cp, args), f"shape_{args.method}.json")
    with open(out, "w", newline="") as fh:
        fh.write(res.to_json() + "\n")
    print(f"wrote {out}")
    return EXIT_OK if res.converged else EXIT_NONCONVERGED


def cmd_air(cp, args) -> int:
    from .rates import MIN_MI_SAMPLES, rate_curve, rate_curve_csv
    from .seeds import derive_seed

    c = _build_constellation(cp)
    seed = _master_seed(cp, args)
    snrs = _ladder(cp, "channel", "snr_db")
    sigma2_ref = _sigma2(cp, 0.01)
    n_mc = _n_mc(cp, args, "channel", 100_000, MIN_MI_SAMPLES)
    d = _shaped_distribution(c, cp, args, sigma2_ref, seed)
    estimates = rate_curve(c, d, snrs, n_mc=n_mc,
                           seed=derive_seed(seed, "air-curve"))
    out = os.path.join(_out_dir(cp, args), "air_curve.csv")
    rate_curve_csv(out, snrs, estimates)
    print(f"wrote {out}")
    return EXIT_OK


def cmd_af(cp, args) -> int:
    import numpy as np

    from .ambiguity import exact_af

    c = _build_constellation(cp)
    cfg = _build_ofdm(cp)
    sigma2_ref = _sigma2(cp, 0.01)
    sizes = {key: _get(cp, "af", key, int, default)
             for key, default in (("n_tau", 33), ("n_nu", 1))}
    for key, n in sizes.items():
        if n < 1:
            raise ConfigError(f"[af] {key} must be at least 1, got {n}")
    d = _shaped_distribution(c, cp, args, sigma2_ref, _master_seed(cp, args))
    tau = np.linspace(_get(cp, "af", "tau_min_tp", float, 0.0),
                      _get(cp, "af", "tau_max_tp", float, 0.5),
                      sizes["n_tau"])
    nu = np.linspace(_get(cp, "af", "nu_min_df", float, 0.0),
                     _get(cp, "af", "nu_max_df", float, 0.0),
                     sizes["n_nu"])
    out_dir = _out_dir(cp, args)

    grid, _ = exact_af(c, d, cfg, tau, nu)
    grid_path = os.path.join(out_dir, "af_grid.csv")
    grid.to_csv(grid_path)

    zero, moments = exact_af(c, d, cfg, tau, [0.0])
    slice_path = os.path.join(out_dir, "af_slice.csv")
    lines = ["tau,value_db,var_self,var_cross"]
    for i, t in enumerate(tau):
        mom = moments[i][0]
        lines.append(f"{t:.9g},{zero.values[i, 0]:.9g},"
                     f"{mom.var_self:.9g},{mom.var_cross:.9g}")
    with open(slice_path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"wrote {grid_path}")
    print(f"wrote {slice_path}")
    return EXIT_OK


def _scenario(cp, c, d, cfg, snr_db=None) -> DetectionScenario:
    from .detection import DetectionScenario

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
    from .detection import pd_curve
    from .seeds import derive_seed

    c = _build_constellation(cp)
    cfg = _build_ofdm(cp)
    seed = _master_seed(cp, args)
    sigma2_ref = _sigma2(cp, 0.01)
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
    import numpy as np

    from .constellation import sorted_unique
    from .shaping import feasible_c0_range

    sweep = _ladder(cp, "shaping", "c0")
    lo, hi = feasible_c0_range(c)
    if sweep[-1] < lo - 1e-9 or sweep[0] > hi + 1e-9:
        raise ConfigError(f"c0 sweep [{sweep[0]:.9g}, {sweep[-1]:.9g}] has no "
                          f"overlap with the feasible range [{lo:.9g}, {hi:.9g}]")
    clamped = np.clip(sweep, lo, hi)
    if not np.array_equal(clamped, sweep):
        print(f"warning: c0 sweep clamped to feasible range [{lo:.9g}, {hi:.9g}]",
              file=sys.stderr)
    return sorted_unique(clamped)


def cmd_tradeoff(cp, args) -> int:
    from .detection import calibrate_so_cfar, pd_curve
    from .seeds import derive_seed

    c = _build_constellation(cp)
    cfg = _build_ofdm(cp)
    sigma2 = _sigma2(cp)
    seed = _master_seed(cp, args)
    sweep = _c0_sweep(cp, c)
    out_dir = _out_dir(cp, args)

    all_converged = True
    rows = []
    lut = []
    for c0 in sweep:
        opt = _solve_one(c, cp, args, "optimal", float(c0), sigma2, seed)
        heur = _solve_one(c, cp, args, "heuristic", float(c0), sigma2, seed)
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
    c = _build_constellation(cp)
    sigma2 = _sigma2(cp)
    seed = _master_seed(cp, args)
    sweep = _c0_sweep(cp, c)
    entries = []
    all_converged = True
    for c0 in sweep:
        res = _solve_one(c, cp, args, args.method, float(c0), sigma2, seed)
        all_converged = all_converged and res.converged
        entries.append(_lut_entry(res, sigma2))
    _write_lut(lut_path, entries)
    print(f"wrote {lut_path}")
    return EXIT_OK if all_converged else EXIT_NONCONVERGED


# ---------------------------------------------------------------------------
# entry point


# each command with the flags it reads beyond --config, --seed and --out;
# argparse rejects any other
_COMMANDS = {
    "shape": (cmd_shape, ("--method", "--c0", "--n-mc")),
    "air": (cmd_air, ("--method", "--c0", "--n-mc")),
    "af": (cmd_af, ("--method", "--c0", "--n-mc")),
    "detect": (cmd_detect, ("--method", "--c0", "--n-mc")),
    "tradeoff": (cmd_tradeoff, ("--n-mc",)),
    "lut-export": (cmd_lut_export, ("--method", "--n-mc")),
}
_FLAGS = {
    # None until _check_flags has seen whether it was given; then "optimal"
    "--method": dict(choices=("optimal", "heuristic"), default=None),
    "--c0": dict(type=float, default=None),
    "--n-mc": dict(type=int, default=None, dest="n_mc"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdmpcs",
        description="Shaped-constellation OFDM sensing/communication experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None, help="output directory")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _check_flags(args) -> None:
    """Reject a flag that its command accepts but these flags leave unread.

    ``air``, ``af`` and ``detect`` shape an input only under ``--c0``, so
    they read ``--method`` only with it; ``af`` and ``detect`` read
    ``--n-mc`` only as the optimal shaper's sample count.  Then
    ``--method`` takes its default.
    """
    c0 = getattr(args, "c0", None)            # tradeoff/lut-export: no --c0
    method = getattr(args, "method", None)    # tradeoff: no --method
    if c0 is not None and not math.isfinite(c0):
        raise ConfigError(f"--c0 must be a finite number, got {c0!r}")
    if args.n_mc is not None and args.n_mc < 1:
        raise ConfigError(f"--n-mc must be at least 1, got {args.n_mc}")
    if args.command in ("air", "af", "detect"):
        if c0 is None and method is not None:
            raise ConfigError(f"{args.command} reads --method only with --c0")
        if (args.command != "air" and args.n_mc is not None
                and (c0 is None or method == "heuristic")):
            raise ConfigError(f"{args.command} reads --n-mc only with --c0 "
                              "and --method optimal")
    if "method" in args and method is None:
        args.method = "optimal"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    warnings.filterwarnings("default")
    try:
        _check_flags(args)
        cp = _load_config(args.config)
        return _COMMANDS[args.command][0](cp, args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
