"""Command-line surface: reproducible experiment runners over INI configs.

Subcommands
-----------
``shape``       one shaping solve (heuristic or moment-matched BA), JSON out
``air``         mutual-information-vs-SNR curve, CSV out
``af``          exact average ambiguity surface + zero-Doppler slice, CSV out
``detect``      detection-probability-vs-SNR curve, CSV out
``tradeoff``    c0 sweep: both solvers + detection point per c0, CSV + LUT
``lut-export``  shaped-probability look-up table, JSON out

Every command is a pure function of its config file and flags: reruns
emit byte-identical artifacts, and ``lut-export`` solves afresh each time,
so it never reuses a table already in the output directory.  Only
``detect`` and ``tradeoff`` draw, so only they read a seed (``--seed`` or
``[run] seed``); sub-seeds are derived by hashing (seed, purpose string).
Neither shaper draws, every rate is the quadrature
:func:`.rates.rate_bits`, and ``af``'s surface is the closed form
E|AF|^2 = |E AF|^2 + var_self + var_cross, so no command reads a sample
count (``[channel] n_mc``, ``[shaping] n_mc`` or ``air_n_mc``, ``[af]
n_mc``).  ``af``'s grid holds at most ``MAX_LADDER_POINTS`` cells.  Its
axes are in units of T_p and of the subcarrier spacing, as the key names
say, and so is the library, so ``[ofdm] subcarrier_spacing`` or
``symbol_duration`` exits 2: it would scale ``af_slice.csv``'s variance
columns by T_p**2.  ``[channel] sigma2`` is read only where ``run_mba``
runs or a rate is scored: by ``shape``, ``tradeoff`` and ``lut-export``,
and by ``air``, ``af`` and ``detect`` under ``--c0`` with the optimal
method.  Exit codes: 0 on success, 2 for configuration errors, 3 for
numerical non-convergence, 4 for an internal error (a ``RuntimeError``,
such as a moment match no ring loading meets), each failure one line on
stderr.

This module is the package's one boundary.  It alone turns INI keys into
library objects, and it passes a key only when the config sets it, so a
key left out takes the library's own default.  It alone writes artifacts,
through one writer: every CSV value is ``{:.9g}``.  And it owns three
decisions the library leaves to its caller.  It clamps every moment
target into the feasible range, so an artifact's c0 is its solver's, and
warns on stderr beyond rounding.  It scores both solvers' inputs with one
rate, :func:`.rates.rate_bits`.  And it builds the look-up table.

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
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

    from .ambiguity import OFDMConfig
    from .constellation import Constellation, Distribution
    from .detection import DetectionScenario
    from .shaping import ShapingResult

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3
EXIT_INTERNAL = 4

MAX_LADDER_POINTS = 10**6       # a ladder or AF grid of 8 MB per float array


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


def _given(cp, section, keys) -> dict:
    """``{key: value}`` for each key of ``keys`` (key -> converter) that
    ``[section]`` sets; a key it leaves out takes the library's default."""
    return {key: _get(cp, section, key, conv) for key, conv in keys.items()
            if cp.has_option(section, key)}


def _sigma2(cp) -> float:
    from .rates import NOISE_POWER_RANGE

    sigma2 = _get(cp, "channel", "sigma2", float)
    lo, hi = NOISE_POWER_RANGE
    if not lo <= sigma2 <= hi:
        raise ConfigError(f"[channel] sigma2 must lie in [{lo:g}, {hi:g}], "
                          f"got {sigma2!r}")
    return sigma2


def _ladder(cp, section, prefix) -> np.ndarray:
    import numpy as np

    from .constellation import MAX_ABS_DB

    lo = _get(cp, section, f"{prefix}_min", float)
    hi = _get(cp, section, f"{prefix}_max", float)
    step = _get(cp, section, f"{prefix}_step", float)
    if step <= 0 or hi < lo:
        raise ConfigError(f"empty {prefix} ladder in [{section}]")
    # the steps that fit in [lo, hi], and hi if the last falls short, all
    # counted before anything is allocated
    n = math.floor(min((hi - lo) / step + 1e-9, MAX_LADDER_POINTS)) + 1
    short = lo + (n - 1) * step < hi - 1e-9
    if n + short > MAX_LADDER_POINTS:
        raise ConfigError(f"{prefix} ladder in [{section}] has more than "
                          f"{MAX_LADDER_POINTS} points")
    vals = np.arange(lo, hi + 0.5 * step, step)[:n]
    if short:
        vals = np.append(vals, hi)
    # kill arange accumulation drift so sweep values match flag values
    vals = np.round(vals, 10)
    if prefix == "snr_db" and max(-vals[0], vals[-1]) > MAX_ABS_DB:
        raise ConfigError(f"[{section}] snr_db ladder must lie within "
                          f"+-{MAX_ABS_DB:g} dB, got [{vals[0]:.9g}, "
                          f"{vals[-1]:.9g}]")
    return vals


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

    for key in ("subcarrier_spacing", "symbol_duration"):
        if cp.has_option("ofdm", key):
            raise ConfigError(f"[ofdm] {key} is not a config key: delays are "
                              "in units of the symbol duration and Dopplers "
                              "in units of the subcarrier spacing")
    try:
        return OFDMConfig(
            n_subcarriers=_get(cp, "ofdm", "n_subcarriers", int, 64),
            **_given(cp, "ofdm", {"n_symbols": int}))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _master_seed(cp, args) -> int:
    if args.seed is not None:
        return args.seed
    return _get(cp, "run", "seed", int, 0)


def _out_dir(cp, args) -> str:
    out = args.out
    if out is None:
        out = _get(cp, "run", "out_dir", str, ".")
    out = out or "."
    os.makedirs(out, exist_ok=True)
    return out


def _write(out_dir: str, name: str, text: str) -> None:
    """Write one artifact, LF line endings, and say so on stdout."""
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _csv(header: str, rows) -> str:
    """CSV text: ``header``, then one line per row, every value ``{:.9g}``."""
    lines = [header] + [",".join(f"{v:.9g}" for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _clamp_c0(c: Constellation, c0: float) -> float:
    """``c0`` clamped into the feasible range, always, so the solver meets
    it; stderr names a c0 more than ``C0_SLACK`` (rounding) outside."""
    from .shaping import C0_SLACK, feasible_c0_range

    lo, hi = feasible_c0_range(c)
    clamped = float(min(max(c0, lo), hi))
    if not lo - C0_SLACK <= c0 <= hi + C0_SLACK:
        print(f"warning: c0={c0:.9g} outside feasible range "
              f"[{lo:.9g}, {hi:.9g}]; clamped to {clamped:.9g}",
              file=sys.stderr)
    return clamped


def _shaped_distribution(c, cp, args) -> Distribution:
    """Uniform unless --c0 given; then shape by the selected method."""
    from .constellation import Distribution

    if args.c0 is None:
        return Distribution.uniform(c)
    return _solve_one(c, cp, args.method, float(args.c0))[1].distribution


def _solve_one(c, cp, method, c0) -> tuple[float, ShapingResult]:
    """``(c0, result)``: one solve at c0 clamped.  Only ``run_mba`` reads
    ``[channel] sigma2`` (before the clamp); the heuristic loads no rates."""
    if method == "heuristic":
        from .shaping import solve_heuristic

        c0 = _clamp_c0(c, c0)
        return c0, solve_heuristic(c, c0)
    from .shaping_ba import run_mba

    sigma2 = _sigma2(cp)
    c0 = _clamp_c0(c, c0)
    return c0, run_mba(c, c0, sigma2, **_given(
        cp, "shaping", {"outer_tol": float, "max_outer": int}))


def _scored(c, cp, method, c0s, sigma2) -> list:
    """``(c0, result, rate_bits)`` for each c0 of ``c0s``: one solve at c0
    clamped, scored by :func:`.rates.rate_bits` whatever the method."""
    from .rates import rate_bits

    solved = (_solve_one(c, cp, method, float(c0)) for c0 in c0s)
    return [(c0, r, rate_bits(r.distribution, sigma2)) for c0, r in solved]


def _lut_json(scored, sigma2, method) -> str:
    """The look-up table: one entry per ``(c0, result, rate_bits)``."""
    return json.dumps([{"c0": c0, "sigma2": sigma2,
                        "ring_mass": res.distribution.ring_mass.tolist(),
                        "air_bits": air, "method": method}
                       for c0, res, air in scored], indent=2) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def cmd_shape(cp, args) -> int:
    c = _build_constellation(cp)
    sigma2 = _sigma2(cp)
    c0 = args.c0 if args.c0 is not None else _get(cp, "shaping", "c0", float)
    [(c0, res, air)] = _scored(c, cp, args.method, [c0], sigma2)
    payload = {
        "c0": c0,
        "lambda": None if res.multipliers is None else list(res.multipliers),
        "ring_mass": res.distribution.ring_mass.tolist(),
        "air_bits": air,
        "converged": bool(res.converged),
        "iters": int(res.iterations),
        "trace": [float(v) for v in res.trace]}
    if args.method != "optimal":        # no multipliers; tagged instead
        del payload["lambda"]
        payload["method"] = args.method
    _write(_out_dir(cp, args), f"shape_{args.method}.json",
           json.dumps(payload, separators=(", ", ": ")) + "\n")
    return EXIT_OK if res.converged else EXIT_NONCONVERGED


def cmd_air(cp, args) -> int:
    from .rates import rate_curve

    c = _build_constellation(cp)
    snrs = _ladder(cp, "channel", "snr_db")
    d = _shaped_distribution(c, cp, args)
    rates = rate_curve(d, snrs)
    # a quadrature has no standard error; the column stays for readers
    # that parse it
    _write(_out_dir(cp, args), "air_curve.csv",
           _csv("snr_db,mi_bits,std_err",
                ((s, r, 0.0) for s, r in zip(snrs, rates))))
    return EXIT_OK


def cmd_af(cp, args) -> int:
    import numpy as np

    from .ambiguity import exact_af

    c = _build_constellation(cp)
    cfg = _build_ofdm(cp)
    sizes = {key: _get(cp, "af", key, int, default)
             for key, default in (("n_tau", 33), ("n_nu", 1))}
    for key, n in sizes.items():
        if n < 1:
            raise ConfigError(f"[af] {key} must be at least 1, got {n}")
    # checked before anything is shaped or allocated
    if sizes["n_tau"] * sizes["n_nu"] > MAX_LADDER_POINTS:
        raise ConfigError(f"[af] n_tau * n_nu must be at most "
                          f"{MAX_LADDER_POINTS} cells, got {sizes['n_tau']} "
                          f"* {sizes['n_nu']}")
    d = _shaped_distribution(c, cp, args)
    tau = np.linspace(_get(cp, "af", "tau_min_tp", float, 0.0),
                      _get(cp, "af", "tau_max_tp", float, 0.5),
                      sizes["n_tau"])
    nu = np.linspace(_get(cp, "af", "nu_min_df", float, 0.0),
                     _get(cp, "af", "nu_max_df", float, 0.0),
                     sizes["n_nu"])
    out_dir = _out_dir(cp, args)

    grid, _ = exact_af(d, cfg, tau, nu)
    _write(out_dir, "af_grid.csv",
           _csv("tau,nu,value_db",
                ((t, v, grid[i, j]) for i, t in enumerate(tau)
                 for j, v in enumerate(nu))))

    zero, moments = exact_af(d, cfg, tau, [0.0])
    _write(out_dir, "af_slice.csv",
           _csv("tau,value_db,var_self,var_cross",
                ((t, zero[i, 0], moments[i][0].var_self,
                  moments[i][0].var_cross) for i, t in enumerate(tau))))
    return EXIT_OK


def _scenario(cp, c, cfg) -> DetectionScenario:
    from .constellation import MAX_ABS_DB, Distribution
    from .detection import DetectionScenario

    fields = _given(cp, "detection", {
        "sensing_snr_db": float, "target_cell": int, "si_cell": int,
        "si_to_noise_db": float, "p_fa": float, "n_trials": int,
        "ref_cells": int, "guard_cells": int})
    for key in ("sensing_snr_db", "si_to_noise_db"):
        if abs(fields.get(key, 0.0)) > MAX_ABS_DB:
            raise ConfigError(f"[detection] {key} must lie within "
                              f"+-{MAX_ABS_DB:g} dB, got {fields[key]:.9g}")
    if "sensing_snr_db" in fields:
        fields["snr_db"] = fields.pop("sensing_snr_db")
    try:
        return DetectionScenario(distribution=Distribution.uniform(c),
                                 cfg=cfg, **fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_detect(cp, args) -> int:
    from dataclasses import replace

    from .detection import pd_curve
    from .seeds import derive_seed

    c = _build_constellation(cp)
    cfg = _build_ofdm(cp)
    seed = _master_seed(cp, args)
    sc = _scenario(cp, c, cfg)          # uniform input: checked before solving
    snrs = _ladder(cp, "detection", "snr_db")
    sc = replace(sc, distribution=_shaped_distribution(c, cp, args))
    curve = pd_curve(sc, snrs, seed=derive_seed(seed, "detect"))
    _write(_out_dir(cp, args), "pd_curve.csv",
           _csv("snr_db,pd,ci_lo,ci_hi",
                zip(snrs, curve.pd, curve.ci_lo, curve.ci_hi)))
    return EXIT_OK


def _c0_sweep(cp, c: Constellation) -> np.ndarray:
    import numpy as np

    from .shaping import C0_SLACK, feasible_c0_range

    sweep = _ladder(cp, "shaping", "c0")
    lo, hi = feasible_c0_range(c)
    if sweep[-1] < lo - C0_SLACK or sweep[0] > hi + C0_SLACK:
        raise ConfigError(f"c0 sweep [{sweep[0]:.9g}, {sweep[-1]:.9g}] has no "
                          f"overlap with the feasible range [{lo:.9g}, {hi:.9g}]")
    clamped = np.clip(sweep, lo, hi)
    if not np.array_equal(clamped, sweep):
        print(f"warning: c0 sweep clamped to feasible range [{lo:.9g}, {hi:.9g}]",
              file=sys.stderr)
    return clamped[np.append(True, np.diff(clamped) > 0)]    # it ascends


def cmd_tradeoff(cp, args) -> int:
    from dataclasses import replace

    from .detection import pd_curve
    from .seeds import derive_seed

    c = _build_constellation(cp)
    cfg = _build_ofdm(cp)
    sigma2 = _sigma2(cp)
    seed = _master_seed(cp, args)
    sweep = _c0_sweep(cp, c)
    sc = _scenario(cp, c, cfg)          # uniform input: checked before solving
    out_dir = _out_dir(cp, args)

    opt = _scored(c, cp, "optimal", sweep, sigma2)
    heur = _scored(c, cp, "heuristic", sweep, sigma2)
    rows = []
    for (c0, res, air), (_, _, air_heur) in zip(opt, heur):
        pd = pd_curve(replace(sc, distribution=res.distribution), [sc.snr_db],
                      seed=derive_seed(seed, f"pd[{c0:.9g}]")).pd[0]
        rows.append((c0, air, air_heur, pd, *res.distribution.ring_mass))

    mass_cols = ",".join(f"mass_{w}" for w in range(c.n_rings))
    _write(out_dir, "tradeoff.csv",
           _csv(f"c0,air_optimal,air_heuristic,pd,{mass_cols}", rows))
    _write(out_dir, "lut.json", _lut_json(opt, sigma2, "optimal"))
    converged = all(res.converged for _, res, _ in opt + heur)
    return EXIT_OK if converged else EXIT_NONCONVERGED


def cmd_lut_export(cp, args) -> int:
    out_dir = _out_dir(cp, args)
    c = _build_constellation(cp)
    sigma2 = _sigma2(cp)
    scored = _scored(c, cp, args.method, _c0_sweep(cp, c), sigma2)
    _write(out_dir, "lut.json", _lut_json(scored, sigma2, args.method))
    converged = all(res.converged for _, res, _ in scored)
    return EXIT_OK if converged else EXIT_NONCONVERGED


# ---------------------------------------------------------------------------
# entry point


# each command with the flags it reads beyond --config and --out; argparse
# rejects any other
_COMMANDS = {
    "shape": (cmd_shape, ("--method", "--c0")),
    "air": (cmd_air, ("--method", "--c0")),
    "af": (cmd_af, ("--method", "--c0")),
    "detect": (cmd_detect, ("--method", "--c0", "--seed")),
    "tradeoff": (cmd_tradeoff, ("--seed",)),
    "lut-export": (cmd_lut_export, ("--method",)),
}
_FLAGS = {
    # None until _check_flags has seen whether it was given; then "optimal"
    "--method": dict(choices=("optimal", "heuristic"), default=None),
    "--c0": dict(type=float, default=None),
    "--seed": dict(type=int, default=None),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ofdmpcs",
        description="Shaped-constellation OFDM sensing/communication experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="INI config file")
        p.add_argument("--out", default=None, help="output directory")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _check_flags(args) -> None:
    """Reject a flag that its command accepts but these flags leave unread.

    ``air``, ``af`` and ``detect`` shape an input only under ``--c0``, so
    they read ``--method`` only with it.  Then ``--method`` takes its
    default.
    """
    c0 = getattr(args, "c0", None)            # tradeoff/lut-export: no --c0
    method = getattr(args, "method", None)    # tradeoff: no --method
    if c0 is not None and not math.isfinite(c0):
        raise ConfigError(f"--c0 must be a finite number, got {c0!r}")
    if (args.command in ("air", "af", "detect") and c0 is None
            and method is not None):
        raise ConfigError(f"{args.command} reads --method only with --c0")
    if "method" in args and method is None:
        args.method = "optimal"


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_flags(args)
        cp = _load_config(args.config)
        return _COMMANDS[args.command][0](cp, args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
