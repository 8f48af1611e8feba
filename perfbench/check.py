"""Output checker: tolerance checks of CLI artifacts against references.

References are the artifacts the seed commit wrote for the same inputs.  The
checks are statistical rather than byte equality, because a faster
implementation may consume random numbers differently; byte differences are
only counted (``changed_artifacts``).  Pure Python, so the untraced harness
never imports numpy.
"""

from __future__ import annotations

import configparser
import csv
import io
import json
import math
import os

MOMENT_TOL = 1e-4          # |sum mass * A^4 - c0|
MASS_TOL = 1e-6            # masses >= -tol, |sum - 1| <= tol
AF_DB_TOL = 0.5            # per-cell deviation from the reference, dB
N_SE = 4.0                 # standard errors allowed on Monte-Carlo estimates


class CheckError(Exception):
    """An artifact is missing, unparsable or out of tolerance."""


def qam_ring_energies(order: int) -> list[float]:
    """Unit-power squared ring amplitudes of square M-QAM, ascending."""
    side = math.isqrt(order)
    if side * side != order or side < 2:
        raise CheckError(f"unsupported QAM order {order}")
    coords = [2 * i - (side - 1) for i in range(side)]
    energies = sorted({x * x + y * y for x in coords for y in coords})
    mean = 2.0 * (order - 1) / 3.0
    return [e / mean for e in energies]


def csv_rows(text: str) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(text)))
    for r in rows:
        if None in r or any(v is None or v == "" for v in r.values()):
            raise CheckError("truncated or malformed CSV row")
    return rows


def _num(row: dict, key: str) -> float:
    try:
        return float(row[key])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"bad value for {key!r}") from exc


def _same_axis(rows, ref_rows, key):
    if len(rows) != len(ref_rows):
        raise CheckError(f"{len(rows)} rows, reference has {len(ref_rows)}")
    for r, q in zip(rows, ref_rows):
        if abs(_num(r, key) - _num(q, key)) > 1e-9:
            raise CheckError(f"{key} axis differs from the reference")


def _check_masses(masses, c0, energies, what):
    if len(masses) != len(energies):
        raise CheckError(f"{what}: {len(masses)} ring masses, "
                         f"constellation has {len(energies)} rings")
    if any(not math.isfinite(m) or m < -MASS_TOL for m in masses):
        raise CheckError(f"{what}: negative or non-finite ring mass")
    if abs(sum(masses) - 1.0) > MASS_TOL:
        raise CheckError(f"{what}: ring masses sum to {sum(masses)!r}")
    m4 = sum(m * e * e for m, e in zip(masses, energies))
    if abs(m4 - c0) > MOMENT_TOL:
        raise CheckError(f"{what}: fourth moment {m4:.9g} misses c0={c0:.9g}")


def _binomial_var(p: float, n: int) -> float:
    p = min(max(p, 0.5 / n), 1.0 - 0.5 / n)
    return p * (1.0 - p) / n


def _check_pd(pd, pd_ref, n, what):
    if not 0.0 <= pd <= 1.0:
        raise CheckError(f"{what}: P_d {pd!r} outside [0, 1]")
    se = math.sqrt(_binomial_var(pd, n) + _binomial_var(pd_ref, n))
    if abs(pd - pd_ref) > N_SE * se:
        raise CheckError(f"{what}: P_d {pd:.6g} vs reference {pd_ref:.6g} "
                         f"(> {N_SE:g} combined SE {se:.3g})")


# ---------------------------------------------------------------------------
# per-artifact checks; each gets (text, reference text, context)


def _shape_json(text, ref, ctx):
    payload = json.loads(text)
    _check_masses([float(m) for m in payload["ring_mass"]],
                  float(payload["c0"]), ctx["energies"], "shape")
    if abs(float(payload["c0"]) - float(json.loads(ref)["c0"])) > 1e-12:
        raise CheckError("shape: c0 differs from the reference")


def _lut_json(text, ref, ctx):
    entries, ref_entries = json.loads(text), json.loads(ref)
    if [e["c0"] for e in entries] != [e["c0"] for e in ref_entries]:
        raise CheckError("lut: c0 entries differ from the reference")
    for e in entries:
        _check_masses([float(m) for m in e["ring_mass"]], float(e["c0"]),
                      ctx["energies"], f"lut c0={e['c0']}")


def _air_csv(text, ref, ctx):
    rows, ref_rows = csv_rows(text), csv_rows(ref)
    _same_axis(rows, ref_rows, "snr_db")
    cap = math.log2(ctx["order"])
    for r, q in zip(rows, ref_rows):
        mi, se = _num(r, "mi_bits"), _num(r, "std_err")
        mi_ref, se_ref = _num(q, "mi_bits"), _num(q, "std_err")
        if not (math.isfinite(mi) and se >= 0.0):
            raise CheckError("air: non-finite estimate")
        if mi > cap + N_SE * se:
            raise CheckError(f"air: {mi:.6g} bits exceeds log2 M = {cap:g}")
        if abs(mi - mi_ref) > N_SE * math.hypot(se, se_ref):
            raise CheckError(f"air: {mi:.6g} vs reference {mi_ref:.6g} bits "
                             f"at {r['snr_db']} dB")


def _af_csv(text, ref, ctx, axis_keys):
    rows, ref_rows = csv_rows(text), csv_rows(ref)
    for key in axis_keys:
        _same_axis(rows, ref_rows, key)
    values = [_num(r, "value_db") for r in rows]
    if not all(math.isfinite(v) for v in values):
        raise CheckError("af: non-finite cell")
    if abs(max(values)) > 1e-9:
        raise CheckError(f"af: peak at {max(values):.6g} dB, not 0 dB")
    for v, q in zip(values, ref_rows):
        if abs(v - _num(q, "value_db")) > AF_DB_TOL:
            raise CheckError(f"af: cell {v:.6g} dB vs reference "
                             f"{_num(q, 'value_db'):.6g} dB")


def _pd_csv(text, ref, ctx):
    rows, ref_rows = csv_rows(text), csv_rows(ref)
    _same_axis(rows, ref_rows, "snr_db")
    for r, q in zip(rows, ref_rows):
        _check_pd(_num(r, "pd"), _num(q, "pd"), ctx["n_trials"],
                  f"detect {r['snr_db']} dB")


def _tradeoff_csv(text, ref, ctx):
    rows, ref_rows = csv_rows(text), csv_rows(ref)
    _same_axis(rows, ref_rows, "c0")
    se = ctx["air_se_bits"]
    if len(se) != len(rows):
        raise CheckError("tradeoff: reference standard errors missing")
    for r, q, s in zip(rows, ref_rows, se):
        c0 = _num(r, "c0")
        masses = [_num(r, k) for k in r if k.startswith("mass_")]
        _check_masses(masses, c0, ctx["energies"], f"tradeoff c0={c0:g}")
        _check_pd(_num(r, "pd"), _num(q, "pd"), ctx["n_trials"],
                  f"tradeoff c0={c0:g}")
        opt, heur = _num(r, "air_optimal"), _num(r, "air_heuristic")
        if opt < heur - N_SE * s:
            raise CheckError(f"tradeoff c0={c0:g}: optimal {opt:.6g} below "
                             f"heuristic {heur:.6g} bits")


def _checker(name):
    if name.startswith("shape_") and name.endswith(".json"):
        return _shape_json
    return {
        "lut.json": _lut_json,
        "air_curve.csv": _air_csv,
        "af_grid.csv": lambda t, r, c: _af_csv(t, r, c, ("tau", "nu")),
        "af_slice.csv": lambda t, r, c: _af_csv(t, r, c, ("tau",)),
        "pd_curve.csv": _pd_csv,
        "tradeoff.csv": _tradeoff_csv,
    }[name]


def context(config_text: str, reference: dict) -> dict:
    """What the checks need from the config the program ran and the reference."""
    cp = configparser.ConfigParser()
    cp.read_string(config_text)
    if cp.get("constellation", "family") != "qam":
        raise CheckError("the checker supports QAM constellations only")
    order = cp.getint("constellation", "order")
    return {
        "order": order,
        "energies": qam_ring_energies(order),
        "n_trials": cp.getint("detection", "n_trials", fallback=5000),
        "air_se_bits": reference.get("air_se_bits", []),
    }


def read_artifacts(out_dir: str) -> dict:
    files = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), encoding="utf-8",
                  newline="") as fh:
            files[name] = fh.read()
    return files


def check_artifacts(files: dict, reference: dict, ctx: dict) -> list[str]:
    """Problems found in one invocation's artifacts; empty when all pass."""
    expected = reference["files"]
    problems = []
    if sorted(files) != sorted(expected):
        problems.append(f"artifacts {sorted(files)}, expected {sorted(expected)}")
    for name in sorted(set(files) & set(expected)):
        try:
            _checker(name)(files[name], expected[name], ctx)
        except CheckError as exc:
            problems.append(f"{name}: {exc}")
        except (ValueError, KeyError, TypeError) as exc:
            problems.append(f"{name}: unparsable ({type(exc).__name__}: {exc})")
    return problems


def changed_artifacts(files: dict, reference: dict) -> int:
    """Artifacts whose bytes differ from the reference (missing ones count)."""
    expected = reference["files"]
    return sum(files.get(name) != text for name, text in expected.items())


def shaped_air_bits(key: str, files: dict) -> list[float]:
    """Rates that the rate-optimal shaper reported in one invocation."""
    if key == "shape-optimal":
        return [float(json.loads(files["shape_optimal.json"])["air_bits"])]
    if key == "tradeoff":
        rows = csv_rows(files["tradeoff.csv"])
        return [_num(r, "air_optimal") for r in rows]
    if key == "lut-export":
        return [float(e["air_bits"]) for e in json.loads(files["lut.json"])]
    return []


def air_gains(files: dict) -> list[float]:
    """Per-row air_optimal - air_heuristic of a tradeoff invocation."""
    rows = csv_rows(files["tradeoff.csv"])
    return [_num(r, "air_optimal") - _num(r, "air_heuristic") for r in rows]
