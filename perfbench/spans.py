"""Span tracing of the ofdmpcs layers, installed from outside the package.

Wrappers replace each traced public function in every ``ofdmpcs`` module
namespace that holds it, so callers find the wrapper wherever they look the
name up.  A wrapper only records a span (name, start, end, parent) and reads
counts from the call's arguments and return value; it never touches the
arguments, so every random stream is left alone.  Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import inspect
import json
import math
import sys
import time
from collections import defaultdict

LN2 = math.log(2.0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index]
        self.counts = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def span(self, name, fn, observe=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        sig = inspect.signature(fn) if observe is not None else None

        def wrapper(*args, **kwargs):
            rec = [name, time.perf_counter(), 0.0,
                   self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                self._stack.pop()
            if observe is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(self.counts, bound.arguments, result)
            return result
        return wrapper

    def counter(self, name, fn):
        """Wrap a per-trial helper with a call counter only (no span)."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation -------------------------------------------------------

    def replace_everywhere(self, original, wrapper) -> None:
        """Rebind every ``ofdmpcs`` module attribute that is ``original``."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ofdmpcs"
                                   or mod_name.startswith("ofdmpcs.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def replace_classmethod(self, cls, attr, name):
        original = cls.__dict__[attr]
        self._undo.append((cls, attr, original))
        setattr(cls, attr, classmethod(self.span(name, original.__func__)))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- reduction ----------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per-span duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def subtree(self, root: int) -> list[int]:
        """Indices of ``root`` and all spans below it (spans are in start order)."""
        inside = {root}
        for i in range(root + 1, len(self.spans)):
            if self.spans[i][3] in inside:
                inside.add(i)
        return sorted(inside)

    def dump(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


# ---------------------------------------------------------------------------
# what is traced, and the counts read at each boundary


def _obs_average_af(counts, a, result):
    counts["ambiguity.af_cells"] += len(a["tau_axis"]) * len(a["nu_axis"])
    counts["ambiguity.af_draws"] += a["n_mc"]


def _obs_mi(counts, a, result):
    counts["rates.mi_samples"] += a["n_mc"]
    counts["rates.mi_se_bits_max"] = max(counts["rates.mi_se_bits_max"],
                                         float(result.std_error))


def _obs_run_mba(counts, a, result):
    counts["shaping_ba.outer_iters"] += result.iterations
    counts["shaping_ba.converged"] += bool(result.converged)
    trace = result.trace
    gain = (trace[-1] - trace[-2]) / LN2 if len(trace) >= 2 else 0.0
    counts["shaping_ba.last_gain_bits"] = max(
        counts["shaping_ba.last_gain_bits"], gain)


def _obs_calibrate(counts, a, result):
    from ofdmpcs import detection
    sc = a["sc"]
    n_cal = a["n_cal"]
    if n_cal is None:
        n_cal = int(math.ceil(detection.DEFAULT_CAL_FACTOR / sc.p_fa))
    length = sc.cfg.n_subcarriers
    counts["detection.cal_cells"] += math.ceil(n_cal / length) * length


def _obs_pd(counts, a, result):
    counts["detection.trials"] += a["sc"].n_trials


# (span name, defining module, function, observer)
SPANS = (
    ("constellation.make_constellation", "ofdmpcs.constellation",
     "make_constellation", None),
    ("ambiguity.average_af", "ofdmpcs.ambiguity", "average_af",
     _obs_average_af),
    ("ambiguity.analytic_moments", "ofdmpcs.ambiguity", "analytic_moments",
     None),
    ("rates.mutual_information", "ofdmpcs.rates", "mutual_information",
     _obs_mi),
    ("rates.rate_curve", "ofdmpcs.rates", "rate_curve", None),
    ("shaping.solve_heuristic", "ofdmpcs.shaping", "solve_heuristic", None),
    ("shaping.feasible_c0_range", "ofdmpcs.shaping", "feasible_c0_range",
     None),
    ("shaping_ba.run_mba", "ofdmpcs.shaping_ba", "run_mba", _obs_run_mba),
    ("detection.calibrate_so_cfar", "ofdmpcs.detection", "calibrate_so_cfar",
     _obs_calibrate),
    ("detection.detection_probability", "ofdmpcs.detection",
     "detection_probability", _obs_pd),
    ("detection.pd_curve", "ofdmpcs.detection", "pd_curve", None),
)

COUNTERS = (
    ("seeds.derive_seed.calls", "ofdmpcs.seeds", "derive_seed"),
    ("seeds.trial_seed.calls", "ofdmpcs.seeds", "trial_seed"),
)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions of an imported ``ofdmpcs`` package."""
    import importlib
    for name, module, func, observe in SPANS:
        original = getattr(importlib.import_module(module), func)
        tracer.replace_everywhere(original, tracer.span(name, original, observe))
    for name, module, func in COUNTERS:
        original = getattr(importlib.import_module(module), func)
        tracer.replace_everywhere(original, tracer.counter(name, original))
    from ofdmpcs.constellation import Distribution
    tracer.replace_classmethod(Distribution, "from_ring_mass",
                               "constellation.from_ring_mass")


def layer_self_times(tracer: Tracer) -> dict:
    """Self time per layer, summed over all spans, largest first."""
    out = defaultdict(float)
    for (name, *_), s in zip(tracer.spans, tracer.self_times()):
        out[layer_of(name)] += s
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics (name -> (value, unit)) from the recorded spans."""
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    for (name, start, end, _), s in zip(tracer.spans, tracer.self_times()):
        calls[name] += 1
        total[name] += end - start
        own[name] += s
    layer_self = defaultdict(float, layer_self_times(tracer))
    c = tracer.counts
    mba_calls = calls["shaping_ba.run_mba"]
    mba_self = own["shaping_ba.run_mba"]
    af_s = total["ambiguity.average_af"]
    mi_s = total["rates.mutual_information"]
    cal_s = total["detection.calibrate_so_cfar"]
    pd_s = total["detection.detection_probability"]
    cons = ("constellation.make_constellation", "constellation.from_ring_mass")
    return {
        "cli.self_s": (layer_self["cli"], "s"),
        "cli.commands": (calls["cli.main"], "count"),
        "constellation.calls": (sum(calls[n] for n in cons), "count"),
        "constellation.s": (sum(total[n] for n in cons), "s"),
        "seeds.derive_seed.calls": (c["seeds.derive_seed.calls"], "count"),
        "seeds.trial_seed.calls": (c["seeds.trial_seed.calls"], "count"),
        "ambiguity.average_af.calls": (calls["ambiguity.average_af"], "count"),
        "ambiguity.average_af_s": (af_s, "s"),
        "ambiguity.af_cells": (c["ambiguity.af_cells"], "count"),
        "ambiguity.af_draws": (c["ambiguity.af_draws"], "count"),
        "ambiguity.s_per_cell": (_ratio(af_s, c["ambiguity.af_cells"]),
                                 "s/cell"),
        "ambiguity.analytic_moments.calls":
            (calls["ambiguity.analytic_moments"], "count"),
        "ambiguity.analytic_moments_s":
            (total["ambiguity.analytic_moments"], "s"),
        "ambiguity.self_s": (layer_self["ambiguity"], "s"),
        "rates.mi.calls": (calls["rates.mutual_information"], "count"),
        "rates.mi_s": (mi_s, "s"),
        "rates.mi_samples": (c["rates.mi_samples"], "count"),
        "rates.s_per_1e5_samples": (_ratio(mi_s, c["rates.mi_samples"], 1e5),
                                    "s/1e5samples"),
        "rates.mi_se_bits_max": (c["rates.mi_se_bits_max"], "bit"),
        "rates.self_s": (layer_self["rates"], "s"),
        "shaping.solve_heuristic.calls":
            (calls["shaping.solve_heuristic"], "count"),
        "shaping.solve_heuristic_s": (total["shaping.solve_heuristic"], "s"),
        "shaping.feasible_c0_range.calls":
            (calls["shaping.feasible_c0_range"], "count"),
        "shaping.feasible_c0_range_s":
            (total["shaping.feasible_c0_range"], "s"),
        "shaping.self_s": (layer_self["shaping"], "s"),
        "shaping_ba.run_mba.calls": (mba_calls, "count"),
        "shaping_ba.run_mba_self_s": (mba_self, "s"),
        "shaping_ba.outer_iters": (c["shaping_ba.outer_iters"], "count"),
        "shaping_ba.s_per_outer_iter":
            (_ratio(mba_self, c["shaping_ba.outer_iters"]), "s/iter"),
        "shaping_ba.converged_frac":
            (_ratio(c["shaping_ba.converged"], mba_calls), "1"),
        "shaping_ba.last_gain_bits": (c["shaping_ba.last_gain_bits"], "bit"),
        "detection.calibrate.calls":
            (calls["detection.calibrate_so_cfar"], "count"),
        "detection.calibrate_s": (cal_s, "s"),
        "detection.cal_cells": (c["detection.cal_cells"], "count"),
        "detection.s_per_1e6_cells": (_ratio(cal_s, c["detection.cal_cells"],
                                             1e6), "s/1e6cells"),
        "detection.pd.calls": (calls["detection.detection_probability"],
                               "count"),
        "detection.trials": (c["detection.trials"], "count"),
        "detection.pd_s": (pd_s, "s"),
        "detection.s_per_1e3_trials": (_ratio(pd_s, c["detection.trials"],
                                              1e3), "s/1e3trials"),
        "detection.pd_curve_s": (total["detection.pd_curve"], "s"),
        "detection.self_s": (layer_self["detection"], "s"),
    }


def command_shares(tracer: Tracer, root: int) -> dict:
    """Self time per layer inside one ``cli.main`` span, as shares of it."""
    own = tracer.self_times()
    _, start, end, _ = tracer.spans[root]
    per_layer = defaultdict(float)
    for i in tracer.subtree(root):
        per_layer[layer_of(tracer.spans[i][0])] += own[i]
    return {k: v / (end - start) for k, v in
            sorted(per_layer.items(), key=lambda kv: -kv[1])}
