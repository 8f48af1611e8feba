"""Probabilistically shaped OFDM waveforms: sensing statistics, achievable
rates, shaping solvers, and CFAR detection experiments.

The public names load on first use (PEP 562): ``import ofdmpcs`` imports no
submodule, and ``ofdmpcs.run_mba`` imports only the modules that
``shaping_ba`` itself needs.  So a command line that runs one layer pays for
that layer only.
"""

import importlib

_EXPORTS = {
    "ambiguity": (
        "AFMoments", "OFDMConfig", "analytic_moments", "exact_af",
    ),
    "constellation": (
        "Constellation", "Distribution", "make_constellation", "moment",
    ),
    "detection": (
        "DetectionScenario", "PdCurve", "calibrate_so_cfar",
        "detection_probability", "pd_curve", "wilson_interval",
    ),
    "rates": ("rate_bits", "rate_curve"),
    "seeds": ("derive_seed", "trial_seed"),
    "shaping": (
        "ShapingResult", "feasible_c0_range", "solve_heuristic",
    ),
    "shaping_ba": ("run_mba",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value          # later lookups skip this hook
    return value
