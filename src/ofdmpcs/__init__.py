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
        "AFGrid", "AFMoments", "OFDMConfig", "analytic_moments", "exact_af",
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
    "shaping_ba": ("MBAConfig", "run_mba"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "0.1.0"

__all__ = [
    "AFGrid", "AFMoments", "Constellation", "DetectionScenario",
    "Distribution", "MBAConfig", "OFDMConfig", "PdCurve", "ShapingResult",
    "analytic_moments", "calibrate_so_cfar", "derive_seed",
    "detection_probability", "exact_af", "feasible_c0_range",
    "make_constellation", "moment", "pd_curve", "rate_bits", "rate_curve",
    "run_mba", "solve_heuristic", "trial_seed", "wilson_interval",
]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value          # later lookups skip this hook
    return value
