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
        "AFGrid", "AFMoments", "OFDMConfig", "af_components", "af_samples",
        "af_sequence", "analytic_moments", "average_af", "exact_af",
    ),
    "constellation": (
        "CheckResult", "Constellation", "Diagnostics", "Distribution",
        "from_json", "from_rings", "make_constellation", "moment", "to_json",
        "validate",
    ),
    "detection": (
        "DetectionScenario", "PdCurve", "RangeProfile", "calibrate_so_cfar",
        "detection_probability", "empirical_false_alarm_rate", "pd_curve",
        "simulate_profile", "so_cfar_detect", "so_cfar_statistic",
        "wilson_interval",
    ),
    "rates": (
        "ChannelSpec", "MIEstimate", "gm_log_pdf", "mutual_information",
        "rate_curve",
    ),
    "seeds": ("derive_seed", "trial_seed"),
    "shaping": (
        "ShapingResult", "feasible_c0_range", "ring_system", "solve_heuristic",
    ),
    "shaping_ba": ("MBAConfig", "run_mba"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "0.1.0"

__all__ = [
    "AFGrid", "AFMoments", "ChannelSpec", "CheckResult", "Constellation",
    "DetectionScenario", "Diagnostics", "Distribution", "MBAConfig",
    "MIEstimate", "OFDMConfig", "PdCurve", "RangeProfile", "ShapingResult",
    "af_components", "af_samples", "af_sequence", "analytic_moments",
    "average_af", "calibrate_so_cfar", "derive_seed", "detection_probability",
    "empirical_false_alarm_rate", "exact_af", "feasible_c0_range", "from_json",
    "from_rings", "gm_log_pdf", "make_constellation", "moment",
    "mutual_information", "pd_curve", "rate_curve", "ring_system", "run_mba",
    "simulate_profile", "so_cfar_detect", "so_cfar_statistic",
    "solve_heuristic", "to_json", "trial_seed", "validate", "wilson_interval",
]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value          # later lookups skip this hook
    return value
