"""Probabilistically shaped OFDM waveforms: sensing statistics, achievable
rates, shaping solvers, and CFAR detection experiments."""

from .ambiguity import (
    AFGrid,
    AFMoments,
    OFDMConfig,
    SymbolMatrix,
    af_components,
    af_samples,
    af_sequence,
    af_single,
    analytic_moments,
    average_af,
    exact_af,
    sample_symbols,
)
from .constellation import (
    CheckResult,
    Constellation,
    Diagnostics,
    Distribution,
    from_json,
    from_rings,
    make_constellation,
    moment,
    to_json,
    validate,
)
from .detection import (
    DetectionScenario,
    PdCurve,
    RangeProfile,
    calibrate_so_cfar,
    detection_probability,
    empirical_false_alarm_rate,
    pd_curve,
    simulate_profile,
    so_cfar_detect,
    so_cfar_statistic,
    wilson_interval,
)
from .rates import (
    ChannelSpec,
    MIEstimate,
    gm_log_pdf,
    mutual_information,
    rate_curve,
)
from .seeds import derive_seed, trial_seed
from .shaping import (
    ShapingResult,
    feasible_c0_range,
    ring_system,
    solve_heuristic,
)
from .shaping_ba import MBAConfig, run_mba

__version__ = "0.1.0"

__all__ = [
    "AFGrid", "AFMoments", "ChannelSpec", "CheckResult", "Constellation",
    "DetectionScenario", "Diagnostics", "Distribution", "MBAConfig",
    "MIEstimate", "OFDMConfig", "PdCurve", "RangeProfile", "ShapingResult",
    "SymbolMatrix", "af_components", "af_samples", "af_sequence", "af_single",
    "analytic_moments", "average_af", "calibrate_so_cfar", "derive_seed",
    "detection_probability", "empirical_false_alarm_rate", "exact_af",
    "feasible_c0_range", "from_json", "from_rings", "gm_log_pdf",
    "make_constellation", "moment", "mutual_information", "pd_curve",
    "rate_curve", "ring_system", "run_mba", "sample_symbols",
    "simulate_profile", "so_cfar_detect", "so_cfar_statistic",
    "solve_heuristic", "to_json", "trial_seed", "validate", "wilson_interval",
]
