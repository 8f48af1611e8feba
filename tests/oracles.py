"""References the tests compare production code against; no command runs them.

Imported as ``oracles``: pytest puts ``tests/`` (no ``__init__.py``) on
``sys.path``.  The AF of one draw is the kernel's quadratic form x K x^H,
the one ``ambiguity.average_af`` averages, in the same units (T_p = 1).
"""
from __future__ import annotations

import numpy as np

from ofdmpcs.ambiguity import _draw_flat, _kernel
from ofdmpcs.detection import _noise_only_ratios
from ofdmpcs.seeds import derive_seed


def kernel_af_split(x, cfg, tau: float, nu: float) -> tuple[complex, complex]:
    """(self term, cross term) of the AF of the N*L symbols ``x`` (any
    shape) at (tau, nu): the kernel's diagonal (same symbol and subcarrier,
    symbol energies alone) and the rest; both zero for |tau| >= N.  A wrong
    number of symbols raises ``ValueError``."""
    x = np.asarray(x).reshape(cfg.n_symbols * cfg.n_subcarriers)
    if abs(tau) >= cfg.n_symbols:
        return 0.0 + 0.0j, 0.0 + 0.0j
    K = _kernel(cfg, tau, nu)
    total = complex(x @ (K @ np.conj(x)))
    self_term = complex(np.dot(np.abs(x) ** 2, np.diag(K)))
    return self_term, total - self_term


def kernel_af(x, cfg, tau: float, nu: float) -> complex:
    """AF of the N*L symbols ``x`` at (tau, nu): the sum of the split."""
    return sum(kernel_af_split(x, cfg, tau, nu))


def af_realizations(c, d, cfg, tau: float, nu: float, n_mc: int,
                    seed: int) -> np.ndarray:
    """AF at one (tau, nu) of each of ``average_af``'s n_mc data draws."""
    X = _draw_flat(c, d, cfg, n_mc, seed)
    K = _kernel(cfg, tau, nu)
    return np.sum(X * (np.conj(X) @ K.T), axis=1)


def entropy_bits(d) -> float:
    """Shannon entropy of the per-point distribution, in bits."""
    p = np.asarray(d.per_point, dtype=float)
    pos = p[p > 0]
    return float(-np.sum(pos * np.log2(pos)))


def empirical_false_alarm_rate(sc, alpha: float, n_cells: int,
                               seed: int = 0) -> float:
    """Fresh noise-only run: fraction of cells crossing alpha * statistic."""
    length = sc.cfg.n_subcarriers
    n_rows = int(np.ceil(n_cells / length))
    rng = np.random.default_rng(derive_seed(seed, "cfar-evaluation"))
    crossings = sum(int(np.count_nonzero(r > alpha))
                    for r in _noise_only_ratios(sc, n_rows, rng))
    return crossings / (n_rows * length)
