"""References the tests compare production code against; no command runs them.

Imported as ``oracles``: pytest puts ``tests/`` (no ``__init__.py``) on
``sys.path``.  The AF of one draw is the kernel's quadratic form x K x^H,
the one ``ambiguity.average_af`` averages, in the same units (T_p = 1).
The mutual information is a Gauss-Hermite product rule over the complex
noise, and the shaper's channel integrals are evaluated point by point on
the shaper's own trapezoidal nodes, with direct distances.
"""
from __future__ import annotations

import numpy as np

from ofdmpcs.ambiguity import _draw_flat, _kernel
from ofdmpcs.detection import _noise_only_ratios
from ofdmpcs.seeds import derive_seed

LN2 = np.log(2.0)


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


def naive_log_mix(y, c, d, sigma2):
    """log p(y) by the plain mixture sum, nothing max-shifted."""
    dist2 = np.abs(np.asarray(y)[:, None] - c.points[None, :]) ** 2
    dens = np.sum(d.per_point[None, :] * np.exp(-dist2 / sigma2), axis=1) / (np.pi * sigma2)
    return np.log(dens)


def gh_mutual_information(c, d, sigma2, n_nodes=96):
    """Exact MI in bits via Gauss-Hermite quadrature of h(Y).

    The complex Gaussian is the product of its real and imaginary parts, so
    on each point's product node grid the mixture density is one
    (n_nodes, Q) (Q, n_nodes) product, for any constellation.
    """
    z, w = np.polynomial.hermite_e.hermegauss(n_nodes)
    w = w / np.sqrt(2.0 * np.pi)  # E over N(0, 1)
    s = np.sqrt(sigma2 / 2.0)
    x = c.points
    h_y = 0.0
    for q in np.flatnonzero(d.per_point):
        re = np.exp(-(x[q].real + s * z[:, None] - x.real) ** 2 / sigma2)
        im = np.exp(-(x[q].imag + s * z[:, None] - x.imag) ** 2 / sigma2)
        dens = (re * d.per_point) @ im.T / (np.pi * sigma2)
        h_y -= d.per_point[q] * (w @ np.log(dens) @ w)
    return (h_y - np.log(np.pi * np.e * sigma2)) / LN2


def trapezoid_ring_integrals(c, ring_mass, sigma2):
    """Ring means of u(x) = E log q(x | y), point by point, on the nodes
    y = x + sigma (s + j t), s and t in j / 4 with |s| <= 6.5, weighted by
    exp(-s**2 - t**2); ``-inf`` on a ring of zero point probability.

    Each point's own Gaussian is divided out with direct distances,
    |y - x'|**2 - |y - x|**2, so nothing is factored or folded.
    """
    s = np.arange(-26, 27) / 4.0
    w = np.exp(-s ** 2)
    w = (w[:, None] * w[None, :]).ravel()
    w /= w.sum()
    noise = np.sqrt(sigma2) * (s[:, None] + 1j * s[None, :]).ravel()
    p = (np.asarray(ring_mass, float) / c.ring_counts)[c.ring_index]
    u = np.full(c.order, -np.inf)
    for q in np.flatnonzero(p > 0):
        y = c.points[q] + noise
        excess = (np.abs(y[:, None] - c.points[None, :]) ** 2
                  - np.abs(noise[:, None]) ** 2) / sigma2
        u[q] = np.log(p[q]) - w @ np.log(np.exp(-excess) @ p)
    return np.array([np.mean(u[c.ring_index == r]) for r in range(c.n_rings)])
