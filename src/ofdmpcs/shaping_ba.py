"""Rate-optimal shaping: constrained Blahut-Arimoto over a moment budget.

Maximizes the mutual information of a discrete constellation on AWGN subject
to a fourth-moment budget (``sum p A**4 = c0``), unit mean power, and
normalization.  The alternating scheme is classic Blahut-Arimoto with the
input update replaced by a Lagrangian exponential-family step,

    p(x)  proportional to  exp{ u(x) - lam1 * A_x**4 - lam2 * A_x**2 },

where ``u(x)`` is a Monte-Carlo estimate of ``integral p(y|x) log q(x|y) dy``
and the multipliers ``(lam1, lam2)`` are chosen so the moment constraints
hold exactly.  That step is :func:`.shaping.match_ring_masses`, the matcher
the maximum-entropy heuristic runs with ``u(x) = 0``; this module keeps the
channel term and the outer loop.

Numerical conventions:

* Everything runs in log space; exponential sums are max-shifted.
* One Monte-Carlo sample set, drawn under the uniform input, is the
  estimator for every outer iteration.  The fixed-sample objective is then
  exactly alternately maximized, so its trace is non-decreasing to machine
  precision.
* Iterates are ring-symmetrized (the per-point integrals are averaged over
  each ring before the update), which is exact for the ring-uniform model
  and lets the solver run on W ring masses instead of Q probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, Distribution
from .rates import MIN_MI_SAMPLES, ChannelSpec, logsumexp, mutual_information
from .seeds import derive_seed
from .shaping import ShapingResult, feasible_c0_range, match_ring_masses

_NEG_INF = -np.inf
EXIT_RESIDUAL_TOL = 1e-4
MIN_UPDATE_SAMPLES = 100     # smallest n_mc that estimates the update integrals


@dataclass(frozen=True)
class MBAConfig:
    """Settings for :func:`run_mba`.

    ``n_mc`` is the size of the one fixed sample set that estimates the
    update integrals in every outer iteration.  ``outer_tol`` stops the outer
    loop on the squared change of the per-point probability vector (and,
    secondarily, on a relative objective plateau).  ``air_n_mc`` sizes the
    final rate estimate.
    """

    c0: float
    noise_power: float
    n_mc: int = 10_000
    outer_tol: float = 1e-5
    max_outer: int = 300
    air_n_mc: int = 100_000

    def __post_init__(self):
        if self.noise_power <= 0:
            raise ValueError("noise_power must be positive")
        if self.n_mc < MIN_UPDATE_SAMPLES:
            raise ValueError(f"n_mc must be >= {MIN_UPDATE_SAMPLES} to estimate "
                             f"the update integrals, got {self.n_mc}")
        if self.max_outer < 1:
            raise ValueError(
                f"max_outer must be at least 1, got {self.max_outer}")
        if self.outer_tol < 0:
            raise ValueError(
                f"outer_tol must be nonnegative, got {self.outer_tol!r}")
        if self.air_n_mc < MIN_MI_SAMPLES:
            raise ValueError(f"air_n_mc must be >= {MIN_MI_SAMPLES}, "
                             f"got {self.air_n_mc}")


# ---------------------------------------------------------------------------
# update integrals


def _log_likelihood(c: Constellation, samples: np.ndarray,
                    sigma2: float) -> np.ndarray:
    """(Q, M) table of log p(y_m | x_q) for the AWGN channel."""
    y = np.asarray(samples, dtype=complex).ravel()
    d2 = np.abs(c.points[:, None] - y[None, :]) ** 2
    return -d2 / sigma2 - np.log(np.pi * sigma2)


def _log_probs(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.where(p > 0, np.log(np.maximum(p, 1e-300)), _NEG_INF)


def _importance_weights(loglik: np.ndarray, p_draw: np.ndarray) -> np.ndarray:
    """(Q, M) weights p(y_m | x) / sum_x' p(y_m | x') p_draw(x').

    ``p_draw`` is the per-point distribution the samples were drawn under.
    """
    log_mix = logsumexp(loglik + _log_probs(p_draw)[:, None], axis=0)
    return np.exp(loglik - log_mix[None, :])


def ring_integrals(c: Constellation, loglik: np.ndarray, weights: np.ndarray,
                   p: np.ndarray) -> np.ndarray:
    """Ring-averaged Monte-Carlo estimates of integral p(y|x) log q(x|y) dy.

    ``loglik`` and ``weights`` come from one fixed sample set (see
    :func:`_log_likelihood` and :func:`_importance_weights`); ``p`` is the
    current per-point iterate, which enters through the Bayes posterior
    ``q(x|y) = p(x) p(y|x) / sum_x' p(x') p(y|x')``.  A point of zero mass
    has a ``-inf`` integral, and so has its whole ring.
    """
    logp = _log_probs(p)
    log_mix = logsumexp(loglik + logp[:, None], axis=0)
    logq = logp[:, None] + loglik - log_mix[None, :]
    # a dead entry the sample cannot reach contributes 0, not 0 * -inf
    reached = np.isfinite(logq) | (weights != 0.0)
    terms = np.multiply(weights, logq, out=np.zeros_like(logq), where=reached)
    u_pt = np.where(p > 0, np.mean(terms, axis=1), _NEG_INF)
    return _ring_means(u_pt, c.ring_index, c.n_rings)


def _ring_means(values, ring_index, n_rings):
    sums = np.bincount(ring_index, weights=np.where(np.isfinite(values),
                                                    values, 0.0),
                       minlength=n_rings)
    counts = np.bincount(ring_index, minlength=n_rings)
    means = sums / counts
    has_dead = np.bincount(ring_index, weights=(~np.isfinite(values)).astype(float),
                           minlength=n_rings) > 0
    return np.where(has_dead, _NEG_INF, means)


# ---------------------------------------------------------------------------
# the outer loop


def _objective(mass, u_ring, counts) -> float:
    """F = sum_x p(x) (u_x - log p(x)), ring-collapsed; nats."""
    alive = mass > 0
    logp_ring = np.log(mass[alive] / counts[alive])
    return float(np.dot(mass[alive], u_ring[alive] - logp_ring))


def _iterate(c: Constellation, cfg: MBAConfig, c0: float, seed: int):
    """The outer loop on one fixed sample set.

    Returns ``(ring_mass, multipliers, trace, converged)``.  The (Q, n_mc)
    tables live only in this scope, so they are freed before the caller's
    final rate estimate.
    """
    rng = np.random.default_rng(derive_seed(seed, "mba-samples"))
    uniform = Distribution.uniform(c)
    idx = uniform.draw(rng, cfg.n_mc)
    sig = np.sqrt(cfg.noise_power / 2.0)
    samples = c.points[idx] + rng.normal(scale=sig, size=cfg.n_mc) \
        + 1j * rng.normal(scale=sig, size=cfg.n_mc)
    loglik = _log_likelihood(c, samples, cfg.noise_power)
    weights = _importance_weights(loglik, uniform.per_point)

    counts = c.ring_counts.astype(float)
    log_counts = np.log(counts)

    def point_probs(mass_vec):
        return mass_vec[c.ring_index] / counts[c.ring_index]

    mass = counts / float(c.size)              # ring masses, start uniform
    u_ring = ring_integrals(c, loglik, weights, point_probs(mass))
    trace: list[float] = []
    converged = False
    lam = np.zeros(2)
    for _ in range(cfg.max_outer):
        # ring counts folded into the exponents
        mass_new, lam = match_ring_masses(c, u_ring + log_counts, c0)

        # the integrals under the new iterate score it and feed the next update
        u_ring = ring_integrals(c, loglik, weights, point_probs(mass_new))
        f_val = _objective(mass_new, u_ring, counts)
        plateau = bool(trace) and abs(f_val - trace[-1]) <= cfg.outer_tol * abs(trace[-1])
        trace.append(f_val)

        delta = point_probs(mass_new) - point_probs(mass)
        mass = mass_new
        if float(delta @ delta) <= cfg.outer_tol or plateau:
            converged = True
            break
    return mass, lam, trace, converged


def run_mba(c: Constellation, cfg: MBAConfig, seed: int = 0) -> ShapingResult:
    """Alternating maximization of the constrained-rate objective.

    Starts from the uniform input, alternates the Bayes posterior update
    with the multiplier-matched exponential input update, and stops when the
    probability vector settles (or the objective plateaus).  The recorded
    trace holds the sample objective (nats) after each input update; with
    the fixed sample set it is non-decreasing by construction.

    Raises ``ValueError`` when ``c0`` lies outside the feasible moment range.
    """
    lo, hi = feasible_c0_range(c)
    if not (lo - 1e-9 <= cfg.c0 <= hi + 1e-9):
        raise ValueError(f"fourth-moment target {cfg.c0} outside the feasible "
                         f"range [{lo:.6f}, {hi:.6f}]")
    c0 = float(np.clip(cfg.c0, lo, hi))
    mass, lam, trace, converged_outer = _iterate(c, cfg, c0, seed)

    mass = np.maximum(mass, 0.0)
    mass = mass / mass.sum()
    dist = Distribution.from_ring_mass(c, mass)
    ring_a2 = c.ring_amps ** 2
    m4 = float(np.dot(mass, ring_a2 ** 2))
    residuals = (abs(m4 - c0), abs(float(np.dot(mass, ring_a2)) - 1.0),
                 abs(float(mass.sum()) - 1.0))
    feasible = max(residuals) <= EXIT_RESIDUAL_TOL

    air = mutual_information(c, dist, ChannelSpec(cfg.noise_power),
                             n_mc=cfg.air_n_mc,
                             seed=derive_seed(seed, "mba-air"))
    return ShapingResult(
        c0=float(cfg.c0), method="optimal",
        ring_mass=mass, distribution=dist, moment4=m4,
        converged=bool(converged_outer and feasible),
        iterations=len(trace),
        air_bits=float(air.mi_bits),
        multipliers=(float(lam[0]), float(lam[1])),
        trace=trace)
