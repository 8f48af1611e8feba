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
* Iterates are ring-uniform (the per-point integrals are averaged over
  each ring before the update), which is exact for the ring-uniform model
  and lets the solver run on W ring masses instead of Q probabilities.  The
  sample set is therefore reduced once, per call, to W x M ring tables
  (:class:`RingTables`, M samples), and each outer iteration evaluates the
  integrals on them at W x M cost instead of Q x M.
* Each multiplier match starts its Newton iteration on the moment dual
  from the previous iteration's multipliers (the first from zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, Distribution
from .rates import awgn_outputs, log_probs, logsumexp
from .seeds import derive_seed
from .shaping import ShapingResult, match_ring_masses, snap_c0

_NEG_INF = -np.inf
MIN_UPDATE_SAMPLES = 100     # smallest n_mc that estimates the update integrals
_BLOCK_SAMPLES = 1024        # samples per block of a ring's likelihood table


@dataclass(frozen=True)
class MBAConfig:
    """Settings for :func:`run_mba`.

    ``n_mc`` is the size M of the one fixed sample set that estimates the
    update integrals in every outer iteration; it is reduced once to the
    W x M ring tables the iterations run on.  ``outer_tol`` stops the outer
    loop on the squared change of the per-point probability vector, written
    on ring masses as ``sum_w (delta m_w)**2 / count_w``; that is the only
    stop rule.  The warm-started multiplier match takes no setting: the
    multipliers pass from one iteration to the next inside :func:`run_mba`.
    Nothing here sizes a rate estimate: the solver returns ring masses, and
    whoever scores them picks the estimator.
    """

    c0: float
    noise_power: float
    n_mc: int = 10_000
    outer_tol: float = 1e-5
    max_outer: int = 300

    def __post_init__(self):
        if not self.noise_power > 0:        # NaN fails too
            raise ValueError("noise_power must be positive")
        if self.n_mc < MIN_UPDATE_SAMPLES:
            raise ValueError(f"n_mc must be >= {MIN_UPDATE_SAMPLES} to estimate "
                             f"the update integrals, got {self.n_mc}")
        if self.max_outer < 1:
            raise ValueError(
                f"max_outer must be at least 1, got {self.max_outer}")
        if not self.outer_tol >= 0:
            raise ValueError(
                f"outer_tol must be nonnegative, got {self.outer_tol!r}")


# ---------------------------------------------------------------------------
# update integrals


def _log_likelihood(points: np.ndarray, samples: np.ndarray,
                    sigma2: float) -> np.ndarray:
    """(len(points), M) table of log p(y_m | x) for the AWGN channel."""
    y = np.asarray(samples, dtype=complex).ravel()
    d2 = np.abs(points[:, None] - y[None, :]) ** 2
    return -d2 / sigma2 - np.log(np.pi * sigma2)


@dataclass(frozen=True)
class RingTables:
    """Ring-level reductions of one fixed sample set ``y_1 .. y_M``.

    The samples are drawn under the uniform input, so point ``q`` weighs
    sample ``m`` by ``W_qm = p(y_m | x_q) / mix_m`` with ``mix_m = (1/Q)
    sum_q' p(y_m | x_q')``.  Every table has one row per ring ``w``:

    * ``log_lik[w, m]``: ``L_wm = log sum_{q in w} p(y_m | x_q)``;
    * ``weight[w, m]``: ``B_wm = exp(L_wm - log mix_m) / count_w``, the
      mean of ``W_qm`` over ring ``w``;
    * ``weight_mean[w]``: the mean of ``B_wm`` over the samples;
    * ``weighted_log_lik[w]``: ``A_w = mean_m B_wm H_wm``, the mean over
      samples and ring points of ``W_qm log p(y_m | x_q)``, where ``H_wm``
      is the mean of ``log p(y_m | x_q)`` under the ring posterior
      ``p(y_m | x_q) / exp(L_wm)``.
    """

    counts: np.ndarray
    log_lik: np.ndarray
    weight: np.ndarray
    weight_mean: np.ndarray
    weighted_log_lik: np.ndarray


def ring_tables(c: Constellation, samples: np.ndarray,
                sigma2: float) -> RingTables:
    """:class:`RingTables` of ``samples``, drawn under the uniform input.

    One pass, ring by ring and, within a ring, over near-equal blocks of at
    most ``_BLOCK_SAMPLES`` samples, so neither a (Q, M) table nor a ring's
    (points, M) complex distances are ever held.  Each block's likelihoods
    are evaluated once and reduced over the ring's points to ``L_wm`` and
    ``H_wm``; the weights follow from ``L`` alone.  Those reductions add the
    points in order for every block at least two samples wide, so the
    tables do not depend on the block size.  A one-sample block would be
    summed pairwise, so the blocks are split evenly: with
    ``_BLOCK_SAMPLES`` >= 3 only M = 1 gives one.
    """
    y = np.asarray(samples, dtype=complex).ravel()
    n_blocks = -(-y.size // _BLOCK_SAMPLES)
    log_lik = np.empty((c.n_rings, y.size))
    post_log_lik = np.empty_like(log_lik)       # H_wm
    for w in range(c.n_rings):
        pts = c.points[c.ring_index == w]
        for i in range(n_blocks):
            b = slice(y.size * i // n_blocks, y.size * (i + 1) // n_blocks)
            ll = _log_likelihood(pts, y[b], sigma2)
            log_lik[w, b] = logsumexp(ll, axis=0)
            post_log_lik[w, b] = np.sum(np.exp(ll - log_lik[w, b]) * ll,
                                        axis=0)
    counts = c.ring_counts.astype(float)
    log_mix = logsumexp(log_lik, axis=0) - np.log(c.order)
    weight = np.exp(log_lik - log_mix) / counts[:, None]
    return RingTables(counts=counts, log_lik=log_lik, weight=weight,
                      weight_mean=weight.mean(axis=1),
                      weighted_log_lik=np.mean(weight * post_log_lik, axis=1))


def ring_integrals(tables: RingTables, mass: np.ndarray) -> np.ndarray:
    """Ring-averaged Monte-Carlo estimates of integral p(y|x) log q(x|y) dy.

    ``mass`` is the current ring-uniform iterate, which enters through the
    Bayes posterior ``q(x|y) = p(x) p(y|x) / sum_x' p(x') p(y|x')``.  With
    ``p_w`` the point mass on ring ``w`` and ``log mix_m = log sum_w p_w
    exp(L_wm)`` the output log-density, the ring integral is

        u_w = log p_w * mean_m B_wm + A_w - mean_m (B_wm log mix_m),

    the per-point integral averaged over the ring and reassociated onto the
    ring tables, so it costs W x M per call.  A ring of zero mass has a
    ``-inf`` integral.
    """
    log_pt = log_probs(mass / tables.counts)
    live = np.isfinite(log_pt)
    if live.all():
        live = slice(None)      # views of the W x M tables, not copies
    log_mix = logsumexp(tables.log_lik[live] + log_pt[live, None], axis=0)
    u = np.full(mass.shape, _NEG_INF)
    u[live] = (log_pt[live] * tables.weight_mean[live]
               + tables.weighted_log_lik[live]
               - tables.weight[live] @ log_mix / log_mix.size)
    return u


# ---------------------------------------------------------------------------
# the outer loop


def _objective(mass, u_ring, counts) -> float:
    """F = sum_x p(x) (u_x - log p(x)), ring-collapsed; nats.

    A ring counts where its point log-probability is finite, the rule by
    which :func:`ring_integrals` gives it a finite integral (a positive
    mass can still underflow to a zero point probability).
    """
    logp_ring = log_probs(mass / counts)
    alive = np.isfinite(logp_ring)
    return float(np.dot(mass[alive], u_ring[alive] - logp_ring[alive]))


def run_mba(c: Constellation, cfg: MBAConfig, seed: int = 0) -> ShapingResult:
    """Alternating maximization of the constrained-rate objective.

    Starts from the uniform input, alternates the Bayes posterior update
    with the multiplier-matched exponential input update, and stops when the
    squared change of the probability vector is at most ``cfg.outer_tol``
    or after ``cfg.max_outer`` updates.  ``converged`` means the first.
    Every iterate comes from :func:`.shaping.match_ring_masses`, so it
    meets the moment rows to ``RESIDUAL_TOL`` either way.  The recorded
    trace holds the sample objective (nats) after each input update; with
    the fixed sample set it is non-decreasing by construction.  The result
    carries no rate estimate (``air_bits`` is ``None``), and no multipliers
    when the last match ended on the endpoint vertex.

    ``cfg.c0`` goes through :func:`.shaping.snap_c0`: a target outside the
    feasible moment range raises ``ValueError``.
    """
    c0 = snap_c0(c, cfg.c0)
    rng = np.random.default_rng(derive_seed(seed, "mba-samples"))
    samples = awgn_outputs(c, Distribution.uniform(c), rng, cfg.n_mc,
                           cfg.noise_power)
    tables = ring_tables(c, samples, cfg.noise_power)

    counts = tables.counts
    log_counts = np.log(counts)
    mass = counts / float(c.order)             # ring masses, start uniform
    u_ring = ring_integrals(tables, mass)
    trace: list[float] = []
    converged = False
    lam = None
    for _ in range(cfg.max_outer):
        # ring counts folded into the exponents; the last multipliers seed
        # the match (None, after an endpoint vertex, starts it from zero)
        mass_new, lam = match_ring_masses(c, u_ring + log_counts, c0, lam)

        # the integrals under the new iterate score it and feed the next update
        u_ring = ring_integrals(tables, mass_new)
        trace.append(_objective(mass_new, u_ring, counts))

        delta = mass_new - mass
        mass = mass_new
        if float(delta @ (delta / counts)) <= cfg.outer_tol:
            converged = True
            break

    mass = mass / mass.sum()
    return ShapingResult(
        c0=float(cfg.c0), method="optimal", ring_mass=mass,
        distribution=Distribution.from_ring_mass(c, mass),
        converged=converged, iterations=len(trace),
        multipliers=None if lam is None else (float(lam[0]), float(lam[1])),
        trace=trace)
