"""Rate-optimal shaping: constrained Blahut-Arimoto over a moment budget.

Maximizes the mutual information of a discrete constellation on AWGN subject
to a fourth-moment budget (``sum p A**4 = c0``), unit mean power, and
normalization.  The alternating scheme is classic Blahut-Arimoto with the
input update replaced by a Lagrangian exponential-family step,

    p(x)  proportional to  exp{ u(x) - lam1 * A_x**4 - lam2 * A_x**2 },

where ``u(x) = integral p(y|x) log q(x|y) dy`` under the current input and
the multipliers ``(lam1, lam2)`` are chosen so the moment constraints hold
exactly.  That step is :func:`.shaping.match_ring_masses`, the matcher the
maximum-entropy heuristic runs with ``u(x) = 0``; this module keeps the
outer loop.

The channel integrals are the rate's own quadrature (:mod:`.rates`);
nothing is drawn.  With ``u(x) = log p(x) + D_x``, the solver runs on W
ring masses and the ring means ``Dbar_w`` instead of Q probabilities, and
``sum_w m_w Dbar_w`` is the mutual information itself, in nats.  Each
multiplier match starts its Newton iteration on the moment dual from the
previous iteration's multipliers (the first from zero).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, Distribution
from .rates import _lattice, _ring_rates, log_probs
from .shaping import ShapingResult, match_ring_masses, snap_c0


@dataclass(frozen=True)
class MBAConfig:
    """Settings for :func:`run_mba`.

    ``outer_tol`` stops the outer loop on the squared change of the
    per-point probability vector, written on ring masses as
    ``sum_w (delta m_w)**2 / count_w``; that is the only stop rule.  The
    channel integrals take no setting: their node grid is fixed, and the
    multipliers pass from one match to the next inside :func:`run_mba`.
    Nothing here sizes a rate: the solver returns ring masses, which
    :func:`.rates.rate_bits` scores on the quadrature the solver runs.
    """

    c0: float
    noise_power: float
    outer_tol: float = 1e-5
    max_outer: int = 300

    def __post_init__(self):
        if not self.noise_power > 0:        # NaN fails too
            raise ValueError("noise_power must be positive")
        if self.max_outer < 1:
            raise ValueError(
                f"max_outer must be at least 1, got {self.max_outer}")
        if not self.outer_tol >= 0:
            raise ValueError(
                f"outer_tol must be nonnegative, got {self.outer_tol!r}")


def run_mba(c: Constellation, cfg: MBAConfig) -> ShapingResult:
    """Alternating maximization of the constrained rate.

    Starts from the uniform input, alternates the Bayes posterior update
    with the multiplier-matched exponential input update, and stops when the
    squared change of the probability vector is at most ``cfg.outer_tol``
    or after ``cfg.max_outer`` updates.  ``converged`` means the first.
    Every iterate comes from :func:`.shaping.match_ring_masses`, so it
    meets the moment rows to ``RESIDUAL_TOL`` either way.  The recorded
    trace holds the mutual information (nats) after each input update.  The
    exact iteration never lowers it; the quadrature's trace is not
    non-decreasing by construction, and acceptance criterion 07 holds it
    to within 1e-9.  The result carries no rate in bits
    (``air_bits`` is ``None``), and no multipliers when the last match
    ended on the endpoint vertex.

    ``cfg.c0`` goes through :func:`.shaping.snap_c0`: a target outside the
    feasible moment range raises ``ValueError``.  A one-ring input has one
    feasible point and is returned with no iteration; any other input must
    be a square QAM lattice, else ``ValueError``.
    """
    c0 = snap_c0(c, cfg.c0)
    if c.n_rings == 1:
        mass = np.ones(1)
        return ShapingResult(c0=float(cfg.c0), method="optimal",
                             ring_mass=mass,
                             distribution=Distribution.from_ring_mass(c, mass),
                             converged=True, iterations=0)
    lat = _lattice(c, cfg.noise_power)

    counts = c.ring_counts.astype(float)
    log_counts = np.log(counts)
    mass = counts / float(c.order)             # ring masses, start uniform
    point_prob = np.full(c.n_rings, 1.0 / c.order)
    u_ring = log_probs(point_prob) + _ring_rates(lat, point_prob)
    trace: list[float] = []
    converged = False
    lam = None
    for _ in range(cfg.max_outer):
        # ring counts folded into the exponents; the last multipliers seed
        # the match (None, after an endpoint vertex, starts it from zero)
        mass_new, lam = match_ring_masses(c, u_ring + log_counts, c0, lam)

        # the integrals under the new iterate score it and feed the next
        # update; a ring whose point probability is 0 gets -inf
        point_prob = mass_new / counts
        rates = _ring_rates(lat, point_prob)
        u_ring = log_probs(point_prob) + rates
        trace.append(float(mass_new @ rates))

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
