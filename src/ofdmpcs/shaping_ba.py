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
outer loop.  :func:`run_mba` takes plain arguments, as
:func:`.shaping.solve_heuristic` does, and returns the same frozen
:class:`.shaping.ShapingResult`.

The channel integrals are the rate's own quadrature (:mod:`.rates`);
nothing is drawn.  With ``u(x) = log p(x) + D_x``, the solver runs on W
ring masses and the ring means ``Dbar_w`` instead of Q probabilities, and
``sum_w m_w Dbar_w`` is the mutual information itself, in nats.  Each
multiplier match starts its Newton iteration on the moment dual from the
previous iteration's multipliers (the first from zero).
"""

from __future__ import annotations

import numpy as np

from .constellation import Constellation, Distribution
from .rates import _lattice, _ring_rates, check_noise_power, log_probs
from .shaping import ShapingResult, match_ring_masses, snap_c0


def run_mba(c: Constellation, c0: float, noise_power: float,
            outer_tol: float = 1e-5, max_outer: int = 300) -> ShapingResult:
    """Alternating maximization of the constrained rate at fourth moment
    ``c0`` on AWGN of total variance ``noise_power``.

    Starts from the uniform input, alternates the Bayes posterior update
    with the multiplier-matched exponential input update, and stops when the
    squared change of the per-point probability vector, on ring masses
    ``sum_w (delta m_w)**2 / count_w``, is at most ``outer_tol`` or after
    ``max_outer`` updates.  ``converged`` means the first.  Every iterate
    comes from :func:`.shaping.match_ring_masses`, so it meets the moment
    rows to ``RESIDUAL_TOL`` either way.  The trace holds the mutual
    information (nats) after each update; acceptance criterion 07 holds it
    non-decreasing to within 1e-9.  The result carries no rate in bits, and
    no multipliers when the last match ended on the endpoint vertex.

    A noise power :func:`.rates.check_noise_power` rejects, a negative or
    NaN ``outer_tol``, a ``max_outer`` below 1, or a ``c0`` outside the
    feasible range (:func:`.shaping.snap_c0`) raises ``ValueError``.  A
    one-ring input has one feasible point and is returned with no
    iteration; any other input must be a square QAM lattice, else
    ``ValueError``.
    """
    check_noise_power(noise_power)
    if max_outer < 1:
        raise ValueError(f"max_outer must be at least 1, got {max_outer}")
    if not outer_tol >= 0:                  # NaN fails too
        raise ValueError(f"outer_tol must be nonnegative, got {outer_tol!r}")
    target = snap_c0(c, c0)
    if c.n_rings == 1:
        return ShapingResult(c0=float(c0), method="optimal",
                             distribution=Distribution.uniform(c),
                             converged=True, iterations=0)
    lat = _lattice(c, noise_power)

    counts = c.ring_counts.astype(float)
    log_counts = np.log(counts)
    mass = counts / float(c.order)             # ring masses, start uniform
    point_prob = np.full(c.n_rings, 1.0 / c.order)
    u_ring = log_probs(point_prob) + _ring_rates(lat, point_prob)
    trace: list[float] = []
    converged = False
    lam = None
    for _ in range(max_outer):
        # ring counts folded into the exponents; the last multipliers seed
        # the match (None, after an endpoint vertex, starts it from zero)
        mass_new, lam = match_ring_masses(c, u_ring + log_counts, target,
                                          lam)

        # the integrals under the new iterate score it and feed the next
        # update; a ring whose point probability is 0 gets -inf
        point_prob = mass_new / counts
        rates = _ring_rates(lat, point_prob)
        u_ring = log_probs(point_prob) + rates
        trace.append(float(mass_new @ rates))

        delta = mass_new - mass
        mass = mass_new
        if float(delta @ (delta / counts)) <= outer_tol:
            converged = True
            break

    mass = mass / mass.sum()
    return ShapingResult(
        c0=float(c0), method="optimal",
        distribution=Distribution.from_ring_mass(c, mass),
        converged=converged, iterations=len(trace),
        multipliers=None if lam is None else (float(lam[0]), float(lam[1])),
        trace=trace)
