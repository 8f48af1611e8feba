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
channel integrals and the outer loop.

The channel integrals are a deterministic quadrature; nothing is drawn.

* With ``y = x + sigma (s + j t)`` the noise weight is ``exp(-s**2 - t**2)``
  and ``u(x) = log p(x) + D_x``, ``D_x = -E log M_x(s, t)``, where ``M_x``
  is the output density divided by the point's own Gaussian.  On a square
  QAM lattice ``x = l_a + j l_b`` the Gaussian kernel factors into its real
  and imaginary parts, so ``M_x = G_a P G_b^T`` on the K x K node grid:
  ``P[a', b']`` holds the point probabilities and

      G_a[i, a'] = exp(-(D**2 + 2 D sigma s_i) / sigma**2),  D = l_a - l_a'.

  The point's own term is exactly 1, so ``log M_x >= log p(x)`` for every
  positive point probability, subnormal ones included.
* The nodes are the trapezoidal rule ``s = j / 4``, ``|s| <= 6.5`` (K = 53)
  with weights proportional to ``exp(-s**2)``: spectrally accurate for the
  analytic integrand (Trefethen & Weideman, SIAM Review 56, 2014), and no
  eigen-solver builds them.
* Iterates are ring-uniform, so ``D_x`` is invariant under the 8
  symmetries of the square: it is evaluated once per D4 orbit (3, 10 and
  36 orbits on 16-, 64- and 256-QAM) and averaged over each ring, ``Dbar``.
  The solver then runs on W ring masses instead of Q probabilities.
* ``sum_w m_w Dbar_w`` is the mutual information itself, in nats.
* Each multiplier match starts its Newton iteration on the moment dual
  from the previous iteration's multipliers (the first from zero).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, Distribution
from .rates import log_probs
from .shaping import ShapingResult, match_ring_masses, snap_c0

_NODES = np.arange(-26, 27) / 4.0            # s = j / 4, |s| <= 6.5
_WEIGHTS = np.exp(-_NODES ** 2)
_WEIGHTS /= _WEIGHTS.sum()
_LATTICE_TOL = 1e-9     # how far a point may sit from its lattice site


@dataclass(frozen=True)
class MBAConfig:
    """Settings for :func:`run_mba`.

    ``outer_tol`` stops the outer loop on the squared change of the
    per-point probability vector, written on ring masses as
    ``sum_w (delta m_w)**2 / count_w``; that is the only stop rule.  The
    channel integrals take no setting: their node grid is fixed, and the
    multipliers pass from one match to the next inside :func:`run_mba`.
    Nothing here sizes a rate estimate: the solver returns ring masses, and
    whoever scores them picks the estimator.
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


# ---------------------------------------------------------------------------
# channel integrals


@dataclass(frozen=True)
class _Lattice:
    """A square QAM constellation at one noise power, as the quadrature
    reads it.

    ``factors[a]`` is ``G_a``, (K, n); ``cells[a, b]`` is the ring of the
    point ``l_a + j l_b``.  ``reps`` holds one ``(a, b)`` per D4 orbit, on
    nonnegative levels with ``a <= b``, ``rep_ring`` its ring and
    ``rep_share`` its orbit size over its ring's point count.
    """

    factors: np.ndarray
    cells: np.ndarray
    reps: np.ndarray
    rep_ring: np.ndarray
    rep_share: np.ndarray


def _lattice(c: Constellation, sigma2: float) -> _Lattice:
    """:class:`_Lattice` of ``c``; ``ValueError`` unless ``c`` is a square
    QAM lattice of unit power."""
    n = math.isqrt(c.order)
    # levels l_k = (2k - n + 1) h, of unit mean power 2 h**2 (n**2 - 1) / 3
    h = math.sqrt(1.5 / max(n * n - 1, 1))        # n = 1 is rejected below
    site = (np.stack([c.points.real, c.points.imag]) / h + (n - 1)) / 2.0
    index = np.clip(np.rint(site).astype(int), 0, n - 1)
    if (n < 2 or n * n != c.order
            or np.max(np.abs(site - index)) * 2.0 * h > _LATTICE_TOL
            or np.any(np.bincount(index[0] * n + index[1],
                                  minlength=n * n) != 1)):
        raise ValueError(f"the rate-optimal shaper integrates over a square "
                         f"QAM lattice; constellation {c.family!r} of order "
                         f"{c.order} is not one")
    cells = np.empty((n, n), dtype=int)
    cells[index[0], index[1]] = c.ring_index

    levels = (2.0 * np.arange(n) - (n - 1)) * h
    delta = (levels[:, None] - levels[None, :])[:, None, :]   # (n, 1, n)
    shift = (2.0 * np.sqrt(sigma2)) * _NODES[None, :, None]
    factors = np.exp(-(delta * (delta + shift)) / sigma2)

    # an orbit is named by its sorted pair of absolute level indices
    fold = np.maximum(np.arange(n), n - 1 - np.arange(n))
    a, b = np.triu_indices(n - n // 2)
    reps = np.stack([a, b]) + n // 2
    fa, fb = np.meshgrid(fold, fold, indexing="ij")
    size = np.bincount((np.minimum(fa, fb) * n + np.maximum(fa, fb)).ravel(),
                       minlength=n * n)
    rep_ring = cells[reps[0], reps[1]]
    return _Lattice(factors=factors, cells=cells, reps=reps, rep_ring=rep_ring,
                    rep_share=size[reps[0] * n + reps[1]]
                    / c.ring_counts[rep_ring])


def _ring_rates(lat: _Lattice, point_prob: np.ndarray) -> np.ndarray:
    """``Dbar_w``, nats, on each ring whose point probability
    ``point_prob[w]`` is positive, and 0 on the others."""
    live = point_prob > 0
    gp = lat.factors @ point_prob[lat.cells]           # G_a P, every a
    d = np.zeros(lat.rep_ring.size)
    for r in np.flatnonzero(live[lat.rep_ring]):
        a, b = lat.reps[:, r]
        d[r] = -(_WEIGHTS @ np.log(gp[a] @ lat.factors[b].T) @ _WEIGHTS)
    return np.bincount(lat.rep_ring, weights=lat.rep_share * d,
                       minlength=point_prob.size)


# ---------------------------------------------------------------------------
# the outer loop


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
