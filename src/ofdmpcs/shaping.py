"""Ring masses under the moment constraints: the maximum-entropy heuristic.

Shaping a constellation for sensing boils down to hitting a target fourth
moment ``c0`` of the amplitude distribution while keeping unit mean power.
In ring-mass coordinates that is the linear system

    sum_w mass_w * A_w**4 = c0      (target fourth moment)
    sum_w mass_w * A_w**2 = 1       (unit power)
    sum_w mass_w          = 1       (probability)

The heuristic picks, among the inputs meeting these rows, the one of maximum
entropy.  Its points follow the Maxwell-Boltzmann-type family

    p(x)  proportional to  exp{ u(x) - lam1 * A_x**4 - lam2 * A_x**2 }

with ``u = 0``.  The rate-optimal shaper (:mod:`.shaping_ba`) takes its
steps in the same family with ``u`` its channel integrals, so one matcher,
:func:`match_ring_masses`, serves both solvers.  It works on ring masses:
the points of ring ``w`` share one exponent, so the ring's weight carries
``u_w + log count_w``.

The multipliers minimize the convex moment dual of the maximum-entropy
problem (see :func:`_moment_dual`); one damped Newton iteration on it,
from a caller's warm start or from zero, finds them.  At an endpoint of
the feasible range the feasible set is a single vertex and the multipliers
run off to infinity, so the vertex found by enumeration is returned
instead, without multipliers.

Both solves are closed forms: the 2 x 2 Newton step by Cramer's rule (or
its pseudo-inverse when the Hessian is rank one), each candidate vertex by
the Lagrange form on its three rings.  No LAPACK routine runs, so a process
pages in none of its code or buffers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .constellation import CONSTRUCTION_TOL, Constellation, Distribution

RESIDUAL_TOL = 1e-10
MASS_SLACK = 1e-12
C0_SLACK = 1e-9      # how far outside the feasible range a target may stray


@dataclass(frozen=True)
class ShapingResult:
    """Outcome of a shaping solve (heuristic or rate-optimal).

    The ring masses of ``distribution`` come from
    :func:`match_ring_masses`, so they meet the three moment rows to
    ``RESIDUAL_TOL`` whatever ``converged`` says.  ``converged`` is the
    matcher's guarantee for the heuristic, one match, and the outer stop
    rule for the optimal method.  ``multipliers`` and a meaningful
    ``trace`` exist only for the optimal method, and ``multipliers`` is
    ``None`` at an endpoint of the feasible range, where they diverge.  No
    rate is carried: scoring an input by its rate is the caller's decision.
    """

    c0: float
    method: str                    # "heuristic" | "optimal"
    distribution: Distribution
    converged: bool
    iterations: int
    multipliers: tuple[float, float] | None = None
    trace: list = field(default_factory=list)


def feasible_c0_range(c: Constellation) -> tuple[float, float]:
    """Attainable fourth-moment interval under unit power.

    The ring masses range over the polytope {m >= 0, sum m = 1,
    sum m A**2 = 1}.  With two equality rows its vertices load at most two
    rings, one on each side of unit power, and a linear objective is
    extremal at a vertex.  With ``d = 1 - A**2``, the vertex on rings
    ``d_i >= 0 >= d_j`` has fourth moment ``1 - d_i d_j`` (a ring at unit
    power, ``d = 0``, is a vertex on its own), so the range is the extent of
    that table.  Unit mean power, which the constellation holds to within
    ``CONSTRUCTION_TOL``, puts a ring on each side once ``d`` is rounded to
    zero within that tolerance.
    """
    d = 1.0 - c.ring_amps ** 2
    d = np.where(np.abs(d) <= CONSTRUCTION_TOL, 0.0, d)
    m4 = 1.0 - np.outer(d[d >= 0.0], d[d <= 0.0])
    return float(m4.min()), float(m4.max())


def snap_c0(c: Constellation, c0: float) -> float:
    """``c0`` snapped into :func:`feasible_c0_range`.

    A target within ``C0_SLACK`` of the range (rounding in the caller's
    arithmetic) lands on the nearest endpoint; one further out raises
    ``ValueError``.  Clamping a farther target is a decision about external
    input, so it belongs to the caller.
    """
    lo, hi = feasible_c0_range(c)
    if not lo - C0_SLACK <= c0 <= hi + C0_SLACK:
        raise ValueError(f"fourth-moment target {c0} outside the feasible "
                         f"range [{lo:.6f}, {hi:.6f}]")
    return float(min(max(c0, lo), hi))


def _support_loads(a2, c0):
    """Every support of at most three rings with its loads: ``(K, k)`` each.

    The loads of a support are the moment functional ``(c0, 1, 1)`` applied
    to the Lagrange basis of its squared amplitudes ``x = A**2`` (``a2``).
    On three rings i, j, k

        m_i = (c0 - (x_j + x_k) + x_j x_k) / ((x_i - x_j)(x_i - x_k))

    meets all three rows; distinct ring amplitudes keep every denominator
    nonzero.  With fewer than three rings there is one support, and its
    loads meet the power and probability rows (``m_i = (1 - x_j) /
    (x_i - x_j)`` on two rings, ``m = 1`` on one), the fourth-moment row
    being left to the caller's residual check.
    """
    n_rings = a2.size
    supports = np.array(list(itertools.combinations(range(n_rings),
                                                    min(n_rings, 3))))
    x = a2[supports]
    if n_rings >= 3:
        loads = np.empty(x.shape)
        for i, (j, k) in enumerate(((1, 2), (0, 2), (0, 1))):
            xj, xk = x[:, j], x[:, k]
            loads[:, i] = ((c0 - (xj + xk) + xj * xk)
                           / ((x[:, i] - xj) * (x[:, i] - xk)))
    elif n_rings == 2:
        loads = (1.0 - x[:, ::-1]) / (x - x[:, ::-1])
    else:
        loads = np.ones(x.shape)
    return supports, loads


def _lp_match(a2, c0):
    """Nonnegative ring masses meeting the three moment rows at ``c0``.

    The solutions form a polytope cut by the rows (A**4, A**2, 1), so each
    of its vertices loads at most three rings.  Every such support is
    solved in closed form by :func:`_support_loads`, and the nonnegative
    solution with the smallest residual is returned.  This terminates even
    when the feasible set degenerates to a single point (c0 at an endpoint
    of the feasible range).
    """
    supports, loads = _support_loads(a2, c0)
    rows = np.vstack([a2 ** 2, a2, np.ones_like(a2)])
    blocks = np.moveaxis(rows[:, supports], 1, 0)            # (K, 3, k)
    nonneg = np.all(loads >= -MASS_SLACK, axis=1)
    # a ring the vertex does not load gets rounding residue from the solve:
    # it is zero, so the unloaded rings of an endpoint vertex read 0 exactly
    loads = np.where(loads <= MASS_SLACK, 0.0, loads)
    residual = np.max(np.abs(np.einsum("kij,kj->ki", blocks, loads)
                             - np.array([c0, 1.0, 1.0])), axis=1)
    ok = nonneg & (residual <= RESIDUAL_TOL)
    if not np.any(ok):
        raise RuntimeError("no nonnegative ring loading meets fourth moment "
                           f"{c0!r} under unit power")
    best = np.flatnonzero(ok)[np.argmin(residual[ok])]
    masses = np.zeros(a2.size)
    masses[supports[best]] = loads[best]
    return masses


# ---------------------------------------------------------------------------
# multipliers: Newton on the maximum-entropy moment dual
#
# The tilt of u with multipliers lam = (lam1, lam2) minimizes the dual
#
#     phi(lam) = log sum_w exp(u_w - lam1 A**4_w - lam2 A**2_w) + lam1 c0 + lam2,
#
# a smooth convex function whose gradient is (c0, 1) minus the tilted
# moments of (A**4, A**2) and whose Hessian is their tilted covariance
# (Mead & Papanicolaou, J. Math. Phys. 25, 1984; Boyd & Vandenberghe,
# Convex Optimization, 5.2.4 and 9.5).  For a target inside the feasible
# range phi is strictly convex and coercive on three or more live rings, so
# damped Newton converges from any start.

_DUAL_MAX_STEPS = 200
_ARMIJO_FRACTION = 0.25
# below this Newton decrement the dual's own decrease is rounding noise:
# take full steps, which converge quadratically there
_FULL_STEP_DECREMENT = 1e-12
# a singular value at most this fraction of the largest counts as zero, the
# cutoff numpy's lstsq applies to a 2 x 2 system by default (rcond=None)
_RANK_RCOND = 2.0 * float(np.finfo(float).eps)


def _moment_dual(u, a2, a4, c0, lam):
    """The moment dual at ``lam``: ``(phi, masses, gradient, Hessian)``.

    ``u`` holds live (finite) exponents only; ``masses`` are the tilted
    weights, normalized.  The sum is max-shifted, so no multipliers
    overflow it.
    """
    feats = np.stack([a4, a2])
    target = np.array([c0, 1.0])
    e = u - lam @ feats
    shift = np.max(e)
    g = np.exp(e - shift)
    total = g.sum()
    p = g / total
    mean = feats @ p
    centred = feats - mean[:, None]
    return (shift + np.log(total) + lam @ target, p, target - mean,
            (centred * p) @ centred.T)


def _newton_step(hess, grad):
    """The minimum-norm least-squares solution of ``hess @ step = -grad``.

    What numpy's ``lstsq(hess, -grad, rcond=None)`` returns, in closed
    form, with no LAPACK call.  The singular values of ``[[a, b], [c, d]]``
    are ``(hypot(a + d, b - c) +- hypot(a - d, b + c)) / 2``, and the
    smaller one is ``|det| / s_max``.  Above the ``_RANK_RCOND`` cutoff
    Cramer's rule solves the system.  At or below it the Hessian is rank
    one (a flat dual, e.g. two live rings), and its pseudo-inverse is
    ``hess.T / s_max**2``.  A zero Hessian, or one so small that
    ``s_max**2`` underflows (the tilt has collapsed onto one ring), gives a
    zero step.
    """
    (a, b), (c, d) = hess.tolist()
    g0, g1 = grad.tolist()
    s_max = 0.5 * (math.hypot(a + d, b - c) + math.hypot(a - d, b + c))
    det = a * d - b * c
    if abs(det) > _RANK_RCOND * s_max * s_max:
        return np.array([(b * g1 - d * g0) / det, (c * g0 - a * g1) / det])
    if s_max * s_max == 0.0:
        return np.zeros(2)
    return np.array([a * g0 + c * g1, b * g0 + d * g1]) / -(s_max * s_max)


def _dual_newton(u, a2, a4, c0, lam):
    """Newton with Armijo backtracking on the moment dual, from ``lam``.

    Iterates until the largest moment mismatch (the gradient) is within
    ``RESIDUAL_TOL`` and stops shrinking, so every start ends at the
    rounding floor, and returns the multipliers and masses of the best
    iterate seen.  A stalled iteration (a flat dual, e.g. fewer than three
    live rings, or a start so far out that the tilt sits on one ring)
    returns the best iterate as it stands.
    """
    lam = np.array(lam, dtype=float)
    phi, p, grad, hess = _moment_dual(u, a2, a4, c0, lam)
    best_mismatch, best_lam, best_p = np.inf, lam, p
    for _ in range(_DUAL_MAX_STEPS):
        mismatch = float(np.max(np.abs(grad)))
        if best_mismatch <= RESIDUAL_TOL and mismatch >= best_mismatch:
            break
        if mismatch < best_mismatch:
            best_mismatch, best_lam, best_p = mismatch, lam, p
        step = _newton_step(hess, grad)
        decrement = float(-grad @ step)
        if not decrement > 0.0:
            break
        t = 1.0
        trial = _moment_dual(u, a2, a4, c0, lam + step)
        if decrement > _FULL_STEP_DECREMENT:
            while not trial[0] <= phi - _ARMIJO_FRACTION * t * decrement:
                t *= 0.5
                if t < 2.0 ** -40:
                    return best_lam, best_p
                trial = _moment_dual(u, a2, a4, c0, lam + t * step)
        lam = lam + t * step
        phi, p, grad, hess = trial
    return best_lam, best_p


def match_ring_masses(c: Constellation, u: np.ndarray, c0: float,
                      warm=None):
    """Ring masses of the tilt of ``u`` that meets the moment rows at ``c0``.

    ``u`` holds one exponent per ring, point count folded in (``-inf`` for a
    dead ring).  Returns ``(ring_mass, multipliers)``: the masses
    proportional to ``exp(u - lam1 A**4 - lam2 A**2)`` at the multipliers
    minimizing the moment dual, found by Newton from ``warm`` (the
    multipliers of a nearby match, such as the previous outer iteration's)
    or from zero.

    At an endpoint of :func:`feasible_c0_range` the feasible set is one
    vertex and the multipliers diverge, so the vertex of :func:`_lp_match`
    is returned with ``None`` for the multipliers.  The same happens when
    the tilt misses any of the rows (A**4, A**2, 1) by more than
    ``RESIDUAL_TOL`` from both starts, which guards degenerate inputs such
    as fewer than three live rings; that vertex loads live rings only.

    So the masses returned are nonnegative, zero on dead rings, and meet
    all three rows to ``RESIDUAL_TOL``, whatever ``u`` and ``warm``; both
    solvers rest on that.  An all-``-inf`` ``u``, or a ``c0`` no loading of
    the live rings meets, raises ``RuntimeError``: neither solver can
    produce one, so either is an internal error.
    """
    a2 = c.ring_amps ** 2
    live = np.isfinite(u)
    if not np.any(live):
        raise RuntimeError("all update weights vanished; integrals are "
                           "degenerate")
    if c0 in feasible_c0_range(c):
        mass = _lp_match(a2, c0)
        if np.any(mass[~live] > 0.0):
            raise RuntimeError(f"the one ring loading at fourth moment {c0!r} "
                               "loads a dead ring")
        return mass, None
    rows = np.vstack([a2 ** 2, a2, np.ones_like(a2)])
    target = np.array([c0, 1.0, 1.0])
    starts = [np.zeros(2)] if warm is None else [warm, np.zeros(2)]
    for start in starts:
        lam, p = _dual_newton(u[live], a2[live], rows[0][live], c0, start)
        mass = np.zeros(u.shape)
        mass[live] = p
        if np.max(np.abs(rows @ mass - target)) <= RESIDUAL_TOL:
            return mass, lam
    mass = np.zeros(u.shape)
    mass[live] = _lp_match(a2[live], c0)
    return mass, None


def solve_heuristic(c: Constellation, c0: float) -> ShapingResult:
    """Maximum-entropy ring masses with fourth moment c0 under unit power.

    The maximum-entropy input under the three moment rows has point
    probabilities proportional to ``exp(-lam1 A**4 - lam2 A**2)``; it does
    not involve the channel.  ``c0`` goes through :func:`snap_c0`: a target
    outside the feasible range raises ``ValueError``.  At an endpoint the
    feasible set is a single vertex, which is returned renormalised as
    :func:`.shaping_ba.run_mba` renormalises its result, so both solvers
    return the same masses there.  The solve is one match, so the result
    is ``converged`` by the matcher's guarantee: the moment rows are met to
    ``RESIDUAL_TOL``.  It carries no rate.
    """
    masses, lam = match_ring_masses(c, np.log(c.ring_counts.astype(float)),
                                    snap_c0(c, c0))
    if lam is None:                     # the vertex: its loads sum to 1 +- ulp
        masses = masses / masses.sum()
    return ShapingResult(c0=float(c0), method="heuristic",
                         distribution=Distribution.from_ring_mass(c, masses),
                         converged=True, iterations=0)
