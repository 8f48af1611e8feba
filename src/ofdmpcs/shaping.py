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

The multipliers are found by a coarse grid scan and a Newton polish with
the analytic 2x2 Jacobian, or by Newton alone from a caller's warm start
when that meets the residual tolerance.  Residuals are normalized by
``sum g`` so they are literal moment mismatches of the candidate
distribution (raw residuals vanish spuriously for large multipliers, where
every weight underflows together).  A nested bisection is the globally
convergent fallback.  At an endpoint of the feasible range the feasible set
is a single vertex and the multipliers run off to infinity; when the tilt
misses any constraint row, the vertex found by enumeration is returned
instead, without multipliers.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .constellation import (CONSTRUCTION_TOL, Constellation, Distribution,
                            moment)

RESIDUAL_TOL = 1e-10
MASS_SLACK = 1e-12

# multiplier solve: a coarse grid scan over [GRID_LO, GRID_HI]^2 seeds a
# Newton polish, which walks outside the grid freely
GRID_LO = -20.0
GRID_HI = 20.0
GRID_STEP = 0.5
NEWTON_STEP_TOL = 1e-18
NEWTON_RESIDUAL_TOL = 1e-11
NEWTON_MAX_ITER = 200


@dataclass(frozen=True)
class RingSystem:
    """Moment-constraint matrix over ring masses and its right-hand side."""

    matrix: np.ndarray   # rows: A**4, A**2, 1
    rhs: np.ndarray      # (c0, 1, 1)


@dataclass
class ShapingResult:
    """Outcome of a shaping solve (heuristic or rate-optimal).

    ``multipliers`` and a meaningful ``trace`` exist only for the optimal
    method, and ``multipliers`` is ``None`` at an endpoint of the feasible
    range, where they diverge; ``air_bits`` is filled when a rate estimate
    was requested.
    """

    c0: float
    method: str                    # "heuristic" | "optimal"
    ring_mass: np.ndarray
    distribution: Distribution
    moment4: float
    converged: bool
    iterations: int
    air_bits: float | None = None
    multipliers: tuple[float, float] | None = None
    trace: list = field(default_factory=list)

    def to_json(self) -> str:
        payload = {"c0": self.c0}
        if self.method == "optimal":
            payload["lambda"] = (None if self.multipliers is None
                                 else list(self.multipliers))
        payload["ring_mass"] = [float(v) for v in self.ring_mass]
        payload["air_bits"] = self.air_bits
        payload["converged"] = bool(self.converged)
        payload["iters"] = int(self.iterations)
        payload["trace"] = [float(v) for v in self.trace]
        if self.method != "optimal":
            payload["method"] = self.method
        return json.dumps(payload, separators=(", ", ": "))


def ring_system(c: Constellation, c0: float) -> RingSystem:
    """Constraint system (fourth moment, power, probability) over ring masses."""
    a2 = c.ring_amps ** 2
    matrix = np.vstack([a2 ** 2, a2, np.ones_like(a2)])
    return RingSystem(matrix=matrix, rhs=np.array([c0, 1.0, 1.0]))


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


def _lp_match(matrix, rhs):
    """A nonnegative mass vector satisfying all three moment equalities.

    The solutions form a polytope cut by three equality rows, so each of
    its vertices loads at most three rings.  Distinct ring amplitudes make
    every three-ring system a nonsingular Vandermonde matrix: all of them
    are solved in one batch, and the nonnegative solution with the smallest
    residual is returned (fewer than three rings give one least-squares
    candidate).  This terminates even when the feasible set degenerates to
    a single point (c0 at an endpoint of the feasible range).
    """
    n_rings = matrix.shape[1]
    if n_rings >= 3:
        supports = np.array(list(itertools.combinations(range(n_rings), 3)))
        blocks = np.moveaxis(matrix[:, supports], 1, 0)      # (K, 3, 3)
        loads = np.linalg.solve(blocks, np.broadcast_to(
            rhs[:, None], blocks.shape[:2] + (1,)))[..., 0]
    else:
        supports = np.arange(n_rings)[None, :]
        blocks = matrix[None]
        loads = np.linalg.lstsq(matrix, rhs, rcond=None)[0][None, :]
    nonneg = np.all(loads >= -MASS_SLACK, axis=1)
    loads = np.maximum(loads, 0.0)
    residual = np.max(np.abs(np.einsum("kij,kj->ki", blocks, loads) - rhs),
                      axis=1)
    ok = nonneg & (residual <= RESIDUAL_TOL)
    if not np.any(ok):
        raise RuntimeError("no nonnegative ring loading meets fourth moment "
                           f"{rhs[0]!r} under unit power")
    best = np.flatnonzero(ok)[np.argmin(residual[ok])]
    masses = np.zeros(n_rings)
    masses[supports[best]] = loads[best]
    return masses


# ---------------------------------------------------------------------------
# multiplier system


def _tilt(u, a2, a4, lam1, lam2):
    """Max-shifted weights g = exp(u - lam1 A**4 - lam2 A**2 - shift).

    ``u`` may contain -inf (dead entries); those get zero weight.  Returns
    ``(g, shift)``.
    """
    e = u - lam1 * a4 - lam2 * a2
    finite = np.isfinite(e)
    if not np.any(finite):
        raise ValueError("all update weights vanished; integrals are degenerate")
    shift = float(np.max(e[finite]))
    return np.where(finite, np.exp(e - shift), 0.0), shift


def _residual_system(u, a2, a4, c0, lam1, lam2, scaled):
    """Residuals (f1, f2) and Jacobian of the exponential-family update.

    f1 drives the unit-power constraint, f2 the fourth-moment budget; both
    are weighted sums of the tilted weights g (see :func:`_tilt`).
    ``scaled`` divides by sum(g), turning residuals into literal moment
    mismatches of the candidate distribution.
    """
    g, shift = _tilt(u, a2, a4, lam1, lam2)
    total = float(g.sum())
    f = np.array([np.dot(a2 - 1.0, g), np.dot(a4 - c0, g)])
    jac = -np.array([
        [np.dot((a2 - 1.0) * a4, g), np.dot((a2 - 1.0) * a2, g)],
        [np.dot((a4 - c0) * a4, g), np.dot((a4 - c0) * a2, g)],
    ])
    if scaled:
        return f / total, jac / total
    with np.errstate(over="ignore", invalid="ignore"):
        back = np.exp(shift)
        restored_f, restored_jac = f * back, jac * back
    if not np.isfinite(back) or not np.all(np.isfinite(restored_f)):
        raise OverflowError(
            f"residuals overflow despite stabilization at lambda=({lam1}, {lam2})")
    return restored_f, restored_jac


@dataclass(frozen=True)
class NewtonResult:
    lam: np.ndarray
    converged: bool
    iterations: int


def newton_solve(residual_fn, lam0, step_tol: float = NEWTON_STEP_TOL,
                 residual_tol: float = NEWTON_RESIDUAL_TOL,
                 max_iter: int = NEWTON_MAX_ITER,
                 cond_limit: float = 1e12) -> NewtonResult:
    """Damped Newton iteration on the 2x2 residual system.

    Stops when the squared step norm falls below ``step_tol`` or the
    residual norm below ``residual_tol``.  Every step is line-searched (the
    Newton direction is always a descent direction for ||f||, so halving
    finds a decrease near regular roots and full steps keep the quadratic
    rate); ill-conditioned Jacobians switch to a pseudo-inverse direction.
    Failure to decrease the residual ends the iteration unconverged — this
    happens when the root sits at infinity, e.g. for a fourth-moment target
    on the boundary of the feasible interval.
    """
    lam = np.array(lam0, dtype=float)
    for it in range(1, max_iter + 1):
        f, jac = residual_fn(lam[0], lam[1])
        f = np.asarray(f, dtype=float)
        norm = float(np.hypot(f[0], f[1]))
        if not np.isfinite(norm):
            return NewtonResult(lam, False, it)
        if norm <= residual_tol:
            return NewtonResult(lam, True, it)
        jac = np.asarray(jac, dtype=float)
        if not np.all(np.isfinite(jac)) or np.linalg.cond(jac) > cond_limit:
            step = -np.linalg.pinv(jac) @ f
        else:
            step = np.linalg.solve(jac, -f)
        alpha, ok = 1.0, False
        while alpha > 2.0 ** -30:
            f_try, _ = residual_fn(*(lam + alpha * step))
            f_try = np.asarray(f_try, dtype=float)
            if np.all(np.isfinite(f_try)) and float(np.hypot(*f_try)) < norm:
                ok = True
                break
            alpha *= 0.5
        if not ok:
            return NewtonResult(lam, False, it)
        step = alpha * step
        lam = lam + step
        if float(step @ step) <= step_tol:
            return NewtonResult(lam, True, it)
    return NewtonResult(lam, False, max_iter)


# ---------------------------------------------------------------------------
# bisection fallback for the multiplier system
#
# The normalized moments of the tilted weights g = exp(u - l1*A^4 - l2*A^2)
# are strictly monotone: sum(g A^2)/sum(g) decreases in l2 at fixed l1
# (its derivative is -Var(A^2) under the tilt), and on the manifold where
# that moment equals one, sum(g A^4)/sum(g) decreases in l1 (Cauchy-Schwarz).
# Nested scalar root finding is therefore globally convergent, including
# targets at the feasible boundary where the root runs off to infinity and
# Newton stalls; there the bracket expansion caps out and the cap yields the
# boundary distribution to within exp(-cap)-level residuals.

_OUTER_CAP = 512.0


def _bisect(f, lo, hi, xtol):
    """Root of a decreasing ``f`` bracketed by ``f(lo) > 0 > f(hi)``.

    Halves the bracket until it is ``xtol`` wide, its midpoint rounds onto
    an end, or ``f`` vanishes at the midpoint, and returns the midpoint.
    """
    while True:
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol or mid == lo or mid == hi:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_mid > 0.0:
            lo = mid
        else:
            hi = mid


def _tilted_moments(u, a2, a4, lam1, lam2):
    g, _ = _tilt(u, a2, a4, lam1, lam2)
    total = g.sum()
    return float(g @ a2) / total, float(g @ a4) / total


def _power_balance_root(u, a2, a4, lam1):
    """lam2 making the tilted mean-square amplitude equal one, at fixed lam1."""
    def f(lam2):
        return _tilted_moments(u, a2, a4, lam1, lam2)[0] - 1.0

    # |lam2| needed to balance any |lam1| <= cap is at most ~2 max(a2) cap
    inner_cap = 8.0 * max(1.0, float(np.max(a2))) * _OUTER_CAP
    lo, hi = -1.0, 1.0
    flo, fhi = f(lo), f(hi)
    if flo == 0.0 and fhi == 0.0:       # constant-modulus support
        return 0.0
    while flo < 0.0 and lo > -inner_cap:
        lo *= 2.0
        flo = f(lo)
    while fhi > 0.0 and hi < inner_cap:
        hi *= 2.0
        fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo < 0.0 or fhi > 0.0:          # root beyond the cap: take the endpoint
        return lo if abs(flo) <= abs(fhi) else hi
    return _bisect(f, lo, hi, xtol=1e-13)


def _nested_multiplier_root(u, a2, a4, c0):
    """Globally convergent (lam1, lam2) solve by nested bisection."""
    def h(lam1):
        lam2 = _power_balance_root(u, a2, a4, lam1)
        return _tilted_moments(u, a2, a4, lam1, lam2)[1] - c0

    lo, hi = -1.0, 1.0
    hlo, hhi = h(lo), h(hi)
    if hlo == 0.0:
        lam1 = lo
    elif hhi == 0.0:
        lam1 = hi
    else:
        while hlo < 0.0 and lo > -_OUTER_CAP:
            lo *= 2.0
            hlo = h(lo)
        while hhi > 0.0 and hi < _OUTER_CAP:
            hi *= 2.0
            hhi = h(hi)
        if hlo < 0.0 or hhi > 0.0:
            lam1 = lo if abs(hlo) <= abs(hhi) else hi
        else:
            lam1 = _bisect(h, lo, hi, xtol=1e-12)
    lam2 = _power_balance_root(u, a2, a4, lam1)
    return np.array([float(lam1), float(lam2)])


def _match_multipliers(u, a2, a4, c0, warm=None):
    """Newton from ``warm`` when given; else, or when that Newton misses,
    grid + Newton, with nested bisection as the robust fallback."""
    def fn(l1, l2):
        return _residual_system(u, a2, a4, c0, l1, l2, scaled=True)

    def norm(lam):
        return float(np.hypot(*np.asarray(fn(lam[0], lam[1])[0], dtype=float)))

    if warm is not None:
        res = newton_solve(fn, warm)
        if res.converged and norm(res.lam) <= NEWTON_RESIDUAL_TOL:
            return res.lam
    res = newton_solve(fn, _init_multipliers(u, a2, a4, c0))
    lam = res.lam
    best = norm(lam)
    if not res.converged or best > NEWTON_RESIDUAL_TOL:
        alt = _nested_multiplier_root(u, a2, a4, c0)
        if norm(alt) < best:
            lam = alt
    return lam


def _grid_scan_vec(u, a2, a4, c0, l1s, l2s):
    """Vectorized scaled-residual scan; returns argmin in scan order."""
    grid1 = np.repeat(l1s, l2s.size)
    grid2 = np.tile(l2s, l1s.size)
    e = u[None, :] - grid1[:, None] * a4[None, :] - grid2[:, None] * a2[None, :]
    e = np.where(np.isfinite(e), e, -np.inf)
    shift = np.max(e, axis=1, keepdims=True)
    g = np.exp(e - shift)
    total = g.sum(axis=1)
    f1 = g @ (a2 - 1.0) / total
    f2 = g @ (a4 - c0) / total
    norms = np.hypot(f1, f2)
    k = int(np.argmin(norms))          # argmin keeps the first minimum
    return np.array([grid1[k], grid2[k]]), float(norms[k])


def _init_multipliers(u, a2, a4, c0):
    """Coarse grid scan, then a ten times finer one around its argmin."""
    coarse = np.arange(GRID_LO, GRID_HI + 0.5 * GRID_STEP, GRID_STEP)
    lam, _ = _grid_scan_vec(u, a2, a4, c0, coarse, coarse)
    fine_step = GRID_STEP / 10.0
    f1s = np.arange(lam[0] - GRID_STEP, lam[0] + GRID_STEP + 0.5 * fine_step,
                    fine_step)
    f2s = np.arange(lam[1] - GRID_STEP, lam[1] + GRID_STEP + 0.5 * fine_step,
                    fine_step)
    lam, _ = _grid_scan_vec(u, a2, a4, c0, f1s, f2s)
    return lam


def match_ring_masses(c: Constellation, u: np.ndarray, c0: float,
                      warm=None):
    """Ring masses of the tilt of ``u`` that meets the moment rows at ``c0``.

    ``u`` holds one exponent per ring, point count folded in (``-inf`` for a
    dead ring).  Returns ``(ring_mass, multipliers)``: the masses
    proportional to ``exp(u - lam1 A**4 - lam2 A**2)`` at the matched
    multipliers, or, when that tilt misses any row of :func:`ring_system` by
    more than ``RESIDUAL_TOL``, the enumerated vertex of :func:`_lp_match`.
    The vertex is the answer at the endpoints of the feasible range, where
    the feasible set is that one point and the multipliers diverge.

    ``multipliers`` is ``None`` at the vertex.  ``warm``, the multipliers
    of a nearby match such as the previous outer iteration's, starts Newton
    there and skips the grid scan when that Newton meets
    ``NEWTON_RESIDUAL_TOL``.
    """
    sys_ = ring_system(c, c0)
    a4, a2 = sys_.matrix[0], sys_.matrix[1]
    lam = _match_multipliers(u, a2, a4, c0, warm)
    g, _ = _tilt(u, a2, a4, lam[0], lam[1])
    mass = g / g.sum()
    if np.max(np.abs(sys_.matrix @ mass - sys_.rhs)) > RESIDUAL_TOL:
        return _lp_match(sys_.matrix, sys_.rhs), None
    return mass, lam


def solve_heuristic(c: Constellation, c0: float) -> ShapingResult:
    """Maximum-entropy ring masses with fourth moment c0 under unit power.

    The maximum-entropy input under the three moment rows has point
    probabilities proportional to ``exp(-lam1 A**4 - lam2 A**2)``; it does
    not involve the channel.  Targets outside the feasible range are clamped
    to the nearest endpoint with a warning; at an endpoint the feasible set
    is a single vertex, which is returned.
    """
    lo, hi = feasible_c0_range(c)
    c0_target = float(c0)
    if c0_target < lo - 1e-12 or c0_target > hi + 1e-12:
        clamped = min(max(c0_target, lo), hi)
        warnings.warn(f"target fourth moment {c0_target} outside feasible "
                      f"range [{lo:.6f}, {hi:.6f}]; clamped to {clamped:.6f}")
        c0_target = clamped
    c0_target = min(max(c0_target, lo), hi)

    masses, _ = match_ring_masses(c, np.log(c.ring_counts.astype(float)),
                                  c0_target)
    dist = Distribution.from_ring_mass(c, masses)
    m4 = moment(c, dist, 4)
    converged = abs(m4 - c0_target) <= 1e-8
    return ShapingResult(c0=float(c0), method="heuristic", ring_mass=masses,
                         distribution=dist, moment4=m4,
                         converged=converged, iterations=0)
