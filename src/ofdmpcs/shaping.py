"""Moment-matching heuristic shaper over ring masses.

Shaping a constellation for sensing boils down to hitting a target fourth
moment ``c0`` of the amplitude distribution while keeping unit mean power.
In ring-mass coordinates that is the linear system

    sum_w mass_w * A_w**4 = c0      (target fourth moment)
    sum_w mass_w * A_w**2 = 1       (unit power)
    sum_w mass_w          = 1       (probability)

For three rings the system is square and solved exactly.  Otherwise the
system is under-determined and the squared fourth-moment mismatch is driven
to zero by projected gradient descent from the uniform loading: each step
is an exact line minimization along the fourth-moment row projected into
the power/probability affine subspace, followed by an alternating
affine-projection / nonnegativity-clip pass iterated to a fixed point.  No
secondary objective is imposed, but starting at the uniform loading keeps
the solution interior and smooth in ``c0``.  When that alternation cannot
settle — the feasible set thins to a sliver or a single vertex at the
endpoints of the feasible range — an exact vertex enumeration takes over,
which terminates unconditionally with machine-precision residuals.
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


@dataclass(frozen=True)
class RingSystem:
    """Moment-constraint matrix over ring masses and its right-hand side."""

    matrix: np.ndarray   # rows: A**4, A**2, 1
    rhs: np.ndarray      # (c0, 1, 1)


@dataclass
class ShapingResult:
    """Outcome of a shaping solve (heuristic or rate-optimal).

    ``multipliers`` and a meaningful ``trace`` exist only for the optimal
    method; ``air_bits`` is filled when a rate estimate was requested.
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
            payload["lambda"] = list(self.multipliers)
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


# ---------------------------------------------------------------------------
# under-determined systems


def _pgd_match(matrix, rhs, start, max_outer: int = 500,
               max_inner: int = 20_000):
    """Projected gradient descent on the squared fourth-moment mismatch.

    The two equality rows (power, probability) span an affine subspace; the
    objective gradient always points along the fourth-moment row, so its
    in-subspace component is a fixed direction and every step is an exact
    line minimization.  After each step the iterate returns to the mass
    polytope by alternating the exact affine projection with a clip onto
    the nonnegative box until the pair stops moving.  Returns ``None`` when
    that alternation cannot settle within the iteration budget, which
    happens when the polytope thins towards an endpoint of the feasible
    range — the caller then falls back to the exact active-set solve.
    """
    a4 = matrix[0]
    eq = matrix[1:]
    eq_rhs = rhs[1:]
    # pseudo-inverse tolerates rank-deficient constraint rows (1-2 rings)
    eq_pinv = np.linalg.pinv(eq)

    def to_affine(x):
        return x - eq_pinv @ (eq @ x - eq_rhs)

    def to_polytope(x):
        for _ in range(max_inner):
            y = np.clip(to_affine(x), 0.0, None)
            if np.max(np.abs(y - x)) <= 1e-15:
                if np.max(np.abs(eq @ y - eq_rhs)) <= 1e-11:
                    return y
                return None
            x = y
        return None

    direction = a4 - eq_pinv @ (eq @ a4)
    slope = float(direction @ a4)

    p = to_polytope(np.asarray(start, dtype=float))
    if p is None:
        return None
    if slope <= 1e-14:
        # fourth moment is constant on the feasible set (PSK, two rings)
        residual = float(a4 @ p - rhs[0])
        return (p, 0) if abs(residual) <= RESIDUAL_TOL else None
    for outer in range(1, max_outer + 1):
        residual = float(a4 @ p - rhs[0])
        if abs(residual) <= RESIDUAL_TOL:
            return p, outer - 1
        stepped = p - (residual / slope) * direction
        p_new = to_polytope(stepped)
        if p_new is None:
            return None
        if np.max(np.abs(p_new - p)) <= 1e-16:
            return None  # stalled short of the target moment
        p = p_new
    return None


def _lp_match(matrix, rhs):
    """A nonnegative mass vector satisfying all three moment equalities.

    The solutions form a polytope cut by three equality rows, so each of
    its vertices loads at most three rings.  Distinct ring amplitudes make
    every three-ring system a nonsingular Vandermonde matrix: all of them
    are solved in one batch, and the nonnegative solution with the smallest
    residual is returned (fewer than three rings give one least-squares
    candidate).  Unlike the projected descent, this terminates even when
    the feasible set degenerates to a single point (c0 at an endpoint of
    the feasible range).  No secondary objective is imposed.
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


def solve_heuristic(c: Constellation, c0: float,
                    start: np.ndarray | None = None) -> ShapingResult:
    """Find ring masses with fourth moment c0 under unit power.

    Targets outside the feasible range are clamped to the nearest endpoint
    with a warning.  Three-ring constellations use the exact linear solve;
    otherwise projected gradient descent from ``start`` (uniform loading by
    default) drives the moment mismatch to zero, falling back to an exact
    active-set solve near degenerate endpoints.  Different starts may reach
    different mass vectors — only the achieved moment is contractual.
    """
    lo, hi = feasible_c0_range(c)
    c0_target = float(c0)
    if c0_target < lo - 1e-12 or c0_target > hi + 1e-12:
        clamped = min(max(c0_target, lo), hi)
        warnings.warn(f"target fourth moment {c0_target} outside feasible "
                      f"range [{lo:.6f}, {hi:.6f}]; clamped to {clamped:.6f}")
        c0_target = clamped
    c0_target = min(max(c0_target, lo), hi)

    sys_ = ring_system(c, c0_target)
    iterations = 0
    masses = None
    if c.n_rings == 3:
        try:
            cand = np.linalg.solve(sys_.matrix, sys_.rhs)
        except np.linalg.LinAlgError:
            cand = None
        if cand is not None and np.all(cand >= -MASS_SLACK):
            masses = cand
    if masses is None:
        if start is None:
            start = c.ring_counts / c.size
        sol = _pgd_match(sys_.matrix, sys_.rhs, start)
        if sol is not None:
            masses, iterations = sol
        else:
            masses = _lp_match(sys_.matrix, sys_.rhs)

    dist = Distribution.from_ring_mass(c, np.maximum(masses, 0.0))
    m4 = moment(c, dist, 4)
    converged = abs(m4 - c0_target) <= 1e-8
    return ShapingResult(c0=float(c0), method="heuristic",
                         ring_mass=np.asarray(masses, dtype=float),
                         distribution=dist, moment4=m4,
                         converged=converged, iterations=iterations)
