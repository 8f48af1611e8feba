"""Rate-optimal shaping: constrained Blahut-Arimoto over a moment budget.

Maximizes the mutual information of a discrete constellation on AWGN subject
to a fourth-moment budget (``sum p A**4 = c0``), unit mean power, and
normalization.  The alternating scheme is classic Blahut-Arimoto with the
input update replaced by a Lagrangian exponential-family step,

    p(x)  proportional to  exp{ u(x) - lam1 * A_x**4 - lam2 * A_x**2 },

where ``u(x)`` is a Monte-Carlo estimate of ``integral p(y|x) log q(x|y) dy``
and the multipliers ``(lam1, lam2)`` are chosen so the moment constraints
hold exactly: a coarse grid scan locates the root of the residual system and
Newton iterations polish it (analytic 2x2 Jacobian).

Numerical conventions:

* Everything runs in log space; exponential sums are max-shifted.
* The solver evaluates residuals normalized by ``sum_x g_x``, which makes
  them literal moment residuals of the candidate distribution and keeps the
  grid scan meaningful (raw residuals vanish spuriously for large
  multipliers because every ``g_x`` underflows together).  The Newton step
  is unchanged by the normalization.
* Newton also stops on the residual norm: at the endpoints of the feasible
  moment interval the root lies at infinity and steps stop shrinking, while
  the residual still decays to zero.
* One Monte-Carlo sample set, drawn under the uniform input, is the
  estimator for every outer iteration.  The fixed-sample objective is then
  exactly alternately maximized, so its trace is non-decreasing to machine
  precision.
* Iterates are ring-symmetrized (the per-point integrals are averaged over
  each ring before the update), which is exact for the ring-uniform model
  and lets the solver run on W ring masses instead of Q probabilities: the
  points of ring ``w`` share one exponent, so the ring's weight carries
  ``u_w + log count_w``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, Distribution
from .rates import MIN_MI_SAMPLES, ChannelSpec, logsumexp, mutual_information
from .seeds import derive_seed
from .shaping import ShapingResult, feasible_c0_range

_NEG_INF = -np.inf
EXIT_RESIDUAL_TOL = 1e-4

# multiplier solve: a coarse grid scan over [GRID_LO, GRID_HI]^2 seeds a
# Newton polish, which walks outside the grid freely
GRID_LO = -20.0
GRID_HI = 20.0
GRID_STEP = 0.5
NEWTON_STEP_TOL = 1e-18
NEWTON_RESIDUAL_TOL = 1e-11
NEWTON_MAX_ITER = 200


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
        if self.n_mc < 100:
            raise ValueError("n_mc too small to estimate the update integrals")
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
    dead = ~np.isfinite(logq)
    terms = np.where(dead & (weights == 0.0), 0.0, weights * logq)
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


def _match_multipliers(u, a2, a4, c0):
    """Grid + Newton fast path, nested bisection as the robust fallback."""
    def fn(l1, l2):
        return _residual_system(u, a2, a4, c0, l1, l2, scaled=True)

    res = newton_solve(fn, _init_multipliers(u, a2, a4, c0))
    lam = res.lam
    best = float(np.hypot(*np.asarray(fn(lam[0], lam[1])[0], dtype=float)))
    if not res.converged or best > NEWTON_RESIDUAL_TOL:
        alt = _nested_multiplier_root(u, a2, a4, c0)
        alt_norm = float(np.hypot(*np.asarray(fn(alt[0], alt[1])[0],
                                              dtype=float)))
        if alt_norm < best:
            lam = alt
    return lam


# ---------------------------------------------------------------------------
# the outer loop


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


def _ring_update(u_sys, a2, a4, lam):
    """Ring masses of the exponential-family update at multipliers ``lam``."""
    g, _ = _tilt(u_sys, a2, a4, lam[0], lam[1])
    return g / g.sum()


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

    ring_a2 = c.ring_amps ** 2
    ring_a4 = ring_a2 ** 2
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
        u_sys = u_ring + log_counts            # weights folded into exponents
        lam = _match_multipliers(u_sys, ring_a2, ring_a4, c0)
        mass_new = _ring_update(u_sys, ring_a2, ring_a4, lam)

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
