"""Achievable rate of shaped constellations on complex AWGN.

The channel is complex circular AWGN with total noise variance sigma2, and
signal power is 1.  :func:`rate_bits` is the one rate the package
reports: a deterministic quadrature, in nats inside and bits outside.

* With ``y = x + sigma (s + j t)`` the noise weight is ``exp(-s**2 - t**2)``
  and the mutual information of a ring-uniform input is
  ``I = sum_x p(x) D_x``, ``D_x = -E log M_x(s, t)``, where ``M_x`` is the
  output density divided by the point's own Gaussian.  On a square QAM
  lattice ``x = l_a + j l_b`` the Gaussian kernel factors into its real
  and imaginary parts, so ``M_x = G_a P G_b^T`` on the K x K node grid:
  ``P[a', b']`` holds the point probabilities and

      G_a[i, a'] = exp(-(D**2 + 2 D sigma s_i) / sigma**2),  D = l_a - l_a'.

  The point's own term is exactly 1, so ``log M_x >= log p(x)`` for every
  positive point probability, subnormal ones included.
* The nodes are the trapezoidal rule ``s = j / 4``, ``|s| <= 6.5`` (K = 53)
  with weights proportional to ``exp(-s**2)``: spectrally accurate for the
  analytic integrand (Trefethen & Weideman, SIAM Review 56, 2014), and no
  eigen-solver builds them.
* A ring-uniform input makes ``D_x`` invariant under the 8 symmetries of
  the square: it is evaluated once per D4 orbit (3, 10 and 36 orbits on
  16-, 64- and 256-QAM) and averaged over each ring, ``Dbar_w``, so
  ``I = sum_w m_w Dbar_w`` on the ring masses.  The rate-optimal shaper
  (:mod:`.shaping_ba`) runs on the same ring integrals.
* A one-ring input (PSK, 4-QAM) is uniform on a rotation orbit, so every
  point has the same ``D_x``: it is evaluated at one point, as one
  (K x Q)(Q x K) product.

The Monte-Carlo estimator :func:`mutual_information` is a reference that
no command runs (the benchmark's tracer names it): the mean of
``-log p(y_m) - log(pi e sigma2)`` over outputs ``y_m`` that
:func:`awgn_outputs` builds in place, with ``log p(y)`` from
:func:`gm_log_pdf`.  That expands ``|y - x|**2``, so each chunk of at most
``_CHUNK_ELEMS`` table entries is one real (m, 2) @ (2, Q) product plus a
per-point bias, reduced by a max-shifted sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constellation import MAX_ABS_DB, Constellation, Distribution

LN2 = float(np.log(2.0))
MIN_MI_SAMPLES = 1000       # smallest n_mc with a usable standard error
_CHUNK_ELEMS = 65_536       # gm_log_pdf's (samples, points) table: 512 KB
_NODES = np.arange(-26, 27) / 4.0            # s = j / 4, |s| <= 6.5
_WEIGHTS = np.exp(-_NODES ** 2)
_WEIGHTS /= _WEIGHTS.sum()
_LATTICE_TOL = 1e-9     # how far a point may sit from its lattice site
NOISE_POWER_RANGE = (10.0 ** (-MAX_ABS_DB / 10.0),
                     10.0 ** (MAX_ABS_DB / 10.0))


def log_probs(p: np.ndarray) -> np.ndarray:
    """Elementwise ``log p``, ``-inf`` exactly where ``p`` is zero.

    Only positive entries reach ``np.log``, so a subnormal p gets its own
    log (5e-324 gives -744.4) and a zero raises no warning.
    """
    p = np.asarray(p, dtype=float)
    return np.log(p, out=np.full(p.shape, -np.inf), where=p > 0)


def check_noise_power(noise_power: float) -> None:
    """``ValueError`` unless ``noise_power`` lies in ``NOISE_POWER_RANGE``,
    [1e-300, 1e+300], +-``MAX_ABS_DB`` from 1 and the command line's
    ``[channel] sigma2`` range; below it D**2 / sigma2 overflows."""
    lo, hi = NOISE_POWER_RANGE
    if not lo <= noise_power <= hi:                 # NaN fails too
        raise ValueError("noise_power must be positive and finite, within "
                         f"[{lo:g}, {hi:g}], got {noise_power!r}")


# ---------------------------------------------------------------------------
# the rate: a quadrature over the noise


def _factors(delta: np.ndarray, sigma2: float) -> np.ndarray:
    """``exp(-(D**2 + 2 D sigma s) / sigma**2)`` for each offset ``D`` on
    the last axis of ``delta``, with the nodes ``s`` on a new axis before
    it."""
    delta = delta[..., None, :]
    shift = (2.0 * np.sqrt(sigma2)) * _NODES[:, None]
    return np.exp(-(delta * (delta + shift)) / sigma2)


@dataclass(frozen=True)
class _Lattice:
    """A square QAM constellation at one noise power, as the quadrature
    reads it.

    ``factors[a]`` is ``G_a``, (K, n), from :func:`_factors`; ``cells[a, b]`` is the ring of the
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
        raise ValueError(f"the rate quadrature integrates over a square QAM "
                         f"lattice; constellation {c.family!r} of order "
                         f"{c.order} is not one")
    cells = np.empty((n, n), dtype=int)
    cells[index[0], index[1]] = c.ring_index

    levels = (2.0 * np.arange(n) - (n - 1)) * h
    factors = _factors(levels[:, None] - levels[None, :], sigma2)

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


def _orbit_rate(c: Constellation, sigma2: float) -> float:
    """``D_x``, nats, at the first point of a one-ring ``c`` under the
    uniform input: every point's, since the ring is one rotation orbit;
    ``ValueError`` if it is not."""
    x = c.points
    turned = x * np.exp(2j * np.pi / c.order)
    if np.max(np.min(np.abs(turned[:, None] - x[None, :]), axis=1)) \
            > _LATTICE_TOL:
        raise ValueError(f"the rate quadrature needs a one-ring "
                         f"constellation to be a rotation orbit; "
                         f"{c.family!r} of order {c.order} is not one")
    delta = x[0] - x                                   # the own term is 0
    re, im = _factors(delta.real, sigma2), _factors(delta.imag, sigma2)
    return float(-(_WEIGHTS @ np.log((re / c.order) @ im.T) @ _WEIGHTS))


def rate_bits(d: Distribution, noise_power: float) -> float:
    """I(X; Y) in bits of the ring-uniform input ``d`` on complex AWGN of
    total variance ``noise_power``: ``sum_w m_w Dbar_w / ln 2``.

    ``d``'s constellation is a square QAM lattice or one ring (PSK,
    4-QAM); any other constellation raises ``ValueError``, and so does a
    noise power that :func:`check_noise_power` rejects.  A rate of zero is
    +0.0.
    """
    check_noise_power(noise_power)
    c = d.constellation
    if c.n_rings == 1:                  # -0.0 + 0.0 is +0.0
        return _orbit_rate(c, noise_power) / LN2 + 0.0
    mass = d.ring_mass
    rates = _ring_rates(_lattice(c, noise_power), mass / c.ring_counts)
    return float(mass @ rates) / LN2


def rate_curve(d: Distribution, snr_db_values) -> list[float]:
    """:func:`rate_bits` over an SNR ladder (signal power is 1)."""
    return [rate_bits(d, 10.0 ** (-float(snr_db) / 10.0))
            for snr_db in snr_db_values]


# ---------------------------------------------------------------------------
# the Monte-Carlo reference


@dataclass(frozen=True)
class ChannelSpec:
    """Complex AWGN channel; ``noise_power`` is the total variance sigma2."""

    noise_power: float

    def __post_init__(self):
        check_noise_power(self.noise_power)


@dataclass(frozen=True)
class MIEstimate:
    """Monte-Carlo mutual-information estimate, in bits per channel use."""

    mi_bits: float
    std_error: float


def gm_log_pdf(y, c: Constellation, d: Distribution,
               spec: ChannelSpec):
    """Log of the channel output density log sum_q p_q N_c(y; x_q, sigma2).

    Vectorized over ``y``; scalar in, scalar out.  Always finite: far-away
    outputs give a large negative value, never ``-inf`` or an overflow.
    """
    y_arr = np.asarray(y, dtype=complex)
    scalar = y_arr.ndim == 0
    y_flat = np.atleast_1d(y_arr).ravel()
    sigma2 = spec.noise_power
    p = np.asarray(d.per_point, dtype=float)
    live = p > 0
    if not np.any(live):
        raise ValueError("distribution has no support")
    x = c.points[live]
    # -|y - x_q|^2 / sigma2 = [Re y, Im y] @ gain + bias_q - |y|^2 / sigma2
    gain = (2.0 / sigma2) * np.stack([x.real, x.imag])
    bias = np.log(p[live]) - (x.real ** 2 + x.imag ** 2) / sigma2
    y_ri = y_flat.view(float).reshape(-1, 2)     # [Re y, Im y], no copy
    log_norm = np.log(np.pi * sigma2)
    out = np.empty(y_flat.size)
    rows = max(1, _CHUNK_ELEMS // x.size)
    # one table for every chunk: a fresh one per chunk measured 1.2 MB more
    # peak RSS on a 256-QAM shape run
    table = np.empty((min(rows, y_flat.size), x.size))
    for start in range(0, y_flat.size, rows):
        chunk = slice(start, start + rows)
        t = table[:min(rows, y_flat.size - start)]
        np.matmul(y_ri[chunk], gain, out=t)
        t += bias
        t_max = np.max(t, axis=1)
        t -= t_max[:, None]
        np.exp(t, out=t)                    # the max term is exactly 1
        out[chunk] = np.log(np.sum(t, axis=1)) + t_max
        y_c = y_flat[chunk]
        out[chunk] -= (y_c.real ** 2 + y_c.imag ** 2) / sigma2 + log_norm
    if scalar:
        return float(out[0])
    return out.reshape(y_arr.shape)


def awgn_outputs(c: Constellation, d: Distribution, rng: np.random.Generator,
                 n: int, noise_power: float) -> np.ndarray:
    """``n`` channel outputs ``y = x + noise``, ``x`` drawn from ``d``.

    The draws are ``d.draw(rng, n)``, then ``n`` real and ``n`` imaginary
    normals of standard deviation ``sqrt(noise_power / 2)``, the values
    ``rng.normal(scale=...)`` gives.  ``y`` is built in place from one
    reused buffer, bitwise ``x + (re + 1j * im)`` without its four
    full-length temporaries.
    """
    y = c.points[d.draw(rng, n)]
    sigma = np.sqrt(noise_power / 2.0)
    buf = np.empty(n)
    for part in (y.real, y.imag):
        rng.standard_normal(out=buf)
        buf *= sigma
        part += buf
    return y


def mutual_information(c: Constellation, d: Distribution, spec: ChannelSpec,
                       n_mc: int = 100_000, seed: int = 0) -> MIEstimate:
    """Estimate I(X; Y) in bits by Monte-Carlo over the mixture output.

    ``std_error`` is the sample standard error of the per-draw log terms,
    converted to bits.  The estimate is clipped at zero (pure estimator
    noise can otherwise push it slightly negative at very low SNR).
    """
    if n_mc < MIN_MI_SAMPLES:
        raise ValueError(f"n_mc must be >= {MIN_MI_SAMPLES} for a usable "
                         "standard error")
    rng = np.random.default_rng(seed)
    terms = gm_log_pdf(awgn_outputs(c, d, rng, n_mc, spec.noise_power),
                       c, d, spec)
    # I = h(Y) - log(pi e sigma2); h(Y) ~= mean(-log p(y_m))
    np.negative(terms, out=terms)
    terms -= np.log(np.pi * np.e * spec.noise_power)
    mi_nats = float(np.mean(terms))
    se_nats = float(np.std(terms, ddof=1) / np.sqrt(n_mc))
    return MIEstimate(mi_bits=max(0.0, mi_nats / LN2),
                      std_error=se_nats / LN2)
