"""Mutual information and achievable rate of shaped constellations on AWGN.

The channel is complex circular AWGN with total noise variance sigma2.  The
mutual information estimator is the standard Monte-Carlo one,

    I(X; Y) = h(Y) - h(Y | X),
    h(Y)   ~= -(1/M) sum_m log p(y_m),   y_m ~ p(y),
    h(Y|X) = log(pi * e * sigma2),

with the mixture density evaluated in log space throughout, so nothing
underflows even at very high SNR.  Internals are in nats; everything
reported is in bits.

``gm_log_pdf`` evaluates log p(y) = log sum_q p_q N_c(y; x_q, sigma2) with
the distance expanded, |y - x|^2 = |y|^2 - 2 Re(y conj x) + |x|^2.  The
|y|^2 / sigma2 term does not depend on q and is subtracted once per sample;
the rest is one real (m, 2) @ (2, Q) product per chunk of m samples plus a
per-point bias log p_q - |x_q|^2 / sigma2, reduced by a max-shifted sum.
Zero-mass points are dropped first.  Chunks hold at most ``_CHUNK_ELEMS``
table entries, so a call's temporaries stay cache-sized whatever the number
of samples or points, and each chunk's slice of the result is finished in
place.  ``awgn_outputs`` builds the channel outputs in place too, from one
reused noise buffer; its draws are bitwise those of ``x + (re + 1j * im)``.
An estimate then holds the outputs, its log terms and one table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, Distribution

LN2 = float(np.log(2.0))
MIN_MI_SAMPLES = 1000       # smallest n_mc with a usable standard error
_CHUNK_ELEMS = 65_536       # gm_log_pdf's (samples, points) table: 512 KB


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a), axis)) of a real array, max-shifted.

    The m entries equal to the slice maximum are taken out of the sum,
    which is then ``log1p(s / m) + log(m) + max`` with ``s`` the sum of
    ``exp(a - max)`` over the rest (Blanchard, Higham & Higham, IMA J.
    Numer. Anal. 41(4), 2021).  A slice that is all ``-inf`` gives ``-inf``.
    It is bitwise equal to scipy's; the shaper's ring tables (``shaping_ba``)
    go through it, ``gm_log_pdf`` does not need the tie count.
    """
    a_max = np.max(a, axis=axis, keepdims=True)
    at_max = a == a_max
    with np.errstate(invalid="ignore"):     # -inf - -inf in all-dead slices
        e = np.exp(a - a_max)
    e[at_max] = 0.0
    m = np.count_nonzero(at_max, axis=axis)
    s = np.sum(e, axis=axis)
    return np.log1p(s / m) + np.log(m) + np.squeeze(a_max, axis=axis)


def log_probs(p: np.ndarray) -> np.ndarray:
    """Elementwise ``log p``, ``-inf`` exactly where ``p`` is zero.

    Only positive entries reach ``np.log``, so a subnormal p gets its own
    log (5e-324 gives -744.4) and a zero raises no warning.
    """
    p = np.asarray(p, dtype=float)
    return np.log(p, out=np.full(p.shape, -np.inf), where=p > 0)


@dataclass(frozen=True)
class ChannelSpec:
    """Complex AWGN channel; ``noise_power`` is the total variance sigma2."""

    noise_power: float

    def __post_init__(self):
        if not (self.noise_power > 0 and np.isfinite(self.noise_power)):
            raise ValueError("noise_power must be positive and finite")


@dataclass(frozen=True)
class MIEstimate:
    """Monte-Carlo mutual-information estimate, in bits per channel use."""

    mi_bits: float
    std_error: float
    n_mc: int
    noise_power: float


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
                      std_error=se_nats / LN2,
                      n_mc=n_mc, noise_power=spec.noise_power)


def rate_curve(c: Constellation, d: Distribution, snr_db_values,
               n_mc: int = 100_000, seed: int = 0) -> list[MIEstimate]:
    """MI estimates over an SNR ladder (signal power is 1 by construction)."""
    out = []
    for k, snr_db in enumerate(snr_db_values):
        spec = ChannelSpec(noise_power=10.0 ** (-float(snr_db) / 10.0))
        out.append(mutual_information(c, d, spec, n_mc=n_mc, seed=seed + k))
    return out


def rate_curve_csv(path, snr_db_values, estimates) -> None:
    """Write ``snr_db,mi_bits,std_err`` rows, 9 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write("snr_db,mi_bits,std_err\n")
        for snr_db, est in zip(snr_db_values, estimates):
            fh.write(f"{snr_db:.9g},{est.mi_bits:.9g},{est.std_error:.9g}\n")
