"""Mutual information and achievable rate of shaped constellations on AWGN.

The channel is complex circular AWGN with total noise variance sigma2.  The
mutual information estimator is the standard Monte-Carlo one,

    I(X; Y) = h(Y) - h(Y | X),
    h(Y)   ~= -(1/M) sum_m log p(y_m),   y_m ~ p(y),
    h(Y|X) = log(pi * e * sigma2),

with the mixture density evaluated in log space throughout (a max-shifted
log-sum-exp), so nothing underflows even at very high SNR.  Internals are in
nats; everything reported is in bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, Distribution

LN2 = float(np.log(2.0))
MIN_MI_SAMPLES = 1000       # smallest n_mc with a usable standard error


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(a), axis)) of a real array, max-shifted.

    The m entries equal to the slice maximum are taken out of the sum,
    which is then ``log1p(s / m) + log(m) + max`` with ``s`` the sum of
    ``exp(a - max)`` over the rest (Blanchard, Higham & Higham, IMA J.
    Numer. Anal. 41(4), 2021).  A slice that is all ``-inf`` gives ``-inf``.
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
    """Elementwise ``log p``, ``-inf`` exactly where ``p`` is zero."""
    with np.errstate(divide="ignore"):
        return np.where(p > 0, np.log(np.maximum(p, 1e-300)), -np.inf)


@dataclass(frozen=True)
class ChannelSpec:
    """Complex AWGN channel; ``noise_power`` is the total variance sigma2."""

    noise_power: float

    def __post_init__(self):
        if not (self.noise_power > 0 and np.isfinite(self.noise_power)):
            raise ValueError("noise_power must be positive and finite")

    @property
    def snr_db(self) -> float:
        return float(-10.0 * np.log10(self.noise_power))


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
    if not np.any(p > 0):
        raise ValueError("distribution has no support")
    logp = log_probs(p)
    # terms (M, Q): log p_q - |y - x_q|^2 / sigma2
    out = np.empty(y_flat.size)
    chunk = max(1, int(2_000_000 // max(c.size, 1)))
    for start in range(0, y_flat.size, chunk):
        yk = y_flat[start:start + chunk]
        t = logp[None, :] - np.abs(yk[:, None] - c.points[None, :]) ** 2 / sigma2
        out[start:start + chunk] = logsumexp(t, axis=1)
    out -= np.log(np.pi * sigma2)
    if scalar:
        return float(out[0])
    return out.reshape(y_arr.shape)


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
    idx = d.draw(rng, n_mc)
    sigma = np.sqrt(spec.noise_power / 2.0)
    noise = rng.normal(scale=sigma, size=n_mc) \
        + 1j * rng.normal(scale=sigma, size=n_mc)
    y = c.points[idx] + noise
    log_mix = gm_log_pdf(y, c, d, spec)
    # I = h(Y) - log(pi e sigma2); h(Y) ~= mean(-log p(y_m))
    terms = -log_mix - np.log(np.pi * np.e * spec.noise_power)
    mi_nats = float(np.mean(terms))
    se_nats = float(np.std(terms, ddof=1) / np.sqrt(n_mc))
    return MIEstimate(mi_bits=max(0.0, mi_nats / LN2),
                      std_error=se_nats / LN2,
                      n_mc=n_mc, noise_power=spec.noise_power)


@dataclass(frozen=True)
class AirReport:
    """Achievable information rate of an L-subcarrier OFDM symbol."""

    bits_per_symbol: float
    per_subchannel: MIEstimate


def air_total(c: Constellation, d: Distribution, spec: ChannelSpec,
              n_subcarriers: int, n_mc: int = 100_000,
              seed: int = 0) -> AirReport:
    """Total rate: L times the per-subchannel mutual information."""
    if n_subcarriers < 1:
        raise ValueError("need at least one subcarrier")
    mi = mutual_information(c, d, spec, n_mc=n_mc, seed=seed)
    return AirReport(bits_per_symbol=n_subcarriers * mi.mi_bits,
                     per_subchannel=mi)


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
