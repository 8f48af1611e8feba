"""Weak-target detection next to a strong self-interferer.

Single-symbol, zero-Doppler sensing chain: one OFDM symbol is drawn from the
configured constellation/distribution, the receiver sees the self-interference
echo (delay cell 0), the target echo (cell 8 by default), and white noise, and
forms the matched-filter range profile

    z_k = sum_l Y_l conj(X_l) exp(+2j pi l k / L),   profile = |z|^2.

Power conventions (both relative to the unit-variance per-subcarrier noise):

* target SNR is measured *after* the matched filter, per range cell — the
  per-cell noise floor is L, the expected peak power |a|^2 L^2, so the echo
  amplitude is sqrt(snr / L);
* SI-to-noise ratio is measured *before* the matched filter, per subcarrier
  (it models raw leakage at the receiver input), so the SI amplitude is
  sqrt(si) directly.  After matched filtering the SI peak sits si*L above
  the per-cell floor, and — for non-constant-modulus constellations — leaks
  a pedestal of si * L * (E[A^4] - 1) into every other cell, which is what
  degrades weak-target detection for shaped/unshaped QAM.

Detection uses a smallest-of CFAR: each cell is compared against
alpha * min(leading-window mean, lagging-window mean), guard cells skipped,
edge cells falling back to whichever window is available.  alpha is
calibrated empirically on noise-only profiles; the ratio statistic is
scale-free, so the calibration transfers across noise levels.

Every Monte-Carlo loop here holds one block of ``_BLOCK_ROWS`` profiles at a
time.  Detection trials each draw from their own generator, so P_d is the
same at any block size.  Calibration draws its noise-only rows from one
stream, block by block (symbol indices, real noise, imaginary noise), so
alpha's bytes are tied to the block size: a new block size moves alpha
within Monte-Carlo error, and with it every P_d value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .ambiguity import OFDMConfig
from .constellation import Constellation, Distribution
from .seeds import derive_seed, trial_seed

WILSON_Z95 = 1.959963984540054
MIN_CAL_FACTOR = 10.0          # required noise-only cells: 10 / P_fa
DEFAULT_CAL_FACTOR = 100.0     # default calibration size: 100 / P_fa
_BLOCK_ROWS = 256           # rows per block of drawn profiles


@dataclass(frozen=True)
class DetectionScenario:
    """One sensing experiment: constellation, geometry, CFAR window."""

    constellation: Constellation
    distribution: Distribution
    cfg: OFDMConfig
    snr_db: float = 10.0
    target_cell: int = 8
    si_cell: int = 0
    si_to_noise_db: float = 10.0
    p_fa: float = 1e-4
    n_trials: int = 5000
    ref_cells: int = 16
    guard_cells: int = 2

    def __post_init__(self):
        length = self.cfg.n_subcarriers
        if self.target_cell == self.si_cell:
            raise ValueError("target and self-interference cells coincide")
        if not 0 <= self.target_cell < length or not 0 <= self.si_cell < length:
            raise ValueError("range cells outside the profile")
        if not 0.0 < self.p_fa < 1.0:
            raise ValueError("p_fa must lie in (0, 1)")
        if self.ref_cells < 1 or self.guard_cells < 0:
            raise ValueError("need >= 1 reference cell and >= 0 guard cells")
        if 2 * (self.ref_cells + self.guard_cells) > length:
            raise ValueError("CFAR window larger than the range profile: "
                             "every cell needs one complete reference side")
        if self.n_trials < 1:
            raise ValueError("n_trials must be positive")


def _draw_trials(sc: DetectionScenario,
                 seeds) -> tuple[np.ndarray, np.ndarray]:
    """Symbols and received rows ``(x, y)``, one row per generator seed.

    Row i draws from its own ``default_rng(seeds[i])`` in a fixed order: the
    symbol uniforms, the SI phase (if SI is on), the target phase (if the
    target is on), the real noise, then the imaginary noise.  So a row is
    the same however the seeds are batched.  The loop only fills
    preallocated rows; the symbol lookup, the noise scaling and everything
    after run once on whole (rows, L) arrays.  ``random()`` is bitwise
    ``uniform()``, and scaling the standard normals afterwards is bitwise
    ``normal(scale=...)`` once added to ``y``.
    """
    length = sc.cfg.n_subcarriers
    rows = len(seeds)
    si_lin = 10.0 ** (sc.si_to_noise_db / 10.0)
    snr_lin = 10.0 ** (sc.snr_db / 10.0)
    u = np.empty((rows, length))
    si_u = np.empty(rows)
    tg_u = np.empty(rows)
    noise_re = np.empty((rows, length))
    noise_im = np.empty((rows, length))
    for i, s in enumerate(seeds):
        rng = np.random.default_rng(s)
        rng.random(out=u[i])
        if si_lin > 0.0:
            si_u[i] = rng.random()
        if snr_lin > 0.0:
            tg_u[i] = rng.random()
        rng.standard_normal(out=noise_re[i])
        rng.standard_normal(out=noise_im[i])

    x = sc.constellation.points[sc.distribution.inverse_cdf(u)]
    l_idx = np.arange(length)
    y = np.zeros((rows, length), dtype=complex)
    if si_lin > 0.0:
        phase = np.exp(2j * np.pi * si_u)
        y += (np.sqrt(si_lin) * phase)[:, None] * x * np.exp(
            -2j * np.pi * l_idx * sc.si_cell / length)
    if snr_lin > 0.0:
        phase = np.exp(2j * np.pi * tg_u)
        y += (np.sqrt(snr_lin / length) * phase)[:, None] * x * np.exp(
            -2j * np.pi * l_idx * sc.target_cell / length)
    scale = np.sqrt(0.5)
    noise_re *= scale
    noise_im *= scale
    y += noise_re + 1j * noise_im
    return x, y


def _profiles(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Matched-filter powers ``|L * ifft(conj(x) * y)|^2``, row by row.

    Complex products round differently with their operands swapped, so the
    order is fixed: ``conj(x) * y``, formed in place in the ``conj``
    temporary, at every batch size.  A row's power therefore does not
    depend on the batch it runs in.
    """
    prod = np.conj(x)
    np.multiply(prod, y, out=prod)
    z = x.shape[1] * np.fft.ifft(prod, axis=1)
    return np.abs(z) ** 2


# ---------------------------------------------------------------------------
# SO-CFAR


def _window_sums(a: np.ndarray, n: int) -> np.ndarray:
    """``a[k] + ... + a[k + n - 1]`` for every complete window of 1-D ``a``.

    Each window is added in numpy's pairwise order for n contiguous values,
    so the sums are bitwise what ``np.add.reduce`` gives over a sliding
    window view, but every step is one shifted-slice add over all windows:

    * n < 8: left to right;
    * 8 <= n <= 128: eight running sums q[k] = a[k] + a[k+8] + ... over
      the first n - n % 8 values, then ((q0 + q1) + (q2 + q3)) +
      ((q4 + q5) + (q6 + q7)) as t = q[k] + q[k+1], u = t[k] + t[k+2],
      s = u[k] + u[k+4], then the n % 8 leftovers left to right;
    * n > 128: the two halves split at n2 = n//2 - (n//2) % 8, each summed
      by these rules, then added.

    Two buffers are reused for the steps, since freshly mapped temporaries
    of this size cost more in page faults than the adds themselves.
    """
    width = a.size - n + 1
    if n < 8:
        total = a[:width].copy()
        for i in range(1, n):
            total += a[i:i + width]
        return total
    if n > 128:
        n2 = n // 2 - (n // 2) % 8
        return _window_sums(a, n2)[:width] + _window_sums(a[n2:], n - n2)
    full = n - n % 8
    wq = width + 7
    one, two = np.empty(wq), np.empty(wq)
    q = a[:wq] if full == 8 else np.add(a[:wq], a[8:8 + wq], out=one)
    for i in range(16, full, 8):
        q += a[i:i + wq]
    t = np.add(q[:-1], q[1:], out=two[:-1])
    u = np.add(t[:-2], t[2:], out=one[:-3])
    total = np.add(u[:-4], u[4:], out=two[:width])
    for i in range(full, n):
        total += a[i:i + width]
    return total


def _side_means(profiles: np.ndarray, ref: int, guard: int) -> np.ndarray:
    """min(leading mean, lagging mean) per cell; rows are profiles.

    Only complete reference windows count: a window that sticks out of the
    profile picks up NaN padding, its sum goes NaN, and ``fmin`` falls back
    to the other (complete) side.  Partial windows would let a lone edge
    cell act as a one-sample noise estimate and blow up the false-alarm
    tail.  The padded rows are laid end to end and one pass of
    :func:`_window_sums` sums every window; cell k leads with window k and
    lags with window k + ref + 2*guard + 1 of its row (windows that run
    into the next row are never read).  The smaller sum is divided by
    ``ref``, which is bitwise the smaller of the two ``np.mean`` values.
    """
    rows, length = profiles.shape
    pad = ref + guard
    width = length + 2 * pad
    flat = np.full(rows * width + ref - 1, np.nan)
    flat[:rows * width].reshape(rows, width)[:, pad:pad + length] = profiles
    sums = _window_sums(flat, ref).reshape(rows, width)
    lag = ref + 2 * guard + 1
    return np.fmin(sums[:, :length], sums[:, lag:lag + length]) / ref


def _noise_only_ratios(sc: DetectionScenario, n_rows: int,
                       rng: np.random.Generator):
    """Noise-only profile/statistic ratios, yielded one block of rows at a time.

    Each block of ``_BLOCK_ROWS`` rows draws its symbol indices, then the
    real noise, then the imaginary noise, and forms its profiles and ratios
    before the next block draws, so one block of draws is all that is held.
    The stream of ``rng`` is consumed block by block, so the ratios (and
    alpha) depend on ``_BLOCK_ROWS``; a row's profile does not depend on the
    other rows of its block (see :func:`_profiles`).  No target or
    self-interference enters, so ``sc.snr_db`` and ``sc.si_to_noise_db``
    are not read.
    """
    length = sc.cfg.n_subcarriers
    points = sc.constellation.points
    scale = np.sqrt(0.5)
    for start in range(0, n_rows, _BLOCK_ROWS):
        rows = min(_BLOCK_ROWS, n_rows - start)
        idx = sc.distribution.draw(rng, (rows, length))
        noise_re = rng.normal(scale=scale, size=(rows, length))
        noise_im = rng.normal(scale=scale, size=(rows, length))
        power = _profiles(points[idx], noise_re + 1j * noise_im)
        stat = _side_means(power, sc.ref_cells, sc.guard_cells)
        yield (power / stat).ravel()


def _upper_quantile(blocks, n: int, q: float) -> float:
    """``np.quantile(all blocks, q)`` (linear rule) from the top few values.

    The linear rule reads the order statistics at ``lo = floor(v)`` and
    ``lo + 1`` of the n values, v = (n - 1) * q < n - 1, so only the n - lo
    largest matter.  They are kept in a running set: a block enters it through
    ``np.partition`` once it holds values above the set's minimum.  The two
    order statistics are then interpolated as numpy does, a + (b - a) * t,
    or b - (b - a) * (1 - t) when t >= 0.5, so the result is bitwise
    numpy's.
    """
    v = (n - 1) * q
    lo = math.floor(v)
    keep = n - lo
    top = np.empty(0)
    for block in blocks:
        if top.size == keep:
            block = block[block > top[0]]
            if block.size == 0:
                continue
        top = np.concatenate((top, block))
        if top.size >= keep:                     # top[0] is the set minimum
            top = np.partition(top, top.size - keep)[top.size - keep:]
    a, b = np.partition(top, 1)[:2]
    t = v - lo
    diff = b - a
    return float(b - diff * (1.0 - t) if t >= 0.5 else a + diff * t)


def calibrate_so_cfar(sc: DetectionScenario, n_cal: int | None = None,
                      seed: int = 0) -> float:
    """Empirical threshold factor alpha hitting the configured P_fa.

    ``n_cal`` counts noise-only cell evaluations (default 100/P_fa, at least
    10/P_fa required); alpha is the (1 - P_fa) quantile of the cell-power /
    smallest-of-statistic ratio, which is distribution- and noise-level-free
    up to the weak cell coupling induced by the random symbol power.  The
    rows are drawn and reduced one ``_BLOCK_ROWS`` block at a time (see
    :func:`_noise_only_ratios` for the draw order, which fixes alpha's
    bytes), and only the largest ~P_fa * n_cal ratios are kept while the
    rest stream past; alpha is bitwise ``np.quantile`` over all of them.
    """
    if n_cal is None:
        n_cal = int(np.ceil(DEFAULT_CAL_FACTOR / sc.p_fa))
    if n_cal < MIN_CAL_FACTOR / sc.p_fa:
        raise ValueError(
            f"insufficient calibration samples: need >= {MIN_CAL_FACTOR / sc.p_fa:.0f} "
            f"noise-only cells for P_fa={sc.p_fa}, got {n_cal}")
    length = sc.cfg.n_subcarriers
    n_rows = int(np.ceil(n_cal / length))
    rng = np.random.default_rng(derive_seed(seed, "cfar-calibration"))
    return _upper_quantile(_noise_only_ratios(sc, n_rows, rng),
                           n_rows * length, 1.0 - sc.p_fa)


# ---------------------------------------------------------------------------
# detection-probability curves


def wilson_interval(hits: int, n: int, z: float = WILSON_Z95):
    """Wilson score interval for a binomial proportion."""
    p_hat = hits / n
    denom = 1.0 + z * z / n
    center = (p_hat + z * z / (2 * n)) / denom
    half = z * np.sqrt(p_hat * (1.0 - p_hat) / n + z * z / (4 * n * n)) / denom
    # the score bounds are exactly 0/1 at the extremes; keep them free of
    # rounding residue so the interval always brackets hits/n
    lo = 0.0 if hits == 0 else max(0.0, center - half)
    hi = 1.0 if hits == n else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class PdCurve:
    snr_db: np.ndarray
    pd: np.ndarray
    ci_lo: np.ndarray
    ci_hi: np.ndarray
    alpha: float
    n_trials: int


def detection_probability(sc: DetectionScenario, alpha: float,
                          seed: int = 0) -> tuple[float, float, float]:
    """P_d with Wilson bounds at the scenario's own SNR, n_trials trials.

    Trial t draws from ``default_rng(trial_seed(seed, t))``; the trials run
    in blocks of ``_BLOCK_ROWS`` rows, and since a row depends only on its
    own trial seed, P_d does not depend on the block size.
    """
    cell = sc.target_cell
    hits = 0
    for start in range(0, sc.n_trials, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, sc.n_trials)
        power = _profiles(*_draw_trials(
            sc, [trial_seed(seed, t) for t in range(start, stop)]))
        stat = _side_means(power, sc.ref_cells, sc.guard_cells)
        hits += int(np.count_nonzero(power[:, cell] > alpha * stat[:, cell]))
    lo, hi = wilson_interval(hits, sc.n_trials)
    return hits / sc.n_trials, lo, hi


def pd_curve(sc: DetectionScenario, snr_db_values, seed: int = 0) -> PdCurve:
    """Detection probability versus sensing SNR.

    Calibrates alpha from the same master seed; each curve point runs
    ``sc.n_trials`` independent trials under per-trial seeds derived from
    (seed, point index, trial index), so the curve is bit-exact
    reproducible and trivially parallelizable.
    """
    snrs = np.asarray(snr_db_values, dtype=float)
    if snrs.size == 0:
        raise ValueError("need at least one SNR point")
    alpha = calibrate_so_cfar(sc, seed=seed)
    pd = np.empty(snrs.size)
    lo = np.empty(snrs.size)
    hi = np.empty(snrs.size)
    for i, snr in enumerate(snrs):
        point_seed = derive_seed(seed, f"pd-point-{i}")
        p, l, h = detection_probability(replace(sc, snr_db=float(snr)),
                                        alpha, seed=point_seed)
        pd[i], lo[i], hi[i] = p, l, h
    return PdCurve(snr_db=snrs, pd=pd, ci_lo=lo, ci_hi=hi,
                   alpha=float(alpha), n_trials=sc.n_trials)
