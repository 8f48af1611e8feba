"""Ambiguity function of OFDM symbols carrying random data.

Closed-form moments (mean of the self term, variances of the self and
cross terms), the exact average surface E|AF|^2 built from them, and the
Monte-Carlo average of the kernel's quadratic form, its oracle.  Delays
are in units of the symbol duration T_p and Dopplers in units of the
subcarrier spacing, which orthogonal subcarriers make 1/T_p: so
T_p = spacing = 1, and the arguments are the CLI's normalized axes.

The delay-Doppler response of one OFDM symbol splits into a "self" part
(subcarrier paired with itself, carrying only symbol energies ``A**2``) and a
"cross" part (distinct subcarrier pairs).  With unit-power data the self-term
variance is ``T_diff**2 * sinc(nu*T_diff)**2 * L * (E[A**4] - 1)``, which is
why the fourth moment of the constellation drives sidelobe fluctuation.
For zero-mean i.i.d. data the two parts are uncorrelated, so

    E|AF|^2 = |E AF|^2 + var_self + var_cross

holds exactly; only the cross variance sees the pseudo-variance E[x^2],
which is nonzero for improper inputs such as BPSK.

All ``sinc`` factors follow the integral identity

    integral_{Tmin}^{Tmax} exp(j*2*pi*f*t) dt
        = T_diff * sinc(f*T_diff) * exp(j*2*pi*f*T_avg)

with ``sinc(x) = sin(pi*x)/(pi*x)`` (numpy's convention).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constellation import Constellation, Distribution, moment
from .seeds import trial_seed


@dataclass(frozen=True)
class OFDMConfig:
    """OFDM signal parameters: L subcarriers and N symbols.

    Symbol duration and subcarrier spacing are both 1, the units of every
    delay and Doppler in this module.
    """

    n_subcarriers: int
    n_symbols: int = 1

    def __post_init__(self):
        if self.n_subcarriers < 1:
            raise ValueError("need at least one subcarrier")
        if self.n_symbols < 1:
            raise ValueError("need at least one symbol")


@dataclass(frozen=True)
class AFGrid:
    """Sampled delay-Doppler surface.

    Delays are in units of the symbol duration, Dopplers in units of the
    subcarrier spacing.  ``values[i, j]`` belongs to
    ``(tau_axis[i], nu_axis[j])``, in dB.
    """

    tau_axis: np.ndarray
    nu_axis: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (len(self.tau_axis), len(self.nu_axis)):
            raise ValueError("values shape does not match the axes")


# ---------------------------------------------------------------------------
# sampling


def _draw_flat(c, d, cfg, n_mc, seed) -> np.ndarray:
    """(n_mc, N*L) symbol draws; trial m uses seed XOR m."""
    points = c.points
    nl = cfg.n_symbols * cfg.n_subcarriers
    out = np.empty((n_mc, nl), dtype=complex)
    for m in range(n_mc):
        rng = np.random.default_rng(trial_seed(seed, m))
        out[m] = points[d.draw(rng, nl)]
    return out


# ---------------------------------------------------------------------------
# the kernel quadratic form


def _window(tau: float, delta: int):
    """Overlap window of symbol n1 against symbol n2 = n1 + delta at lag tau.

    Returns (t_diff, t_avg); t_diff <= 0 means no overlap.
    """
    shift = tau + delta
    t_min = max(0.0, shift)
    t_max = min(1.0, 1.0 + shift)
    return t_max - t_min, 0.5 * (t_max + t_min)


def _kernel(cfg: OFDMConfig, tau: float, nu: float) -> np.ndarray:
    """(N*L, N*L) matrix K with AF(tau, nu) = sum_ij x_i conj(x_j) K_ij.

    Index i flattens (symbol n1, subcarrier l1) row-major; j likewise for
    (n2, l2).  Each (n1, n2) block integrates the window overlap of the two
    pulses and carries the subcarrier mixing phase.  The AF of one draw is
    this quadratic form; zero for |tau| >= N, where no window overlaps.
    """
    L, N = cfg.n_subcarriers, cfg.n_symbols
    l = np.arange(L)
    ldiff = l[:, None] - l[None, :]            # l1 - l2
    K = np.zeros((N * L, N * L), dtype=complex)
    for n1 in range(N):
        for n2 in range(N):
            delta = n2 - n1
            t_diff, t_avg = _window(tau, delta)
            if t_diff <= 0.0:
                continue
            f = ldiff - nu
            phase = f * t_avg + l[None, :] * (delta + tau) - n1 * nu
            block = t_diff * np.sinc(f * t_diff) \
                * np.exp(2j * np.pi * phase)
            K[n1 * L:(n1 + 1) * L, n2 * L:(n2 + 1) * L] = block
    return K


def _grid_axes(tau_axis, nu_axis) -> tuple[np.ndarray, np.ndarray]:
    tau_axis = np.asarray(tau_axis, dtype=float)
    nu_axis = np.asarray(nu_axis, dtype=float)
    if tau_axis.size == 0 or nu_axis.size == 0:
        raise ValueError("grid axes must be nonempty")
    return tau_axis, nu_axis


def _db_grid(tau_axis, nu_axis, mean_pow: np.ndarray,
             normalize: bool) -> AFGrid:
    """AFGrid in dB of a linear power surface, peak at 0 dB if ``normalize``."""
    if normalize:
        peak = mean_pow.max()
        if peak <= 0:
            raise ValueError("grid contains no energy; cannot normalize")
        mean_pow = mean_pow / peak
    with np.errstate(divide="ignore"):
        db = 10.0 * np.log10(mean_pow)
    return AFGrid(tau_axis=tau_axis, nu_axis=nu_axis, values=db)


def average_af(c: Constellation, d: Distribution, cfg: OFDMConfig,
               tau_axis, nu_axis, n_mc: int, seed: int,
               normalize: bool = True) -> AFGrid:
    """Monte-Carlo mean squared-magnitude AF over the data distribution, in dB.

    One set of n_mc symbol draws is shared across the whole grid; trial m
    is seeded with ``seed XOR m``.  With ``normalize`` the surface peak is
    shifted to 0 dB.  The oracle of :func:`exact_af`, which gives the same
    surface without sampling error; no command runs it.
    """
    tau_axis, nu_axis = _grid_axes(tau_axis, nu_axis)
    if n_mc < 1:
        raise ValueError("n_mc must be >= 1")
    X = _draw_flat(c, d, cfg, n_mc, seed)
    Xc = np.conj(X)
    mean_pow = np.zeros((tau_axis.size, nu_axis.size))
    for i, tau in enumerate(tau_axis):
        if abs(tau) >= cfg.n_symbols:
            continue
        for j, nu in enumerate(nu_axis):
            K = _kernel(cfg, tau, nu)
            lam = np.sum(X * (Xc @ K.T), axis=1)
            mean_pow[i, j] = float(np.mean(np.abs(lam) ** 2))
    return _db_grid(tau_axis, nu_axis, mean_pow, normalize)


# ---------------------------------------------------------------------------
# closed-form moments


@dataclass(frozen=True)
class AFMoments:
    """Closed-form AF statistics at one (tau, nu).

    ``mean_self``: expectation of the AF (only the self term survives).
    ``var_self`` / ``var_cross``: single-symbol variances of the two parts.
    ``var_self_train`` / ``var_cross_train``: N-symbol-train counterparts
    (self variance scales exactly by N; the cross part gains inter-symbol
    overlap terms).
    """

    mean_self: complex
    var_self: float
    var_cross: float
    var_self_train: float
    var_cross_train: float

    @property
    def mean_power(self) -> float:
        """E|AF|^2 of the N-symbol train: squared mean plus both variances."""
        return (abs(self.mean_self) ** 2 + self.var_self_train
                + self.var_cross_train)


def _pair_sincs(L: int, nu: float,
                t_diff: float) -> tuple[np.ndarray, np.ndarray]:
    """Pair counts and sincs over the subcarrier differences d = l1 - l2.

    There are L - |d| ordered pairs at each d in [-(L-1), L-1]; the sinc is
    sinc((d - nu) * t_diff).  Reversing either array maps d to -d.
    """
    d = np.arange(-(L - 1), L)
    return L - np.abs(d), np.sinc((d - nu) * t_diff)


def analytic_moments(c: Constellation, d: Distribution, cfg: OFDMConfig,
                     tau: float, nu: float) -> AFMoments:
    """Exact mean and variances of the AF at (tau, nu).

    Holds for any zero-mean i.i.d. data of unit power.  The self-term
    variance depends on the distribution through the fourth moment E[A^4].
    The cross-term variance is sum_{i!=j} |K_ij|^2 plus
    |E[x^2]|^2 * sum_{i!=j} K_ij conj(K_ji), with K the kernel of
    :func:`_kernel`: it is the same for every proper input (QAM, PSK of
    order >= 3, any ring-symmetric shaping) and differs for improper ones
    such as BPSK, where it doubles at zero Doppler.  The pseudo-variance sum pairs a block with its
    transpose, whose window is empty unless the two symbols coincide, so
    it only has within-symbol terms and scales by N over a train.
    """
    if not (np.isfinite(tau) and np.isfinite(nu)):
        raise ValueError("tau and nu must be finite")
    L, N = cfg.n_subcarriers, cfg.n_symbols
    m4 = moment(c, d, 4)
    pseudo = abs(np.dot(d.per_point, c.points ** 2)) ** 2

    t_diff, t_avg = _window(tau, 0)
    if t_diff <= 0.0:
        mean_self = 0.0 + 0.0j
        var_self = 0.0
        var_cross = 0.0
    else:
        l = np.arange(L)
        comb = np.sum(np.exp(2j * np.pi * l * tau))
        train = np.sum(np.exp(-2j * np.pi * np.arange(N) * nu))
        mean_self = (t_diff * np.sinc(nu * t_diff)
                     * np.exp(-2j * np.pi * nu * t_avg) * comb * train)
        var_self = t_diff ** 2 * np.sinc(nu * t_diff) ** 2 * L * (m4 - 1.0)
        counts, s = _pair_sincs(L, nu, t_diff)
        counts[L - 1] = 0                        # d = 0 is the self term
        # K_ji carries the sinc at -d and, since spacing * T_p = 1, the same
        # phase
        var_cross = t_diff ** 2 * float(np.sum(counts * s ** 2)
                                        + pseudo * np.sum(counts * s * s[::-1]))

    var_cross_train = N * var_cross
    for delta in range(-(N - 1), N):
        if delta == 0:
            continue
        td, _ = _window(tau, delta)
        if td <= 0.0:
            continue
        # (N - |delta|) symbol pairs share this overlap geometry
        counts, s = _pair_sincs(L, nu, td)
        var_cross_train += (N - abs(delta)) * td ** 2 * float(
            np.sum(counts * s ** 2))

    return AFMoments(mean_self=complex(mean_self),
                     var_self=float(var_self),
                     var_cross=float(var_cross),
                     var_self_train=float(N * var_self),
                     var_cross_train=float(var_cross_train))


def exact_af(c: Constellation, d: Distribution, cfg: OFDMConfig,
             tau_axis, nu_axis,
             normalize: bool = True) -> tuple[AFGrid, list[list[AFMoments]]]:
    """Exact mean squared-magnitude AF over the data distribution, in dB.

    Each cell is :attr:`AFMoments.mean_power` of :func:`analytic_moments`;
    the moments come back too, ``moments[i][j]`` for
    ``(tau_axis[i], nu_axis[j])``.  It is :func:`average_af`'s Monte-Carlo
    surface without sampling error.  No draws, so no seed.
    """
    tau_axis, nu_axis = _grid_axes(tau_axis, nu_axis)
    moments = [[analytic_moments(c, d, cfg, float(tau), float(nu))
                for nu in nu_axis] for tau in tau_axis]
    mean_pow = np.array([[m.mean_power for m in row] for row in moments])
    return _db_grid(tau_axis, nu_axis, mean_pow, normalize), moments
