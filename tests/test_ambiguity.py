"""Delay-Doppler response against independent integration oracles.

Two oracles pin the same definition

    AF(tau, nu) = integral s(t) * conj(s(t - tau)) * exp(-2j*pi*nu*t) dt,
    s(t) = sum_{n,l} x[n,l] * exp(2j*pi*l*(t - n)) on [n, n + 1)   (T_p = 1)

by different routes: ``oracle_closed`` evaluates the antiderivative of every
(subcarrier, subcarrier) pair on explicitly intersected windows (no sinc
identity, no midpoint phase), and ``oracle_simpson`` integrates the sampled
waveform numerically between breakpoints.  Agreement of both with
``oracles.kernel_af`` checks the kernel's windows, phases, and sinc algebra.
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy.integrate import simpson

from ofdmpcs import (
    Constellation,
    Distribution,
    OFDMConfig,
    analytic_moments,
    exact_af,
    make_constellation,
    trial_seed,
)
from ofdmpcs.ambiguity import _draw_flat, _kernel, average_af
from ofdmpcs.constellation import moment
from oracles import af_realizations, kernel_af, kernel_af_split


def oracle_closed(x: np.ndarray, cfg: OFDMConfig, tau: float, nu: float) -> complex:
    L, N = cfg.n_subcarriers, cfg.n_symbols
    x = np.asarray(x).reshape(N, L)
    total = 0.0 + 0.0j
    for n1 in range(N):
        for n2 in range(N):
            a = max(n1, n2 + tau)
            b = min(n1 + 1, n2 + 1 + tau)
            if b <= a:
                continue
            for l1 in range(L):
                for l2 in range(L):
                    f = (l1 - l2) - nu
                    const = np.exp(2j * np.pi * (l2 * (tau + n2) - l1 * n1))
                    if abs(f) < 1e-14:
                        integral = b - a
                    else:
                        integral = (np.exp(2j * np.pi * f * b) - np.exp(2j * np.pi * f * a)) / (
                            2j * np.pi * f
                        )
                    total += x[n1, l1] * np.conj(x[n2, l2]) * const * integral
    return total


def waveform(x: np.ndarray, cfg: OFDMConfig, n: int, t: np.ndarray) -> np.ndarray:
    """Smooth branch of s on symbol n, evaluated at absolute times t."""
    l = np.arange(cfg.n_subcarriers)
    ph = np.exp(2j * np.pi * l[:, None] * (t[None, :] - n))
    return x[n] @ ph


def oracle_simpson(x: np.ndarray, cfg: OFDMConfig, tau: float, nu: float,
                   nodes: int = 4097) -> complex:
    L, N = cfg.n_subcarriers, cfg.n_symbols
    x = np.asarray(x).reshape(N, L)
    lo, hi = max(0.0, tau), min(N, N + tau)
    if hi <= lo:
        return 0.0 + 0.0j
    brk = set(range(N + 1)) | {k + tau for k in range(N + 1)}
    brk = np.unique([p for p in brk if lo - 1e-12 <= p <= hi + 1e-12])
    total = 0.0 + 0.0j
    for a, b in zip(brk[:-1], brk[1:]):
        if b - a < 1e-12:
            continue
        mid = 0.5 * (a + b)
        n1 = min(max(int(np.floor(mid)), 0), N - 1)
        n2 = min(max(int(np.floor(mid - tau)), 0), N - 1)
        t = np.linspace(a, b, nodes)
        integrand = (waveform(x, cfg, n1, t) * np.conj(waveform(x, cfg, n2, t - tau))
                     * np.exp(-2j * np.pi * nu * t))
        total += simpson(integrand, x=t)
    return total


def _random_symbols(c, cfg, seed):
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, c.order, size=(cfg.n_symbols, cfg.n_subcarriers))
    return c.points[idx]


class TestExactValues:
    @pytest.mark.parametrize("tau,nu", [
        (0.0, 0.0), (0.37, 0.0), (-0.52, 0.0), (0.0, 0.81), (0.23, 1.47),
        (-0.61, -0.33), (0.125, 0.5), (0.999, 2.0),
    ])
    def test_single_symbol_matches_antiderivative(self, tau, nu):
        c = make_constellation("qam", 16)
        cfg = OFDMConfig(n_subcarriers=4)
        x = _random_symbols(c, cfg, 7)
        got = kernel_af(x, cfg, tau, nu)
        want = oracle_closed(x, cfg, tau, nu)
        assert got == pytest.approx(want, abs=1e-10)

    @pytest.mark.parametrize("tau,nu", [
        (0.0, 0.0), (0.4, 0.25), (1.3, 0.0), (-1.7, 0.6), (0.85, -1.2),
    ])
    def test_symbol_train_matches_antiderivative(self, tau, nu):
        c = make_constellation("qam", 16)
        cfg = OFDMConfig(n_subcarriers=3, n_symbols=3)
        x = _random_symbols(c, cfg, 11)
        got = kernel_af(x, cfg, tau, nu)
        want = oracle_closed(x, cfg, tau, nu)
        assert got == pytest.approx(want, abs=1e-10)

    def test_quadrature_oracle_agrees(self):
        # belt and braces: numeric integration of the sampled waveform
        c = make_constellation("qam", 16)
        cfg = OFDMConfig(n_subcarriers=4, n_symbols=2)
        x = _random_symbols(c, cfg, 19)
        for tau, nu in [(0.3, 0.7), (-0.45, 0.2)]:
            got = kernel_af(x, cfg, tau, nu)
            want = oracle_simpson(x, cfg, tau, nu)
            assert got == pytest.approx(want, abs=5e-7)

    def test_zero_lag_peak_is_signal_energy(self):
        cfg = OFDMConfig(n_subcarriers=16, n_symbols=2)
        x = np.ones((2, 16), dtype=complex)
        assert kernel_af(x, cfg, 0.0, 0.0) == pytest.approx(32.0, abs=1e-12)

    def test_zero_outside_support(self):
        cfg = OFDMConfig(n_subcarriers=4, n_symbols=2)
        x = np.ones((2, 4), dtype=complex)
        assert kernel_af(x, cfg, 2.0, 0.3) == 0.0
        assert kernel_af(x, cfg, -2.5, 0.0) == 0.0

    def test_wrong_row_length_rejected(self):
        cfg = OFDMConfig(n_subcarriers=8)
        with pytest.raises(ValueError):
            kernel_af(np.ones(4), cfg, 0.0, 0.0)


class TestComponents:
    def test_split_sums_to_total(self):
        c = make_constellation("qam", 64)
        cfg = OFDMConfig(n_subcarriers=8, n_symbols=2)
        x = _random_symbols(c, cfg, 23)
        s, v = kernel_af_split(x, cfg, 0.2, 0.6)
        assert s + v == pytest.approx(kernel_af(x, cfg, 0.2, 0.6), abs=1e-10)

    def test_cross_term_vanishes_at_origin(self):
        # orthogonal subcarriers: every off-diagonal pair integrates to zero
        c = make_constellation("qam", 16)
        cfg = OFDMConfig(n_subcarriers=8)
        x = _random_symbols(c, cfg, 29)
        s, v = kernel_af_split(x, cfg, 0.0, 0.0)
        assert abs(v) < 1e-10
        assert s == pytest.approx(np.sum(np.abs(x) ** 2), abs=1e-10)


class TestSampling:
    def test_draws_deterministic(self, qam16, uniform16, ofdm8):
        a = _draw_flat(qam16, uniform16, ofdm8, 3, seed=42)
        b = _draw_flat(qam16, uniform16, ofdm8, 3, seed=42)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (3, 8)

    def test_af_samples_rows_match_per_draw_evaluation(self, qam16, uniform16):
        cfg = OFDMConfig(n_subcarriers=4, n_symbols=2)
        vals = af_realizations(qam16, uniform16, cfg, 0.3, 0.2, n_mc=5,
                               seed=99)
        p = uniform16.per_point
        for m in range(5):
            rng = np.random.default_rng(trial_seed(99, m))
            x = qam16.points[rng.choice(16, size=8, p=p)]
            assert vals[m] == pytest.approx(kernel_af(x, cfg, 0.3, 0.2), abs=1e-10)

    def test_shaped_distribution_respected(self, qam16):
        d = Distribution.from_ring_mass(qam16, [0.0, 1.0, 0.0])
        cfg = OFDMConfig(n_subcarriers=8)
        x = _draw_flat(qam16, d, cfg, 4, seed=1)
        np.testing.assert_allclose(np.abs(x), 1.0, atol=1e-12)


class TestAnalyticMoments:
    def test_frozen_self_variance_at_origin(self, uniform16):
        # T_diff = 1, sinc(0) = 1: var = L * (E[A^4] - 1) = 64 * 0.32
        mom = analytic_moments(uniform16, OFDMConfig(64), 0.0, 0.0)
        assert mom.var_self == pytest.approx(20.48, abs=1e-12)
        assert mom.var_cross == pytest.approx(0.0, abs=1e-12)
        assert mom.mean_self == pytest.approx(64.0, abs=1e-12)

    def test_moments_read_the_inputs_own_constellation(self):
        # a 16-point, 3-ring APSK input, ring masses 0.3/0.4/0.3: E[A^4] is
        # 0.3 * 0.25 + 0.4 * 1 + 0.3 * 2.25 = 1.15 on its own rings, so
        # var_self = 64 * 0.15.  Read on 16-QAM's amplitudes, as a (c, d)
        # pair allowed, the same masses gave 24.58
        apsk = Constellation(
            family="apsk", ring_amps=np.sqrt([0.5, 1.0, 1.5]),
            ring_index=np.repeat([0, 1, 2], [4, 8, 4]),
            phases=np.r_[np.arange(4) / 4, np.arange(8) / 8,
                         np.arange(4) / 4 + 0.125] * 2 * np.pi)
        d = Distribution.from_ring_mass(apsk, [0.3, 0.4, 0.3])
        mom = analytic_moments(d, OFDMConfig(64), 0.0, 0.0)
        assert mom.var_self == pytest.approx(9.6, abs=1e-12)

    def test_constant_modulus_kills_self_variance(self, psk64, ofdm64):
        d = Distribution.uniform(psk64)
        for tau, nu in [(0.0, 0.0), (0.1, 0.0), (0.25, 0.5)]:
            mom = analytic_moments(d, ofdm64, tau, nu)
            assert mom.var_self == pytest.approx(0.0, abs=1e-12)
            assert mom.var_self_train == pytest.approx(0.0, abs=1e-12)

    def test_cross_variance_is_distribution_free(self, qam64, ofdm64):
        # free of the distribution among proper inputs (E[x^2] = 0)
        uni = Distribution.uniform(qam64)
        shaped = Distribution.from_ring_mass(
            qam64, np.array([4, 0, 4, 0, 8, 12, 0, 0, 4], dtype=float) / 32
        )
        psk = make_constellation("psk", 64)
        for tau, nu in [(0.1, 0.0), (0.31, 0.47)]:
            a = analytic_moments(uni, ofdm64, tau, nu).var_cross
            b = analytic_moments(shaped, ofdm64, tau, nu).var_cross
            c = analytic_moments(Distribution.uniform(psk), ofdm64, tau, nu).var_cross
            assert a == pytest.approx(b, rel=1e-12)
            assert a == pytest.approx(c, rel=1e-12)

    def test_mean_vanishes_at_grating_nulls(self, uniform16, ofdm64):
        # delay = k / (L * df): the subcarrier phase sum is a full circle
        for k in (1, 3, 7):
            mom = analytic_moments(uniform16, ofdm64, k / 64, 0.0)
            assert abs(mom.mean_self) < 1e-9

    def test_train_self_variance_scales_with_n(self, uniform16):
        one = analytic_moments(uniform16, OFDMConfig(8, n_symbols=1), 0.12, 0.3)
        four = analytic_moments(uniform16, OFDMConfig(8, n_symbols=4), 0.12, 0.3)
        assert four.var_self_train == pytest.approx(4 * one.var_self, rel=1e-12)
        assert one.var_self_train == pytest.approx(one.var_self, rel=1e-12)


def kernel_mean_power(c, d, cfg, tau, nu):
    """E|AF|^2 summed over the kernel matrix entry by entry.

    With i.i.d. zero-mean x of unit power, E[x_i conj(x_j) conj(x_k) x_l]
    is nonzero only for i=j=k=l (E|x|^4), i=j != k=l or i=k != j=l (1) and
    i=l != j=k (|E x^2|^2).
    """
    if abs(tau) >= cfg.n_symbols:
        return 0.0
    K = _kernel(cfg, tau, nu)
    diag = np.diag(K)
    off = K - np.diag(diag)
    pseudo = abs(np.dot(d.per_point, c.points ** 2)) ** 2
    return float(abs(diag.sum()) ** 2
                 + (moment(d, 4) - 1.0) * np.sum(np.abs(diag) ** 2)
                 + np.sum(np.abs(off) ** 2)
                 + pseudo * np.real(np.sum(off * np.conj(off.T))))


SURFACE_CASES = {
    "qam16": ("qam", 16, None),
    "qam16-shaped": ("qam", 16, [0.4, 0.2, 0.4]),
    "psk64": ("psk", 64, None),
    "bpsk": ("psk", 2, None),
    "qpsk": ("psk", 4, None),
}


def _case(name):
    family, order, mass = SURFACE_CASES[name]
    c = make_constellation(family, order)
    d = (Distribution.uniform(c) if mass is None
         else Distribution.from_ring_mass(c, np.asarray(mass, dtype=float)))
    return c, d


class TestMeanPower:
    @pytest.mark.parametrize("name", sorted(SURFACE_CASES))
    @pytest.mark.parametrize("n_symbols", [1, 2, 3])
    def test_matches_kernel_sum(self, name, n_symbols):
        c, d = _case(name)
        cfg = OFDMConfig(6, n_symbols=n_symbols)
        for tau, nu in [(0.0, 0.0), (0.1, 0.0), (0.3, 0.7), (-0.45, 0.2),
                        (1.3, 0.1), (-1.7, -0.6), (0.9, 1.5), (2.4, 0.3)]:
            got = analytic_moments(d, cfg, tau, nu).mean_power
            want = kernel_mean_power(c, d, cfg, tau, nu)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("n_symbols,tau,nu", [(1, 0.1, 0.0),
                                                  (1, 0.3, 0.2),
                                                  (2, 0.15, 0.0),
                                                  (2, -0.6, 0.1)])
    def test_improper_cross_variance_matches_monte_carlo(self, n_symbols,
                                                         tau, nu):
        # BPSK: E[x^2] = 1 adds sum_{i!=j} K_ij conj(K_ji) to the cross
        # variance; a proper formula would miss it by a factor of ~2
        bpsk = make_constellation("psk", 2)
        d = Distribution.uniform(bpsk)
        cfg = OFDMConfig(16, n_symbols=n_symbols)
        n = 3000
        _, v = _split_samples(bpsk, d, cfg, tau, nu, n, seed=4321)
        mom = analytic_moments(d, cfg, tau, nu)
        want = mom.var_cross if n_symbols == 1 else mom.var_cross_train
        dev = np.abs(v - np.mean(v)) ** 2
        se = np.std(dev) / np.sqrt(n)
        assert abs(np.mean(dev) - want) <= 4 * se
        # the proper-input value (that of QPSK) is rejected by the same draws
        qpsk = make_constellation("psk", 4)
        proper = analytic_moments(Distribution.uniform(qpsk), cfg,
                                  tau, nu)
        proper = proper.var_cross if n_symbols == 1 else proper.var_cross_train
        assert abs(np.mean(dev) - proper) > 4 * se


class TestExactSurface:
    @pytest.mark.parametrize("name,n_symbols", [
        ("qam16", 1), ("qam16-shaped", 1), ("psk64", 1), ("bpsk", 1),
        ("qam16", 2),
    ])
    def test_agrees_with_monte_carlo_oracle(self, name, n_symbols):
        c, d = _case(name)
        cfg = OFDMConfig(16, n_symbols=n_symbols)
        taus = [0.05, 0.2, 0.45] + ([1.3] if n_symbols == 2 else [])
        nus = [0.0, 0.3]
        n, seed = 2000, 606
        _, moments = exact_af(d, cfg, taus, nus)
        mc = average_af(c, d, cfg, taus, nus, n_mc=n, seed=seed,
                        normalize=False)
        for i, tau in enumerate(taus):
            for j, nu in enumerate(nus):
                power = np.abs(af_realizations(c, d, cfg, tau, nu, n,
                                               seed)) ** 2
                se = np.std(power) / np.sqrt(n)
                got = moments[i][j].mean_power
                want = 10.0 ** (mc[i, j] / 10.0)
                assert want == pytest.approx(np.mean(power), rel=1e-9)
                assert abs(got - want) <= 4 * se, (tau, nu, got, want, se)

    def test_grid_cells_are_moment_mean_power(self, uniform16, ofdm8):
        # in dB relative to the grid's largest mean power, bit for bit
        taus, nus = [0.0, 0.25, 1.0], [0.0, 0.5]
        grid, moments = exact_af(uniform16, ofdm8, taus, nus)
        peak = max(m.mean_power for row in moments for m in row)
        for i, tau in enumerate(taus):
            for j, nu in enumerate(nus):
                mom = analytic_moments(uniform16, ofdm8, tau, nu)
                assert moments[i][j] == mom
                with np.errstate(divide="ignore"):
                    assert grid[i, j] == 10.0 * np.log10(mom.mean_power
                                                         / peak)
        assert grid[2, 0] == -np.inf      # no overlap at one T_p

    def test_peak_normalized_at_origin(self, uniform16, ofdm8):
        g, _ = exact_af(uniform16, ofdm8, [0.0, 0.1, 0.2], [0.0, 0.5])
        assert g[0, 0] == 0.0
        assert g.max() == 0.0

    def test_empty_axes_rejected(self, uniform16, ofdm8):
        with pytest.raises(ValueError):
            exact_af(uniform16, ofdm8, [0.0], [])

    def test_surfaces_are_plain_arrays(self, qam16, uniform16, ofdm8):
        # values_db[i, j] belongs to (tau[i], nu[j]); the axes are the
        # caller's and are not handed back
        taus, nus = [0.0, 0.1, 0.2], [0.0, 0.5]
        values, moments = exact_af(uniform16, ofdm8, taus, nus)
        assert type(values) is np.ndarray and values.shape == (3, 2)
        assert len(moments) == 3 and all(len(row) == 2 for row in moments)
        mc = average_af(qam16, uniform16, ofdm8, taus, nus, n_mc=8, seed=1)
        assert type(mc) is np.ndarray and mc.shape == (3, 2)


def _split_samples(c, d, cfg, tau, nu, n_mc, seed):
    """(self, cross) sample arrays, one split per draw of ``_draw_flat``."""
    return np.array([kernel_af_split(x, cfg, tau, nu)
                     for x in _draw_flat(c, d, cfg, n_mc, seed)]).T


class TestMonteCarloAgreement:
    @pytest.mark.parametrize("tau,nu", [(0.1, 0.0), (0.25, 0.5)])
    def test_single_symbol_moments(self, qam16, uniform16, tau, nu):
        cfg = OFDMConfig(16)
        n = 3000
        s, v = _split_samples(qam16, uniform16, cfg, tau, nu, n, seed=1234)
        mom = analytic_moments(uniform16, cfg, tau, nu)

        se_mean = np.std(s) / np.sqrt(n)
        assert abs(np.mean(s) - mom.mean_self) <= 4 * se_mean + 1e-12

        dev_s = np.abs(s - np.mean(s)) ** 2
        assert abs(np.mean(dev_s) - mom.var_self) <= 4 * np.std(dev_s) / np.sqrt(n)

        dev_v = np.abs(v - np.mean(v)) ** 2
        assert abs(np.mean(dev_v) - mom.var_cross) <= 4 * np.std(dev_v) / np.sqrt(n)

    def test_symbol_train_moments(self, qam16, uniform16):
        cfg = OFDMConfig(8, n_symbols=2)
        n = 4000
        tau, nu = 0.15, 0.2
        s, v = _split_samples(qam16, uniform16, cfg, tau, nu, n, seed=777)
        mom = analytic_moments(uniform16, cfg, tau, nu)

        dev_s = np.abs(s - np.mean(s)) ** 2
        assert abs(np.mean(dev_s) - mom.var_self_train) <= 4 * np.std(dev_s) / np.sqrt(n)

        dev_v = np.abs(v - np.mean(v)) ** 2
        assert abs(np.mean(dev_v) - mom.var_cross_train) <= 4 * np.std(dev_v) / np.sqrt(n)


class TestAverageGrid:
    def test_peak_normalized_at_origin(self, qam16, uniform16, ofdm8):
        g = average_af(qam16, uniform16, ofdm8, [0.0, 0.1, 0.2], [0.0, 0.5],
                       n_mc=64, seed=5)
        assert g.max() == pytest.approx(0.0, abs=1e-12)
        assert g[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_csv_round_trip(self, uniform16, ofdm8, cli_artifacts):
        # the CLI's af_grid.csv holds exact_af's surface, tau-major, {:.9g}
        out = cli_artifacts(
            "[constellation]\nfamily = qam\norder = 16\n"
            "[ofdm]\nn_subcarriers = 8\n"
            "[af]\ntau_min_tp = 0.0\ntau_max_tp = 0.25\nn_tau = 2\n"
            "nu_min_df = 0.0\nnu_max_df = 1.0\nn_nu = 2\n", "af")
        g, _ = exact_af(uniform16, ofdm8, [0.0, 0.25], [0.0, 1.0])
        lines = (out / "af_grid.csv").read_text().split("\n")
        assert lines[0] == "tau,nu,value_db" and lines[-1] == ""
        rows = [[float(v) for v in line.split(",")] for line in lines[1:-1]]
        assert [row[:2] for row in rows] == [[0.0, 0.0], [0.0, 1.0],
                                             [0.25, 0.0], [0.25, 1.0]]
        np.testing.assert_allclose([row[2] for row in rows], g.ravel(),
                                   rtol=1e-8, atol=1e-12)

    def test_empty_axes_rejected(self, qam16, uniform16, ofdm8):
        with pytest.raises(ValueError):
            average_af(qam16, uniform16, ofdm8, [], [0.0], n_mc=4, seed=0)


class TestConfigValidation:
    def test_positive_counts(self):
        with pytest.raises(ValueError):
            OFDMConfig(n_subcarriers=0)
        with pytest.raises(ValueError):
            OFDMConfig(n_subcarriers=4, n_symbols=0)

    @pytest.mark.parametrize("kwargs,field", [
        ({"n_subcarriers": 16.5}, "n_subcarriers"),
        ({"n_subcarriers": 16.0}, "n_subcarriers"),
        ({"n_subcarriers": 16, "n_symbols": 2.0}, "n_symbols")])
    def test_non_integer_counts_rejected(self, kwargs, field):
        # 16.5 subcarriers used to be accepted and fail later in an index
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            OFDMConfig(**kwargs)

    def test_numpy_integer_counts_accepted(self):
        cfg = OFDMConfig(n_subcarriers=np.int64(16), n_symbols=np.uint8(2))
        assert cfg.n_subcarriers == 16 and cfg.n_symbols == 2
