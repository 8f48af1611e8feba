"""The rate quadrature and the Monte-Carlo reference estimator.

``gh_mutual_information`` integrates h(Y) with a 96-node Gauss-Hermite
product rule over the complex noise: ``rate_bits``, the one rate the
package reports, must match it to a few microbits, and the Monte-Carlo
estimator must land within a few standard errors of it.  ``naive twin``
re-implements the estimator in plain unstabilized arithmetic on the
identical random draws, pinning the log-sum-exp path to machine precision
at benign noise levels.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from ofdmpcs import (
    Constellation,
    Distribution,
    make_constellation,
    rate_bits,
    rate_curve,
    solve_heuristic,
)
from ofdmpcs import rates
from ofdmpcs.rates import (ChannelSpec, gm_log_pdf, log_probs,
                           mutual_information)
from oracles import entropy_bits, gh_mutual_information, naive_log_mix

LN2 = np.log(2.0)


class TestLogMixtureDensity:
    def test_log_probs(self, qam16):
        # the one log-probability helper: bitwise np.log on live entries,
        # -inf without a warning on dead ones
        p = Distribution.from_ring_mass(qam16, [0.3, 0.7, 0.0]).per_point
        got = log_probs(p)
        live = p > 0
        np.testing.assert_array_equal(got[live], np.log(p[live]))
        assert np.isneginf(got[~live]).all()

    def test_log_probs_subnormal(self):
        # a floor at 1e-300 once gave every smaller probability log 1e-300
        p = np.array([5e-324, 1e-310, 1e-300, 0.0, 0.5])
        got = log_probs(p)
        np.testing.assert_array_equal(got[:3], np.log(p[:3]))
        assert got[0] < got[1] < got[2] < -690.0
        assert np.isneginf(got[3]) and got[4] == np.log(0.5)

    def test_matches_direct_sum(self, qam16, uniform16, rng):
        spec = ChannelSpec(noise_power=0.2)
        y = rng.normal(size=50) + 1j * rng.normal(size=50)
        got = gm_log_pdf(y, qam16, uniform16, spec)
        np.testing.assert_allclose(got, naive_log_mix(y, qam16, uniform16, 0.2), rtol=1e-12)

    def test_scalar_in_scalar_out(self, qam16, uniform16):
        spec = ChannelSpec(noise_power=0.5)
        v = gm_log_pdf(0.3 + 0.1j, qam16, uniform16, spec)
        assert isinstance(v, float)

    def test_shape_preserved(self, qam16, uniform16):
        spec = ChannelSpec(noise_power=0.5)
        y = np.zeros((3, 4), dtype=complex)
        assert gm_log_pdf(y, qam16, uniform16, spec).shape == (3, 4)

    def test_far_tail_is_finite(self, qam16, uniform16):
        spec = ChannelSpec(noise_power=0.01)
        v = gm_log_pdf(1e3 + 1e3j, qam16, uniform16, spec)
        assert np.isfinite(v)
        assert v < -1e7

    def test_zero_mass_points_drop_out(self, qam16):
        # outer rings off: density must equal the inner-ring-only mixture
        d = Distribution.from_ring_mass(qam16, [0.0, 1.0, 0.0])
        spec = ChannelSpec(noise_power=0.1)
        y = np.array([0.2 + 0.3j, -1.1 + 0.9j])
        got = gm_log_pdf(y, qam16, d, spec)
        keep = d.per_point > 0
        dist2 = np.abs(y[:, None] - qam16.points[None, keep]) ** 2
        want = np.log(
            np.sum(d.per_point[keep] * np.exp(-dist2 / 0.1), axis=1) / (np.pi * 0.1)
        )
        np.testing.assert_allclose(got, want, rtol=1e-12)

    @staticmethod
    def oracle_log_mix(y, c, d, sigma2):
        # the direct per-point evaluation: |y - x|^2 for every point, then
        # scipy's log-sum-exp with dead points as -inf columns
        with np.errstate(divide="ignore"):
            logp = np.log(d.per_point)
        t = logp[None, :] - np.abs(y[:, None] - c.points[None, :]) ** 2 / sigma2
        return scipy_logsumexp(t, axis=1) - np.log(np.pi * sigma2)

    @pytest.mark.parametrize("sigma2", [1e-4, 1e-2, 1.0])
    @pytest.mark.parametrize("family,order,ring_mass", [
        ("qam", 16, None), ("qam", 64, None), ("qam", 256, None),
        ("psk", 64, None),
        ("qam", 64, [0.2, 0.0, 0.3, 0.1, 0.0, 0.25, 0.15, 0.0, 0.0]),
    ], ids=["qam16", "qam64", "qam256", "psk64", "qam64-dead-rings"])
    def test_matches_per_point_oracle(self, family, order, ring_mass, sigma2,
                                      monkeypatch):
        c = make_constellation(family, order)
        d = Distribution.uniform(c) if ring_mass is None \
            else Distribution.from_ring_mass(c, ring_mass)
        rng = np.random.default_rng(order + int(-np.log10(sigma2)))
        n = 301
        y = c.points[d.draw(rng, n)] + np.sqrt(sigma2 / 2.0) \
            * (rng.normal(size=n) + 1j * rng.normal(size=n))
        # and outputs away from every point, out to |y| ~ 4
        y[:20] = 3.0 * (rng.uniform(-1, 1, 20) + 1j * rng.uniform(-1, 1, 20))
        # a few rows per chunk, so chunk boundaries fall inside the samples
        monkeypatch.setattr(rates, "_CHUNK_ELEMS", 1000)
        got = gm_log_pdf(y, c, d, ChannelSpec(sigma2))
        want = self.oracle_log_mix(y, c, d, sigma2)
        # the expansion cancels terms of size (|y|^2 + |x|^2) / sigma2
        eps = np.finfo(float).eps
        bound = 16 * eps * (1 + (np.abs(y) ** 2 + np.max(np.abs(c.points) ** 2)) / sigma2)
        assert np.all(np.abs(got - want) <= bound)

    def test_bounded_temporaries(self):
        # 256-QAM at 2 * 10**4 samples: one call holds a cache-sized
        # table, not a (samples, points) one (40 MB of float64 here)
        c = make_constellation("qam", 256)
        d = Distribution.uniform(c)
        rng = np.random.default_rng(5)
        n = 20_000
        y = c.points[d.draw(rng, n)] + np.sqrt(0.005) \
            * (rng.normal(size=n) + 1j * rng.normal(size=n))
        tracemalloc.start()
        try:
            gm_log_pdf(y, c, d, ChannelSpec(0.01))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4e6


class TestEstimatorMemory:
    def test_no_full_length_temporaries(self):
        # 256-QAM at n = 20 000 holds the outputs (320 KB), the log terms
        # (160 KB) and gm_log_pdf's 512 KB table; building y from separate
        # noise arrays and finishing log p(y) on whole arrays peaked at
        # 1.98 MB
        c = make_constellation("qam", 256)
        d = Distribution.uniform(c)
        spec = ChannelSpec(0.01)
        mutual_information(c, d, spec, n_mc=20_000, seed=1)  # cache the CDF
        tracemalloc.start()
        try:
            mutual_information(c, d, spec, n_mc=20_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.2e6, f"traced peak {peak / 1e6:.2f} MB"


class TestEstimator:
    def test_naive_twin_identical_draws(self, qam16, uniform16):
        sigma2, n = 0.1, 5000
        est = mutual_information(qam16, uniform16, ChannelSpec(sigma2), n_mc=n, seed=21)
        rng = np.random.default_rng(21)
        idx = rng.choice(16, size=n, p=uniform16.per_point)
        s = np.sqrt(sigma2 / 2)
        y = qam16.points[idx] + rng.normal(scale=s, size=n) + 1j * rng.normal(scale=s, size=n)
        terms = -naive_log_mix(y, qam16, uniform16, sigma2) - np.log(np.pi * np.e * sigma2)
        assert est.mi_bits == pytest.approx(np.mean(terms) / LN2, rel=1e-9)
        assert est.std_error == pytest.approx(np.std(terms, ddof=1) / np.sqrt(n) / LN2, rel=1e-9)
        # the same draws, bit for bit: the production density on these y
        # gives the estimate exactly
        terms = -gm_log_pdf(y, qam16, uniform16, ChannelSpec(sigma2)) \
            - np.log(np.pi * np.e * sigma2)
        assert est.mi_bits == float(np.mean(terms)) / LN2
        assert est.std_error == float(np.std(terms, ddof=1) / np.sqrt(n)) / LN2

    @pytest.mark.parametrize("noise_power", [0.01, 0.3])
    def test_outputs_built_in_place_are_the_sum(self, qam64, noise_power):
        # one buffer reused for both noise parts: bitwise x + (re + 1j im)
        masses = np.zeros(qam64.n_rings)
        masses[[0, 4, 8]] = [0.5, 0.3, 0.2]
        d = Distribution.from_ring_mass(qam64, masses)
        for seed in range(5):
            got = rates.awgn_outputs(qam64, d, np.random.default_rng(seed),
                                     3001, noise_power)
            rng = np.random.default_rng(seed)
            x = qam64.points[d.draw(rng, 3001)]
            s = np.sqrt(noise_power / 2.0)
            want = x + (rng.normal(scale=s, size=3001)
                        + 1j * rng.normal(scale=s, size=3001))
            assert got.tobytes() == want.tobytes()

    def test_matches_quadrature(self, qam16, uniform16):
        sigma2 = 0.1
        want = gh_mutual_information(qam16, uniform16, sigma2)
        est = mutual_information(qam16, uniform16, ChannelSpec(sigma2), n_mc=40_000, seed=3)
        assert abs(est.mi_bits - want) <= 4 * est.std_error

    def test_shaped_matches_quadrature(self, qam16):
        d = Distribution.from_ring_mass(qam16, [0.15625, 0.6875, 0.15625])
        sigma2 = 0.05
        want = gh_mutual_information(qam16, d, sigma2)
        est = mutual_information(qam16, d, ChannelSpec(sigma2), n_mc=40_000, seed=4)
        assert abs(est.mi_bits - want) <= 4 * est.std_error

    def test_64qam_at_20db_matches_quadrature(self, qam64, uniform64):
        # 20 dB is short of saturation for 64-QAM: the rate is 5.80 bits,
        # not log2 64 = 6
        sigma2 = 0.01
        want = gh_mutual_information(qam64, uniform64, sigma2)
        est = mutual_information(qam64, uniform64, ChannelSpec(sigma2), n_mc=100_000, seed=15)
        assert want == pytest.approx(5.80, abs=0.01)
        assert abs(est.mi_bits - want) <= 4 * est.std_error

    def test_low_noise_saturates_input_entropy(self, qam16, uniform16):
        # per-draw spread is ~1.4 bits even at saturation (the |noise|^2
        # term), so the tolerance has to track the standard error
        est = mutual_information(qam16, uniform16, ChannelSpec(1e-4), n_mc=40_000, seed=5)
        assert est.mi_bits == pytest.approx(4.0, abs=4 * est.std_error)
        d = Distribution.from_ring_mass(qam16, [0.1, 0.8, 0.1])
        est2 = mutual_information(qam16, d, ChannelSpec(1e-4), n_mc=40_000, seed=5)
        assert est2.mi_bits == pytest.approx(entropy_bits(d), abs=4 * est2.std_error)

    def test_high_noise_clamped_at_zero(self, qam16, uniform16):
        est = mutual_information(qam16, uniform16, ChannelSpec(1e4), n_mc=2000, seed=6)
        assert 0.0 <= est.mi_bits < 0.01

    def test_bounded_by_entropy(self, qam64, uniform64):
        # unbiased in nats, so the noisy estimate may poke above the true
        # bound by a couple of standard errors — never more
        for sigma2 in (1e-3, 0.1, 1.0, 10.0):
            est = mutual_information(qam64, uniform64, ChannelSpec(sigma2), n_mc=2000, seed=7)
            assert 0.0 <= est.mi_bits <= 6.0 + 4 * est.std_error

    def test_monotone_in_noise(self, qam16, uniform16):
        vals = [
            mutual_information(qam16, uniform16, ChannelSpec(s2), n_mc=20_000, seed=8).mi_bits
            for s2 in (0.03, 0.3, 3.0)
        ]
        assert vals[0] > vals[1] > vals[2]

    def test_standard_error_shrinks_like_sqrt_n(self, qam16, uniform16):
        spec = ChannelSpec(0.2)
        a = mutual_information(qam16, uniform16, spec, n_mc=4000, seed=9)
        b = mutual_information(qam16, uniform16, spec, n_mc=16_000, seed=10)
        assert 1.5 < a.std_error / b.std_error < 2.6

    def test_deterministic_under_seed(self, qam16, uniform16):
        spec = ChannelSpec(0.2)
        a = mutual_information(qam16, uniform16, spec, n_mc=2000, seed=11)
        b = mutual_information(qam16, uniform16, spec, n_mc=2000, seed=11)
        assert (a.mi_bits, a.std_error) == (b.mi_bits, b.std_error)

    def test_small_n_rejected(self, qam16, uniform16):
        with pytest.raises(ValueError):
            mutual_information(qam16, uniform16, ChannelSpec(0.1), n_mc=500)


class TestHeuristicRate:
    def test_max_entropy_heuristic_rate_64qam(self, qam64):
        # the maximum-entropy loading reaches the rate-optimal 5.6149 bits
        # here; other loadings with the same moments fall short (5.5723 for
        # one reached by projected descent from the uniform loading)
        d = solve_heuristic(qam64, 1.191).distribution
        assert gh_mutual_information(qam64, d, 0.01, n_nodes=32) >= 5.61


class TestAirAndCurves:
    def test_rate_curve_monotone_in_snr(self, qam16, uniform16):
        vals = rate_curve(qam16, uniform16, [0.0, 10.0, 20.0])
        assert vals[0] < vals[1] < vals[2]
        assert vals == [rate_bits(qam16, uniform16, s2)
                        for s2 in (1.0, 0.1, 0.01)]

    def test_rate_curve_csv_format(self, qam16, uniform16, cli_artifacts):
        # the CLI's air_curve.csv holds rate_curve's rates, {:.9g}, and a
        # standard error of 0; the uniform input needs no [channel] sigma2
        out = cli_artifacts(
            "[run]\nseed = 14\n[constellation]\nfamily = qam\norder = 16\n"
            "[channel]\nsnr_db_min = 0\nsnr_db_max = 12.5\n"
            "snr_db_step = 12.5\n", "air")
        vals = rate_curve(qam16, uniform16, [0.0, 12.5])
        assert (out / "air_curve.csv").read_text() == (
            "snr_db,mi_bits,std_err\n"
            + "".join(f"{s:.9g},{v:.9g},0\n"
                      for s, v in zip([0.0, 12.5], vals)))


class TestRateQuadrature:
    @pytest.mark.parametrize("snr_db", [0, 10, 20, 30])
    @pytest.mark.parametrize("family,order", [
        ("qam", 4), ("psk", 2), ("psk", 8), ("psk", 64), ("qam", 16),
        ("qam", 64), ("qam", 256)])
    def test_rate_matches_gauss_hermite(self, family, order, snr_db):
        # the one-ring inputs take the one-point orbit path, the others the
        # factored lattice; both on the uniform input, against 96
        # Gauss-Hermite nodes
        c = make_constellation(family, order)
        d = Distribution.uniform(c)
        sigma2 = 10.0 ** (-snr_db / 10.0)
        assert rate_bits(c, d, sigma2) == pytest.approx(
            gh_mutual_information(c, d, sigma2), abs=5e-6)

    @pytest.mark.parametrize("noise_power", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_noise(self, qam16, psk8, noise_power):
        for c in (qam16, psk8):
            with pytest.raises(ValueError, match="positive and finite"):
                rate_bits(c, Distribution.uniform(c), noise_power)

    def test_one_ring_off_its_rotation_orbit_rejected(self):
        # one ring of 4 points whose phases are not equally spaced: its
        # points do not share one D_x, so one point cannot stand for all
        phases = np.array([0.0, 0.5, np.pi, np.pi + 0.5])
        c = Constellation(family="custom", order=4,
                          ring_amps=np.array([1.0]),
                          ring_counts=np.array([4]),
                          ring_index=np.zeros(4, dtype=int), phases=phases)
        with pytest.raises(ValueError, match="rotation orbit"):
            rate_bits(c, Distribution.uniform(c), 0.1)


class TestChannelSpec:
    def test_rejects_bad_noise(self):
        with pytest.raises(ValueError):
            ChannelSpec(0.0)
        with pytest.raises(ValueError):
            ChannelSpec(-1.0)
        with pytest.raises(ValueError):
            ChannelSpec(float("inf"))
