"""Matched-filter range profiles and SO-CFAR thresholding.

The hand-checkable pieces (window means at edges, Wilson intervals, pure
threshold logic) are frozen against worked-out values; the statistical
pieces (noise floor, false-alarm rate, detection ordering) are checked
against their design levels with seed-pinned Monte-Carlo.
"""
from __future__ import annotations

import tracemalloc
from dataclasses import replace
from math import comb

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import integrate, optimize, stats

from ofdmpcs import (
    DetectionScenario,
    Distribution,
    OFDMConfig,
    calibrate_so_cfar,
    derive_seed,
    detection,
    detection_probability,
    make_constellation,
    pd_curve,
    wilson_interval,
)
from ofdmpcs.detection import DEFAULT_CAL_FACTOR
from oracles import empirical_false_alarm_rate


@pytest.fixture
def uniform_scenario(qam64, uniform64, ofdm64):
    return DetectionScenario(qam64, uniform64, ofdm64, snr_db=14.0, p_fa=1e-2,
                             n_trials=400)


def noise_only(sc):
    return replace(sc, snr_db=float("-inf"), si_to_noise_db=float("-inf"))


def profile(sc, seed):
    """One range profile, drawn and formed as ``detection_probability`` does."""
    rng = np.random.default_rng(seed)
    return detection._profiles(*detection._draw_rows(sc, rng, 1))[0]


def side_means(p, ref, guard):
    """The smallest-of statistic of one profile, as the detector forms it."""
    return detection._side_means(p[None], ref, guard)[0]


class TestScenarioValidation:
    def test_target_and_si_must_differ(self, qam64, uniform64, ofdm64):
        with pytest.raises(ValueError):
            DetectionScenario(qam64, uniform64, ofdm64, target_cell=0, si_cell=0)

    def test_cells_in_range(self, qam64, uniform64, ofdm64):
        with pytest.raises(ValueError):
            DetectionScenario(qam64, uniform64, ofdm64, target_cell=64)
        with pytest.raises(ValueError):
            DetectionScenario(qam64, uniform64, ofdm64, si_cell=-1)

    def test_pfa_bounds(self, qam64, uniform64, ofdm64):
        with pytest.raises(ValueError):
            DetectionScenario(qam64, uniform64, ofdm64, p_fa=0.0)
        with pytest.raises(ValueError):
            DetectionScenario(qam64, uniform64, ofdm64, p_fa=1.5)

    def test_window_must_fit_profile(self, qam64, uniform64, ofdm64):
        with pytest.raises(ValueError, match="window larger"):
            DetectionScenario(qam64, uniform64, ofdm64, ref_cells=30, guard_cells=3)

    @pytest.mark.parametrize("field", ["snr_db", "si_to_noise_db"])
    @pytest.mark.parametrize("db", [float("nan"), float("inf"), 3000.5,
                                    -3000.5, 4000.0])
    def test_db_values_bounded(self, qam64, uniform64, ofdm64, field, db):
        # 10 ** (4000 / 10) raised OverflowError in the draws
        with pytest.raises(ValueError, match=f"{field} must be -inf or lie"):
            DetectionScenario(qam64, uniform64, ofdm64, **{field: db})

    @pytest.mark.parametrize("field", ["snr_db", "si_to_noise_db"])
    def test_minus_inf_and_in_range_db_accepted(self, qam64, uniform64,
                                                ofdm64, field):
        for db in (float("-inf"), -3000.0, 3000.0):
            DetectionScenario(qam64, uniform64, ofdm64, **{field: db})


class TestRangeProfile:
    def test_shape_and_nonnegativity(self, uniform_scenario):
        prof = profile(uniform_scenario, seed=0)
        assert prof.shape == (64,)
        assert np.all(prof >= 0)

    def test_deterministic(self, uniform_scenario):
        a = profile(uniform_scenario, seed=3)
        b = profile(uniform_scenario, seed=3)
        np.testing.assert_array_equal(a, b)

    def test_noise_floor_level(self, uniform_scenario):
        # matched filter output variance per cell is L with unit noise
        sc = noise_only(uniform_scenario)
        cells = np.concatenate(
            [profile(sc, seed=t) for t in range(400)])
        assert np.mean(cells) == pytest.approx(64.0, rel=0.05)

    def test_strong_target_peaks_at_target_cell(self, qam64, uniform64, ofdm64):
        sc = DetectionScenario(qam64, uniform64, ofdm64, snr_db=40.0,
                               si_to_noise_db=float("-inf"), target_cell=8)
        hits = sum(
            int(np.argmax(profile(sc, seed=t)) == 8)
            for t in range(100))
        assert hits >= 99

    def test_si_pedestal_needs_amplitude_spread(self, qam64, uniform64, ofdm64):
        # residual self-interference leaks a floor proportional to
        # E[A^4] - 1; constant-modulus data leaves the noise floor alone
        psk = make_constellation("psk", 64)
        sc_qam = DetectionScenario(qam64, uniform64, ofdm64,
                                   snr_db=float("-inf"), si_to_noise_db=10.0)
        sc_psk = DetectionScenario(psk, Distribution.uniform(psk), ofdm64,
                                   snr_db=float("-inf"), si_to_noise_db=10.0)
        away = np.r_[4:30]  # cells far from the SI peak at 0
        qam_level = np.mean([profile(sc_qam, seed=t)[away]
                             for t in range(300)])
        psk_level = np.mean([profile(sc_psk, seed=t)[away]
                             for t in range(300)])
        assert qam_level > 2.0 * psk_level
        assert psk_level == pytest.approx(64.0, rel=0.1)


class TestSoCfar:
    def test_window_means_with_edges(self):
        # ref=2, guard=1; cells without a complete leading window fall back
        # to the lagging one and vice versa
        p = np.array([4.0, 8, 1, 3, 7, 2, 9, 5])
        got = side_means(p, ref=2, guard=1)
        np.testing.assert_allclose(got, [2.0, 5.0, 4.5, 5.5, 4.5, 2.0, 5.0, 4.5])

    def test_interior_cell_takes_smaller_side(self):
        p = np.ones(32)
        p[14:18] = 9.0  # clutter edge ahead of cell 10
        stat = side_means(p, ref=4, guard=2)
        assert stat[10] == pytest.approx(1.0)  # leading side is clean
        # lagging side alone would have tripled the level
        assert np.mean(p[13:17]) == pytest.approx(7.0)

    def test_uniform_profile_no_detections(self):
        p = np.ones(64)
        det = p > 2.0 * side_means(p, ref=16, guard=2)
        assert not det.any()

    def test_lone_spike_detected(self):
        p = np.ones(64)
        p[20] = 1e6
        det = p > 10.0 * side_means(p, ref=16, guard=2)
        assert det[20]
        assert det.sum() == 1


class TestCalibration:
    def test_alpha_grows_as_pfa_shrinks(self, qam64, uniform64, ofdm64):
        sc = DetectionScenario(qam64, uniform64, ofdm64, p_fa=1e-2)
        loose = calibrate_so_cfar(sc, seed=0)
        tight = calibrate_so_cfar(replace(sc, p_fa=1e-3), seed=0)
        assert 1.0 < loose < tight

    def test_alpha_order_unity_at_even_odds(self, qam64, uniform64, ofdm64):
        sc = DetectionScenario(qam64, uniform64, ofdm64, p_fa=0.5)
        alpha = calibrate_so_cfar(sc, n_cal=100_000, seed=0)
        assert 0.2 < alpha < 2.0

    def test_insufficient_samples_rejected(self, qam64, uniform64, ofdm64):
        sc = DetectionScenario(qam64, uniform64, ofdm64, p_fa=1e-3)
        with pytest.raises(ValueError, match="calibration"):
            calibrate_so_cfar(sc, n_cal=5_000, seed=0)

    def test_deterministic(self, qam64, uniform64, ofdm64):
        sc = DetectionScenario(qam64, uniform64, ofdm64, p_fa=1e-2)
        assert calibrate_so_cfar(sc, seed=4) == calibrate_so_cfar(sc, seed=4)

    def test_empirical_false_alarm_within_factor_two(self, qam64, uniform64, ofdm64):
        sc = DetectionScenario(qam64, uniform64, ofdm64, p_fa=1e-3)
        alpha = calibrate_so_cfar(sc, seed=0)
        rate = empirical_false_alarm_rate(sc, alpha, n_cells=2_000_000, seed=1)
        assert 0.5e-3 <= rate <= 2e-3


class TestDetectionProbability:
    def test_certain_at_high_snr(self, uniform_scenario):
        alpha = calibrate_so_cfar(uniform_scenario, seed=5)
        pd, lo, hi = detection_probability(
            replace(uniform_scenario, snr_db=40.0, n_trials=200), alpha, seed=2)
        assert pd == 1.0
        assert hi == 1.0

    def test_rare_without_target(self, uniform_scenario):
        alpha = calibrate_so_cfar(uniform_scenario, seed=5)
        pd, _, _ = detection_probability(
            replace(uniform_scenario, snr_db=float("-inf"), n_trials=300), alpha,
            seed=2)
        assert pd <= 0.05

    def test_constant_modulus_beats_uniform_qam(self, uniform_scenario, ofdm64):
        # the SI pedestal of spread-amplitude data buries a 14 dB target
        # that constant-modulus data detects with certainty
        psk = make_constellation("psk", 64)
        sc_psk = replace(uniform_scenario, constellation=psk,
                         distribution=Distribution.uniform(psk))
        a_u = calibrate_so_cfar(uniform_scenario, seed=5)
        a_p = calibrate_so_cfar(sc_psk, seed=5)
        pd_u, _, _ = detection_probability(uniform_scenario, a_u, seed=1)
        pd_p, _, _ = detection_probability(sc_psk, a_p, seed=1)
        assert pd_p > pd_u + 0.2

    def test_si_hardly_degrades_constant_modulus(self, ofdm64):
        psk = make_constellation("psk", 64)
        sc = DetectionScenario(psk, Distribution.uniform(psk), ofdm64,
                               snr_db=15.0, p_fa=1e-3, n_trials=800)
        alpha = calibrate_so_cfar(sc, seed=7)
        with_si, _, _ = detection_probability(sc, alpha, seed=3)
        without, _, _ = detection_probability(
            replace(sc, si_to_noise_db=float("-inf")), alpha, seed=3)
        assert abs(with_si - without) <= 0.05

    def test_bounded_memory(self, qam16, ofdm64):
        # one block of trials is held at a time, whatever n_trials is
        d = Distribution.from_ring_mass(qam16, [0.125, 0.75, 0.125])
        sc = DetectionScenario(qam16, d, ofdm64, snr_db=12.0, n_trials=1000)
        detection_probability(sc, 5.0, seed=1)           # warm the imports
        tracemalloc.start()
        try:
            detection_probability(sc, 5.0, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e5, f"traced peak {peak / 1e6:.2f} MB"


class TestPdCurve:
    def test_bit_exact_reproducibility(self, uniform_scenario):
        snrs = [10.0, 14.0]
        sc = replace(uniform_scenario, n_trials=150)
        a = pd_curve(sc, snrs, seed=11)
        b = pd_curve(sc, snrs, seed=11)
        np.testing.assert_array_equal(a.pd, b.pd)
        np.testing.assert_array_equal(a.ci_lo, b.ci_lo)
        assert a.alpha == b.alpha

    def test_monotone_in_snr_and_bounded(self, uniform_scenario):
        sc = replace(uniform_scenario, n_trials=300)
        curve = pd_curve(sc, [6.0, 14.0, 22.0], seed=12)
        assert curve.pd[0] <= curve.pd[1] <= curve.pd[2]
        for pd, lo, hi in zip(curve.pd, curve.ci_lo, curve.ci_hi):
            assert 0.0 <= lo <= pd <= hi <= 1.0

    def test_csv_format(self, qam64, uniform64, ofdm64, cli_artifacts):
        # the CLI's pd_curve.csv holds pd_curve's fields, {:.9g}; the keys
        # the config leaves out take DetectionScenario's defaults
        out = cli_artifacts(
            "[run]\nseed = 13\n[constellation]\nfamily = qam\norder = 64\n"
            "[detection]\np_fa = 1e-2\nn_trials = 100\n"
            "snr_db_min = 12\nsnr_db_max = 14\nsnr_db_step = 2\n", "detect")
        sc = DetectionScenario(qam64, uniform64, ofdm64, p_fa=1e-2,
                               n_trials=100)
        curve = pd_curve(sc, [12.0, 14.0], seed=derive_seed(13, "detect"))
        want = ["snr_db,pd,ci_lo,ci_hi"] + [
            f"{s:.9g},{p:.9g},{lo:.9g},{hi:.9g}" for s, p, lo, hi in
            zip(curve.snr_db, curve.pd, curve.ci_lo, curve.ci_hi)]
        assert (out / "pd_curve.csv").read_text() == "\n".join(want) + "\n"


# ---------------------------------------------------------------------------
# block-stream oracle: Generator.choice, uniform and standard-normal draws
# on one stream, block by block in _draw_rows' order, and two-pass SO-CFAR
# window means; the simulator must match it bit for bit.  Both form the
# matched-filter product as conj(x) * y, at every block size.


def oracle_probs(sc):
    p = np.maximum(np.asarray(sc.distribution.per_point, dtype=float), 0.0)
    return p / p.sum()


def oracle_rows(sc, rng, rows):
    """``rows`` range profiles from ``rng``: symbols, SI phases, target
    phases and the noise, each one call over the rows; the noise is one
    (real, imaginary) standard-normal pair per cell."""
    length = sc.cfg.n_subcarriers
    x = sc.constellation.points[rng.choice(sc.constellation.order,
                                           size=(rows, length),
                                           p=oracle_probs(sc))]
    si_lin = 10.0 ** (sc.si_to_noise_db / 10.0)
    snr_lin = 10.0 ** (sc.snr_db / 10.0)
    si_u = rng.uniform(size=rows) if si_lin > 0.0 else None
    tg_u = rng.uniform(size=rows) if snr_lin > 0.0 else None
    y = (rng.standard_normal((rows, 2 * length)) * np.sqrt(0.5)).view(complex)
    l_idx = np.arange(length)
    if si_u is not None:
        amp = np.sqrt(si_lin) * np.exp(2j * np.pi * si_u)
        y = y + amp[:, None] * x * np.exp(
            -2j * np.pi * l_idx * sc.si_cell / length)
    if tg_u is not None:
        amp = np.sqrt(snr_lin / length) * np.exp(2j * np.pi * tg_u)
        y = y + amp[:, None] * x * np.exp(
            -2j * np.pi * l_idx * sc.target_cell / length)
    z = np.fft.ifft(np.conj(x) * y, axis=1, norm="forward")
    return z.real ** 2 + z.imag ** 2


def oracle_side_means(profiles, ref, guard):
    rows, length = profiles.shape
    pad = ref + guard
    arr = np.concatenate([np.full((rows, pad), np.nan), profiles,
                          np.full((rows, pad), np.nan)], axis=1)
    win = sliding_window_view(arr, ref, axis=1)
    lead = np.mean(win[:, :length, :], axis=2)
    lagg = np.mean(win[:, ref + 2 * guard + 1:ref + 2 * guard + 1 + length, :],
                   axis=2)
    return np.fmin(lead, lagg)


def oracle_blocks(sc, rng, n_rows, chunk):
    """``(profiles, statistic)`` of n_rows trials, ``chunk`` rows a block."""
    for start in range(0, n_rows, chunk):
        power = oracle_rows(sc, rng, min(chunk, n_rows - start))
        yield power, oracle_side_means(power, sc.ref_cells, sc.guard_cells)


def oracle_hits(sc, alpha, seed, chunk):
    rng = np.random.default_rng(seed)
    cell = sc.target_cell
    return sum(int(np.count_nonzero(p[:, cell] > alpha * s[:, cell]))
               for p, s in oracle_blocks(sc, rng, sc.n_trials, chunk))


def oracle_ratios(sc, n_cells, rng, chunk):
    """Every noise-only profile/statistic ratio, in one array."""
    n_rows = int(np.ceil(n_cells / sc.cfg.n_subcarriers))
    return np.concatenate([(p / s).ravel() for p, s in
                           oracle_blocks(noise_only(sc), rng, n_rows, chunk)])


def oracle_alpha(sc, n_cal, seed, chunk):
    rng = np.random.default_rng(derive_seed(seed, "cfar-calibration"))
    ratios = oracle_ratios(sc, n_cal, rng, chunk)
    return float(np.quantile(ratios, 1.0 - sc.p_fa))


def rows_per_block(sc):
    """Rows per block of ``detection._blocks`` on ``sc``."""
    return max(1, detection._BLOCK_CELLS // sc.cfg.n_subcarriers)


def block_profiles(sc, seed):
    """Every profile ``detection_probability(sc, ., seed)`` thresholds."""
    blocks = detection._blocks(sc, np.random.default_rng(seed), sc.n_trials)
    return np.concatenate([power for power, _ in blocks])


def oracle_profiles(sc, seed, chunk):
    blocks = oracle_blocks(sc, np.random.default_rng(seed), sc.n_trials, chunk)
    return np.concatenate([power for power, _ in blocks])


class TestBatchedSimulatorOracle:
    """The block-stream simulator against the oracle, bit for bit."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        # 13-row blocks put block boundaries inside every trial count below
        monkeypatch.setattr(detection, "_BLOCK_CELLS", 13 * 64)

    @pytest.mark.parametrize("family,order", [("qam", 16), ("qam", 64),
                                              ("psk", 64)])
    @pytest.mark.parametrize("target", [True, False])
    @pytest.mark.parametrize("si", [True, False])
    def test_hits_and_profiles(self, ofdm64, family, order, target, si):
        c = make_constellation(family, order)
        sc = DetectionScenario(c, Distribution.uniform(c), ofdm64,
                               snr_db=12.0 if target else float("-inf"),
                               si_to_noise_db=10.0 if si else float("-inf"),
                               p_fa=1e-2, n_trials=40)
        for seed in (0, 5):
            got = block_profiles(sc, seed)
            assert got.tobytes() == oracle_profiles(sc, seed, 13).tobytes()
        counts = []
        for alpha in (1.5, 4.0, 10.0):
            pd, _, _ = detection_probability(sc, alpha, seed=3)
            hits = oracle_hits(sc, alpha, seed=3, chunk=13)
            assert pd * sc.n_trials == hits
            counts.append(hits)
        assert max(counts) > 0       # the comparison saw detections

    def test_calibration_matches_two_pass_means(self, qam64, ofdm64):
        d = Distribution.from_ring_mass(
            qam64, np.r_[0.4, np.zeros(7), 0.6])
        sc = DetectionScenario(qam64, d, ofdm64, p_fa=1e-2)
        for seed in (0, 9):
            got = calibrate_so_cfar(sc, n_cal=3000, seed=seed)
            assert got == oracle_alpha(sc, 3000, seed, chunk=13)

    def test_statistic_matches_two_pass_means(self, rng):
        profiles = rng.exponential(size=(5, 48))
        for ref, guard in [(16, 2), (4, 0), (3, 5)]:
            got = np.stack([side_means(p, ref, guard) for p in profiles])
            want = oracle_side_means(profiles, ref, guard)
            assert got.tobytes() == want.tobytes()


class TestWindowSums:
    """Shifted-slice window sums against ``np.mean`` over window views."""

    @pytest.mark.parametrize("ref", [1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 20,
                                     129, 130, 200])
    @pytest.mark.parametrize("guard", [0, 2])
    def test_side_means_bitwise_equal_to_two_pass_means(self, rng, ref,
                                                        guard):
        # every window length through each branch of the pairwise order
        # (sequential, eight accumulators plus leftovers, recursive split);
        # the NaN pads decide the edge cells, and the rows span six decades
        length = 2 * (ref + guard) + 11
        scales = np.array([1e-3, 1.0, 1e3, 1e-3, 1e3])[:, None]
        profiles = rng.exponential(size=(5, length)) * scales
        got = detection._side_means(profiles, ref, guard)
        want = oracle_side_means(profiles, ref, guard)
        assert got.tobytes() == want.tobytes()
        assert np.isfinite(got).all()


class TestProductionBatchOracle:
    """The oracle at ``_BLOCK_CELLS`` as shipped: at L = 64, 300 trials run
    as nine 32-row blocks and a 12-row one."""

    def test_profiles_and_hits(self, qam16, ofdm64):
        assert detection._BLOCK_CELLS == 2048
        d = Distribution.from_ring_mass(qam16, [0.125, 0.75, 0.125])
        sc = DetectionScenario(qam16, d, ofdm64, snr_db=12.0, p_fa=1e-2,
                               n_trials=300)
        assert rows_per_block(sc) == 32
        got = block_profiles(sc, 4)
        assert got.tobytes() == oracle_profiles(sc, 4, 32).tobytes()
        for alpha in (3.0, 8.0):
            pd, _, _ = detection_probability(sc, alpha, seed=4)
            assert pd == oracle_hits(sc, alpha, seed=4, chunk=32) / sc.n_trials


class TestStreamedCalibration:
    """The streamed quantile against np.quantile over every ratio at once."""

    @pytest.mark.parametrize("block_rows", [7, None])
    @pytest.mark.parametrize("p_fa,n_cal,length,seeds", [
        # t = 0.93; at seed 53 a + (b - a) t and b - (b - a)(1 - t) differ
        (1e-2, 3_000, 64, (0, 53)),
        # t = 0.05; at seed 24 the two forms differ
        (0.05, 2_000, 40, (3, 24)),
        (1e-3, 300_000, 64, (0,)),       # 147 blocks of up to 32 rows
        (1e-4, 100_000, 48, (0, 3)),
        (0.25, 185, 37, (0, 3)),         # (n - 1) q = 138 exactly
        (0.5, 37 * 4097, 37, (0,)),      # (n - 1) q = 75794; shipped: 55 rows
    ])
    def test_alpha_bitwise_equal_to_full_quantile(self, monkeypatch, qam16,
                                                  p_fa, n_cal, length, seeds,
                                                  block_rows):
        if block_rows is not None:
            monkeypatch.setattr(detection, "_BLOCK_CELLS", block_rows * length)
        sc = DetectionScenario(qam16, Distribution.uniform(qam16),
                               OFDMConfig(length), p_fa=p_fa)
        n = int(np.ceil(n_cal / length)) * length
        if p_fa >= 0.25:
            assert ((n - 1) * (1.0 - p_fa)).is_integer()
        for seed in seeds:
            got = calibrate_so_cfar(sc, n_cal=n_cal, seed=seed)
            want = oracle_alpha(sc, n_cal, seed, chunk=rows_per_block(sc))
            assert got == want

    def test_false_alarm_rate_bitwise_equal_to_full_count(self, monkeypatch,
                                                          qam64, uniform64,
                                                          ofdm64):
        monkeypatch.setattr(detection, "_BLOCK_CELLS", 100 * 64)
        sc = DetectionScenario(qam64, uniform64, ofdm64, p_fa=1e-2)
        for alpha, n_cells in [(3.0, 300_000), (8.0, 50_000), (0.5, 1_000)]:
            got = empirical_false_alarm_rate(sc, alpha, n_cells, seed=2)
            rng = np.random.default_rng(derive_seed(2, "cfar-evaluation"))
            ratios = oracle_ratios(sc, n_cells, rng, rows_per_block(sc))
            assert got == float(np.mean(ratios > alpha))

    def test_bounded_memory(self, qam16):
        sc = DetectionScenario(qam16, Distribution.uniform(qam16),
                               OFDMConfig(64), p_fa=1e-4)
        calibrate_so_cfar(sc, n_cal=100_000, seed=0)     # warm the imports
        tracemalloc.start()
        try:
            calibrate_so_cfar(sc, seed=0)                # 10^6 cells
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5e5, f"traced peak {peak / 1e6:.2f} MB"


# ---------------------------------------------------------------------------
# closed forms on a constant-modulus input: conj(x) * noise is white again,
# so the noise-only cells are i.i.d. exponential of mean L, and an echo
# leaks into no other cell.  Seeds and 4-SE bounds were fixed before the
# first run.


def so_cfar_pfa(alpha, n):
    """P_fa of an interior cell: both windows, smallest of (Weiss 1982)."""
    b = 2.0 + alpha / n
    return 2.0 * b ** -n * sum(comb(n - 1 + k, k) * b ** -k for k in range(n))


def pooled_pfa(alpha, sc):
    """P_fa averaged over every cell of the profile: edge cells have one
    complete window, a cell-averaging one of n cells."""
    n, length = sc.ref_cells, sc.cfg.n_subcarriers
    interior = length - 2 * (n + sc.guard_cells)
    edge = (1.0 + alpha / n) ** -n
    return (interior * so_cfar_pfa(alpha, n)
            + (length - interior) * edge) / length


def pd_closed_form(alpha, sc):
    """E_G[ncx2.sf(2 alpha G / n; 2, 2 snr)], G ~ Gamma(n, 1): the target
    cell against its one complete window of n noise cells."""
    n, snr = sc.ref_cells, 10.0 ** (sc.snr_db / 10.0)
    return integrate.quad(
        lambda g: stats.ncx2.sf(2.0 * alpha * g / n, 2, 2.0 * snr)
        * stats.gamma.pdf(g, n), 0.0, np.inf)[0]


class TestConstantModulusClosedForms:
    @pytest.fixture
    def scenario(self, psk8, ofdm64):
        return DetectionScenario(psk8, Distribution.uniform(psk8), ofdm64,
                                 p_fa=1e-3, n_trials=2000)

    def alpha_star(self, sc):
        return optimize.brentq(lambda a: pooled_pfa(a, sc) - sc.p_fa,
                               1.0, 100.0, xtol=1e-12)

    def test_false_alarm_rate(self, scenario):
        sc = scenario
        alpha = self.alpha_star(sc)
        length = sc.cfg.n_subcarriers
        n_cal = int(np.ceil(DEFAULT_CAL_FACTOR / sc.p_fa / length)) * length
        calibrated = calibrate_so_cfar(sc, seed=0)
        se = np.sqrt(sc.p_fa * (1.0 - sc.p_fa) / n_cal)
        assert abs(pooled_pfa(calibrated, sc) - sc.p_fa) <= 4.0 * se
        n_cells = 1_000_000
        rate = empirical_false_alarm_rate(sc, alpha, n_cells, seed=1)
        se = np.sqrt(sc.p_fa * (1.0 - sc.p_fa) / n_cells)
        assert abs(rate - sc.p_fa) <= 4.0 * se

    def test_detection_probability(self, scenario):
        sc = scenario            # the target cell has no complete lead window
        assert sc.target_cell < sc.guard_cells + sc.ref_cells
        alpha = self.alpha_star(sc)
        for seed, snr_db in enumerate((6.0, 10.0, 14.0)):
            sc = replace(scenario, snr_db=snr_db)
            want = pd_closed_form(alpha, sc)
            pd, _, _ = detection_probability(sc, alpha, seed=seed)
            se = np.sqrt(want * (1.0 - want) / sc.n_trials)
            assert abs(pd - want) <= 4.0 * se, (snr_db, pd, want)


class TestWilson:
    def test_frozen_values(self):
        lo, hi = wilson_interval(50, 100)
        assert lo == pytest.approx(0.4038315303659956, abs=1e-12)
        assert hi == pytest.approx(0.5961684696340044, abs=1e-12)

    def test_extremes(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(0.07134759913335872, abs=1e-9)
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0
        assert lo == pytest.approx(0.9286524008666414, abs=1e-9)

    def test_monotone_in_hits(self):
        bounds = [wilson_interval(h, 40) for h in range(0, 41, 5)]
        centers = [(lo + hi) / 2 for lo, hi in bounds]
        assert all(a < b for a, b in zip(centers, centers[1:]))
