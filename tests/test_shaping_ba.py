"""Rate-maximizing shaper: solver pieces and end-to-end behavior.

Every piece is the code ``run_mba`` runs.  The ring-folded update is
compared with the per-point exponential-family update, the warm-started
match is compared with the cold one, the ring-table integrals are compared
with a per-point (Q, M) oracle, the one-pass ring tables with a two-pass
whole-table build (and the solves run on each), the posterior inside them
with a hand-computed Bayes rule, and the Monte-Carlo integrals are
validated against Gauss-Hermite quadrature.  End-to-end runs are pinned to the cases
with independently known answers: the uniform fourth moment must return the
uniform distribution, the lower endpoint must collapse to the unit-power
rings, and the objective trace must never decrease.
"""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from ofdmpcs import shaping_ba
from ofdmpcs import (
    ChannelSpec,
    Constellation,
    Distribution,
    MBAConfig,
    feasible_c0_range,
    make_constellation,
    moment,
    mutual_information,
    run_mba,
    shaping,
    solve_heuristic,
)
from ofdmpcs.shaping import RESIDUAL_TOL, match_ring_masses
from ofdmpcs.rates import logsumexp
from ofdmpcs.seeds import derive_seed
from ofdmpcs.shaping_ba import RingTables, ring_integrals, ring_tables


def ring_system(c):
    """Squared and fourth-power ring amplitudes and log ring counts."""
    a2 = c.ring_amps ** 2
    return a2, a2 ** 2, np.log(c.ring_counts.astype(float))


def integrals_at(c, mass, y, sigma2):
    """Ring integrals under ring masses ``mass`` for samples ``y`` drawn under
    the uniform input."""
    return ring_integrals(ring_tables(c, y, sigma2), np.asarray(mass, float))


def per_point_integrals(c, mass, y, sigma2):
    """Oracle: the same integrals point by point on (Q, M) tables.

    Each point's importance-weighted mean of log q(x | y) over the samples,
    then its ring's mean, with no reassociation onto ring tables.
    """
    y = np.asarray(y, dtype=complex).ravel()
    p = (np.asarray(mass, float) / c.ring_counts)[c.ring_index]
    loglik = -np.abs(c.points[:, None] - y[None, :]) ** 2 / sigma2 \
        - np.log(np.pi * sigma2)
    weights = np.exp(loglik - scipy_logsumexp(loglik, axis=0, b=1.0 / c.order))
    with np.errstate(divide="ignore"):
        logp = np.log(p)
    log_mix = scipy_logsumexp(loglik + logp[:, None], axis=0)
    logq = logp[:, None] + loglik - log_mix[None, :]
    # a dead entry the sample cannot reach contributes 0, not 0 * -inf
    reached = np.isfinite(logq) | (weights != 0.0)
    terms = np.multiply(weights, logq, out=np.zeros_like(logq), where=reached)
    u_pt = np.where(p > 0, np.mean(terms, axis=1), -np.inf)
    return np.array([np.mean(u_pt[c.ring_index == w])
                     for w in range(c.n_rings)])


def whole_ring_tables(c, y, sigma2):
    """Oracle: the ring tables in two passes over each ring's whole
    (points, M) table, the per-point weights formed once the uniform
    mixture is known and averaged point by point."""
    rings = [c.points[c.ring_index == w] for w in range(c.n_rings)]

    def loglik(pts):
        return -np.abs(pts[:, None] - y[None, :]) ** 2 / sigma2 \
            - np.log(np.pi * sigma2)

    log_lik = np.stack([logsumexp(loglik(pts), axis=0) for pts in rings])
    log_mix = logsumexp(log_lik, axis=0) - np.log(c.order)
    weights = [np.exp(loglik(pts) - log_mix) for pts in rings]
    weight = np.stack([w.mean(axis=0) for w in weights])
    weighted = np.array([np.mean(w * loglik(pts))
                         for w, pts in zip(weights, rings)])
    return RingTables(counts=c.ring_counts.astype(float), log_lik=log_lik,
                      weight=weight, weight_mean=weight.mean(axis=1),
                      weighted_log_lik=weighted)


def uniform_samples(c, sigma2, n, seed):
    rng = np.random.default_rng(seed)
    s = np.sqrt(sigma2 / 2)
    return c.points[rng.integers(c.order, size=n)] \
        + rng.normal(scale=s, size=n) + 1j * rng.normal(scale=s, size=n)


@pytest.fixture(scope="module")
def realistic_u(qam16):
    d = Distribution.uniform(qam16)
    spec = ChannelSpec(0.01)
    rng = np.random.default_rng(88)
    idx = rng.choice(16, 4000, p=d.per_point)
    s = np.sqrt(spec.noise_power / 2)
    y = qam16.points[idx] + rng.normal(scale=s, size=4000) + 1j * rng.normal(
        scale=s, size=4000)
    _, _, log_counts = ring_system(qam16)
    return integrals_at(qam16, d.ring_mass, y, spec.noise_power) + log_counts


class TestMultiplierSystem:
    def test_ring_update_equals_per_point_update(self, qam16, realistic_u):
        # the solver folds each ring's point count into its exponent and
        # works on ring amplitudes; unfolded, the same multipliers must solve
        # the per-point system, and the per-point update summed per ring must
        # give the ring update
        c0 = 1.18
        a2, a4, log_counts = ring_system(qam16)
        mass, lam = match_ring_masses(qam16, realistic_u, c0)

        u_pt = (realistic_u - log_counts)[qam16.ring_index]
        a2_pt = qam16.amplitudes ** 2
        p = np.exp(u_pt - lam[0] * a2_pt**2 - lam[1] * a2_pt)
        p /= p.sum()
        assert p @ a2_pt == pytest.approx(1.0, abs=1e-10)
        assert p @ a2_pt**2 == pytest.approx(c0, abs=1e-10)
        np.testing.assert_allclose(
            mass, np.bincount(qam16.ring_index, weights=p), rtol=1e-12)


class TestRingTables:
    @pytest.mark.parametrize("order,sigma2", [(16, 0.1), (64, 0.05),
                                              (256, 0.02)])
    def test_matches_per_point_oracle(self, order, sigma2):
        # the ring tables reassociate the per-point sums; at uniform, shaped
        # and dead-ring masses they must give the oracle's integrals
        c = make_constellation("qam", order)
        y = uniform_samples(c, sigma2, 600, seed=order)
        tables = ring_tables(c, y, sigma2)
        shaped = solve_heuristic(c, 1.15).ring_mass
        dead = shaped.copy()
        dead[[0, c.n_rings - 1]] = 0.0
        dead /= dead.sum()
        for mass in (c.ring_counts / c.order, shaped, dead):
            got = ring_integrals(tables, mass)
            want = per_point_integrals(c, mass, y, sigma2)
            np.testing.assert_array_equal(np.isneginf(got), mass == 0)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_tables_are_ring_reductions(self, qam64):
        # each table row reduces its ring's points, and nothing else
        sigma2 = 0.05
        y = uniform_samples(qam64, sigma2, 300, seed=5)
        t = ring_tables(qam64, y, sigma2)
        lik = np.exp(-np.abs(qam64.points[:, None] - y[None, :]) ** 2
                     / sigma2) / (np.pi * sigma2)
        w = lik / lik.mean(axis=0)
        for r in range(qam64.n_rings):
            pts = qam64.ring_index == r
            np.testing.assert_allclose(t.log_lik[r],
                                       np.log(lik[pts].sum(axis=0)),
                                       rtol=1e-12)
            np.testing.assert_allclose(t.weight[r], w[pts].mean(axis=0),
                                       rtol=1e-12)
            assert t.weighted_log_lik[r] == pytest.approx(
                np.mean(w[pts] * np.log(lik[pts])), rel=1e-12)
        assert t.log_lik.shape == t.weight.shape == (qam64.n_rings, 300)

    @pytest.mark.parametrize("block", [3, 7, 256, None])
    @pytest.mark.parametrize("order,sigma2,m", [(16, 0.1, 2500),
                                                (256, 0.02, 1025)])
    def test_blocks_are_bitwise_the_whole_table(self, monkeypatch, order,
                                                sigma2, m, block):
        # every blocked build is bitwise the one-block build; at 1025
        # samples a block of 1024 would leave a one-sample block, which
        # numpy sums pairwise: the blocks are split evenly instead
        c = make_constellation("qam", order)
        y = uniform_samples(c, sigma2, m, seed=order)
        with monkeypatch.context() as one_block:
            one_block.setattr(shaping_ba, "_BLOCK_SAMPLES", m)
            whole = ring_tables(c, y, sigma2)
        if block is not None:
            monkeypatch.setattr(shaping_ba, "_BLOCK_SAMPLES", block)
        t = ring_tables(c, y, sigma2)
        oracle = whole_ring_tables(c, y, sigma2)
        for field in ("log_lik", "weight", "weight_mean",
                      "weighted_log_lik"):
            got = getattr(t, field)
            assert got.tobytes() == getattr(whole, field).tobytes(), field
            np.testing.assert_allclose(got, getattr(oracle, field),
                                       rtol=1e-13, err_msg=field)

    @pytest.mark.parametrize("order,m", [(16, 2500), (256, 1025)])
    def test_each_ring_block_evaluated_once(self, monkeypatch, order, m):
        # one likelihood table per (ring, block): the weights are read off
        # the ring log-likelihoods, not recomputed point by point
        calls = []
        log_likelihood = shaping_ba._log_likelihood
        monkeypatch.setattr(shaping_ba, "_log_likelihood",
                            lambda *a: calls.append(a) or log_likelihood(*a))
        c = make_constellation("qam", order)
        ring_tables(c, uniform_samples(c, 0.05, m, seed=1), 0.05)
        n_blocks = -(-m // shaping_ba._BLOCK_SAMPLES)
        assert len(calls) == c.n_rings * n_blocks

    def test_build_memory_is_bounded(self, qam16):
        # one block of likelihoods per ring and the W x M tables
        sigma2 = 0.05
        y = uniform_samples(qam16, sigma2, 10_000, seed=2)
        ring_tables(qam16, y, sigma2)                   # warm the imports
        tracemalloc.start()
        try:
            ring_tables(qam16, y, sigma2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5e6, f"traced peak {peak / 1e6:.2f} MB"

    def test_run_mba_memory_is_bounded(self, qam16):
        # one block of likelihoods per ring is held, not a (points, M)
        # complex table
        cfg = MBAConfig(c0=1.1, noise_power=0.05, n_mc=10_000)
        run_mba(qam16, cfg, seed=0)                       # warm the imports
        tracemalloc.start()
        try:
            run_mba(qam16, cfg, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5e6, f"traced peak {peak / 1e6:.1f} MB"

    @pytest.mark.parametrize("order,sigma2,c0,n_mc", [
        (64, 0.05, 1.2, 2000), (64, 0.05, 1.3, 2000), (64, 0.05, 1.4, 2000),
        (256, 0.01, 1.2, 1000)])
    def test_run_mba_as_on_two_pass_tables(self, monkeypatch, order, sigma2,
                                           c0, n_mc):
        # the tight-stop solves the shaper benchmark runs, with the seeds
        # the CLI derives for them: on the two-pass oracle's tables the
        # iteration stops at the same step on the same masses
        c = make_constellation("qam", order)
        cfg = MBAConfig(c0=c0, noise_power=sigma2, n_mc=n_mc, outer_tol=1e-9)
        seed = derive_seed(0, f"shape[{c0:.9g}]")
        shipped = run_mba(c, cfg, seed=seed)
        monkeypatch.setattr(shaping_ba, "ring_tables", whole_ring_tables)
        oracle = run_mba(c, cfg, seed=seed)
        assert shipped.converged and oracle.converged
        assert shipped.iterations == oracle.iterations
        np.testing.assert_allclose(shipped.ring_mass, oracle.ring_mass,
                                   rtol=0, atol=1e-12)


class TestPosterior:
    def test_bayes_rule_by_hand(self, qam16, uniform16):
        # one sample: the ring integral is the ring mean of the importance
        # weight times log q(x | y)
        sigma2 = 0.3
        p = uniform16.per_point
        for y in (0.1 + 0.2j, -0.7 - 0.7j, 2.0 + 0.0j):
            u = integrals_at(qam16, uniform16.ring_mass, [y], sigma2)
            lik = np.exp(-np.abs(qam16.points - y) ** 2 / sigma2)
            q = p * lik / np.sum(p * lik)
            assert q.sum() == pytest.approx(1.0, abs=1e-12)
            weight = lik / np.mean(lik)
            want = np.bincount(qam16.ring_index, weights=weight * np.log(q)) \
                / qam16.ring_counts
            np.testing.assert_allclose(u, want, rtol=1e-12)

    def test_zero_prior_never_resurrects(self, qam16):
        y = qam16.points[:4] + 0.01  # near the (zeroed) inner ring
        u = integrals_at(qam16, [0.0, 1.0, 0.0], y, 0.5)
        # -inf integrals give the zeroed rings zero weight in every update
        assert np.isneginf(u[0]) and np.isneginf(u[2])
        assert np.isfinite(u[1])


class TestMonteCarloIntegrals:
    def test_point_mass_posterior_gives_zero(self):
        # all mass on the lone centre point: q(x|y) = 1 there and the
        # integral of log q vanishes; the ring it does not reach is -inf
        c = Constellation(family="custom", order=5,
                          ring_amps=np.array([0.0, np.sqrt(1.25)]),
                          ring_counts=np.array([1, 4]),
                          ring_index=np.array([0, 1, 1, 1, 1]),
                          phases=np.r_[0.0, 0.5 * np.pi * np.arange(4)])
        rng = np.random.default_rng(3)
        s = np.sqrt(0.1)
        y = rng.normal(scale=s, size=500) + 1j * rng.normal(scale=s, size=500)
        u = integrals_at(c, [1.0, 0.0], y, 0.2)
        assert u[0] == pytest.approx(0.0, abs=1e-12)
        assert np.isneginf(u[1])

    def test_matches_quadrature(self, qam16, uniform16):
        # E_{y|x} log q(x|y) via Gauss-Hermite, averaged over each ring,
        # against the importance-weighted Monte-Carlo route, for the uniform
        # sampler
        sigma2 = 0.15
        n = 60_000
        rng = np.random.default_rng(17)
        idx = rng.choice(16, n, p=uniform16.per_point)
        s = np.sqrt(sigma2 / 2)
        y = qam16.points[idx] + rng.normal(scale=s, size=n) + 1j * rng.normal(scale=s, size=n)
        u_mc = integrals_at(qam16, uniform16.ring_mass, y, sigma2)

        z, w = np.polynomial.hermite_e.hermegauss(80)
        w = w / np.sqrt(2 * np.pi)
        noise = np.sqrt(sigma2 / 2) * (z[:, None] + 1j * z[None, :]).ravel()
        ww = (w[:, None] * w[None, :]).ravel()
        want = np.empty(16)
        for x in range(16):
            yq = qam16.points[x] + noise
            lik = np.exp(-np.abs(qam16.points[:, None] - yq[None, :]) ** 2 / sigma2)
            qq = uniform16.per_point[:, None] * lik
            qq /= qq.sum(axis=0, keepdims=True)
            want[x] = np.sum(ww * np.log(qq[x]))
        want = np.bincount(qam16.ring_index, weights=want) / qam16.ring_counts
        np.testing.assert_allclose(u_mc, want, atol=0.01)


class TestWarmStart:
    C0 = 1.25
    SIGMA2 = 0.05

    @pytest.fixture(scope="class")
    def channel_u(self, qam64):
        # the shaper's first exponents on 64-QAM: integrals under the
        # uniform input, ring counts folded in
        y = uniform_samples(qam64, self.SIGMA2, 2000, seed=21)
        _, _, log_counts = ring_system(qam64)
        return integrals_at(qam64, qam64.ring_counts / qam64.order, y,
                            self.SIGMA2) + log_counts

    def test_warm_match_agrees_with_cold(self, qam64, channel_u):
        # both starts run the dual to its rounding floor, so the start
        # leaves no trace in the masses
        cold_mass, cold_lam = match_ring_masses(qam64, channel_u, self.C0)
        warm_mass, warm_lam = match_ring_masses(
            qam64, channel_u, self.C0, cold_lam + np.array([0.3, -0.4]))
        a2, a4, _ = ring_system(qam64)
        assert max(abs(warm_mass @ a4 - self.C0), abs(warm_mass @ a2 - 1.0),
                   abs(warm_mass.sum() - 1.0)) <= RESIDUAL_TOL
        np.testing.assert_allclose(warm_mass, cold_mass, rtol=0, atol=1e-14)
        np.testing.assert_allclose(warm_lam, cold_lam, rtol=0, atol=1e-9)

    def test_unusable_warm_start_takes_the_cold_path(self, qam64, channel_u):
        # far out every weight sits on the inner ring and the dual is flat
        # to rounding: the match starts again from zero
        cold_mass, cold_lam = match_ring_masses(qam64, channel_u, self.C0)
        mass, lam = match_ring_masses(qam64, channel_u, self.C0,
                                      np.array([1e3, 0.0]))
        np.testing.assert_allclose(mass, cold_mass, rtol=0, atol=1e-14)
        np.testing.assert_allclose(lam, cold_lam, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("warm", [None, (0.3, -0.2), (-1.0, 2.0)])
    def test_three_ring_masses_do_not_depend_on_the_start(self, qam16,
                                                          realistic_u, warm):
        # on three rings the moment rows fix the masses: (1/8, 3/4, 1/8) at
        # c0 = 1.16, to the last digits from any start and for any exponents
        for u in (np.log(qam16.ring_counts.astype(float)), realistic_u,
                  np.array([-2.1, 0.4, -0.9])):
            mass, lam = match_ring_masses(qam16, u, 1.16, warm)
            assert lam is not None
            np.testing.assert_allclose(mass, [0.125, 0.75, 0.125], rtol=0,
                                       atol=1e-15)

    def test_interior_run_converges_on_warm_starts(self, qam64,
                                                   monkeypatch):
        # every match of the run is a tilt: none falls back to the vertex
        vertices = []
        lp_match = shaping._lp_match
        monkeypatch.setattr(shaping, "_lp_match",
                            lambda *a: vertices.append(a) or lp_match(*a))
        cfg = MBAConfig(c0=1.2, noise_power=0.05, n_mc=2000, outer_tol=1e-9)
        res = run_mba(qam64, cfg, seed=0)
        assert res.converged and res.iterations > 10
        assert res.multipliers is not None and not vertices


class TestEndpointMultipliers:
    @pytest.mark.parametrize("order,n_mc", [(16, 2000), (256, 300)])
    def test_lower_endpoint_reports_no_multipliers(self, order, n_mc):
        # the multipliers diverge at an endpoint: whatever finite pair the
        # match stopped at (a grid corner on 256-QAM) is not reported
        c = make_constellation("qam", order)
        lo, _ = feasible_c0_range(c)
        res = run_mba(c, MBAConfig(c0=lo, noise_power=0.01, n_mc=n_mc), seed=3)
        assert res.converged
        assert res.multipliers is None

    def test_vertex_fallback_returns_no_multipliers(self):
        c = make_constellation("qam", 256)
        lo, _ = feasible_c0_range(c)
        mass, lam = match_ring_masses(c, np.log(c.ring_counts.astype(float)),
                                      lo)
        assert lam is None
        assert np.count_nonzero(mass) == 1

    @pytest.mark.parametrize("order,c0", [(16, 1.2), (64, 1.3), (256, 1.2)])
    def test_interior_solves_report_two_finite_multipliers(self, order, c0):
        c = make_constellation("qam", order)
        res = run_mba(c, MBAConfig(c0=c0, noise_power=0.02, n_mc=500), seed=4)
        lam = res.multipliers
        assert len(lam) == 2 and np.all(np.isfinite(lam))


class TestRunMba:
    def test_uniform_moment_recovers_uniform(self, qam16, uniform16):
        cfg = MBAConfig(c0=1.32, noise_power=0.01, n_mc=4000)
        res = run_mba(qam16, cfg, seed=1)
        assert res.converged
        np.testing.assert_allclose(res.ring_mass, uniform16.ring_mass, atol=2e-3)
        assert moment(qam16, res.distribution, 4) == pytest.approx(1.32,
                                                                   abs=1e-3)

    def test_lower_endpoint_collapses_inner_rings(self, qam16):
        cfg = MBAConfig(c0=1.0, noise_power=0.01, n_mc=4000)
        res = run_mba(qam16, cfg, seed=2)
        np.testing.assert_allclose(res.ring_mass, [0.0, 1.0, 0.0], atol=1e-3)

    def test_trace_is_monotone(self, qam16):
        cfg = MBAConfig(c0=1.15, noise_power=0.05, n_mc=3000)
        res = run_mba(qam16, cfg, seed=3)
        trace = np.asarray(res.trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) >= -1e-9)

    def test_exit_residuals_within_tolerance(self, qam64):
        cfg = MBAConfig(c0=1.2, noise_power=0.02, n_mc=3000)
        res = run_mba(qam64, cfg, seed=4)
        assert res.converged
        d = res.distribution
        assert abs(np.sum(d.ring_mass) - 1.0) <= 1e-4
        assert abs(moment(qam64, d, 2) - 1.0) <= 1e-4
        assert abs(moment(qam64, d, 4) - 1.2) <= 1e-4

    def test_ring_symmetry_of_solution(self, qam16):
        cfg = MBAConfig(c0=1.25, noise_power=0.05, n_mc=3000)
        res = run_mba(qam16, cfg, seed=5)
        per_point = res.distribution.per_point
        for w in range(3):
            ring = per_point[qam16.ring_index == w]
            np.testing.assert_allclose(ring, ring[0], rtol=1e-12)

    def test_near_endpoint_run_is_warning_free(self):
        # just above the 256-QAM lower endpoint the tilt leaves rings whose
        # point probability underflows to zero: the objective and the ring
        # integrals must agree that they are dead
        import warnings

        c = make_constellation("qam", 256)
        lo, _ = feasible_c0_range(c)
        cfg = MBAConfig(c0=lo + 1e-6, noise_power=0.01, n_mc=1000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_mba(c, cfg, seed=0)
        trace = np.asarray(res.trace)
        assert np.all(np.isfinite(trace))
        assert np.all(np.diff(trace) >= -1e-9)

    def test_infeasible_target_rejected(self, qam16):
        with pytest.raises(ValueError, match="feasible"):
            run_mba(qam16, MBAConfig(c0=3.0, noise_power=0.01, n_mc=1000))
        with pytest.raises(ValueError, match="feasible"):
            run_mba(qam16, MBAConfig(c0=0.5, noise_power=0.01, n_mc=1000))

    def test_deterministic_under_seed(self, qam16):
        cfg = MBAConfig(c0=1.18, noise_power=0.05, n_mc=1500)
        a = run_mba(qam16, cfg, seed=7)
        b = run_mba(qam16, cfg, seed=7)
        np.testing.assert_array_equal(a.ring_mass, b.ring_mass)
        np.testing.assert_array_equal(a.distribution.per_point,
                                      b.distribution.per_point)
        assert a.trace == b.trace

    def test_matches_heuristic_on_16qam(self, qam16):
        # three rings and two moment constraints leave no slack: the
        # rate-optimal and moment-matching answers must coincide
        for c0 in (1.05, 1.2, 1.32):
            opt = run_mba(qam16, MBAConfig(c0=c0, noise_power=0.01,
                                           n_mc=6000), seed=8)
            heur = solve_heuristic(qam16, c0)
            np.testing.assert_allclose(opt.ring_mass, heur.ring_mass, atol=1e-3)

    def test_rate_dominates_heuristic(self, qam64):
        c0 = 1.2
        cfg = MBAConfig(c0=c0, noise_power=0.01, n_mc=8000)
        opt = run_mba(qam64, cfg, seed=9)
        heur = solve_heuristic(qam64, c0)
        spec = ChannelSpec(0.01)
        heur_mi = mutual_information(qam64, heur.distribution, spec, n_mc=40_000,
                                     seed=10)
        opt_mi = mutual_information(qam64, opt.distribution, spec, n_mc=40_000,
                                    seed=10)
        slack = 3 * np.hypot(opt_mi.std_error, heur_mi.std_error)
        assert opt_mi.mi_bits >= heur_mi.mi_bits - slack

    def test_optimal_json_schema(self, cli_artifacts):
        # the CLI's shape_optimal.json: the multipliers second, null at an
        # endpoint, and no method tag (only the heuristic variant has one)
        import json

        ini = ("[constellation]\nfamily = qam\norder = 16\n"
               "[channel]\nsigma2 = 0.05\n[shaping]\nc0 = 1.2\n"
               "n_mc = 1500\nair_n_mc = 2000\n")
        interior, endpoint = (
            json.loads((cli_artifacts(ini, "shape", *flags)
                        / "shape_optimal.json").read_text())
            for flags in ((), ("--c0", "1.0")))
        assert list(interior) == ["c0", "lambda", "ring_mass", "air_bits",
                                  "converged", "iters", "trace"]
        assert len(interior["lambda"]) == 2
        assert np.all(np.isfinite(interior["lambda"]))
        assert list(endpoint) == list(interior)
        assert endpoint["lambda"] is None


class TestConfigValidation:
    def test_bad_noise(self):
        with pytest.raises(ValueError):
            MBAConfig(c0=1.2, noise_power=0.0)

    def test_small_sample_count(self):
        with pytest.raises(ValueError):
            MBAConfig(c0=1.2, noise_power=0.1, n_mc=10)

    @pytest.mark.parametrize("field", ["noise_power", "outer_tol"])
    def test_nan_rejected(self, field):
        # a NaN passed the old `<= 0` / `< 0` checks; a NaN outer_tol then
        # never stopped the loop
        with pytest.raises(ValueError, match=field):
            MBAConfig(**{"c0": 1.2, "noise_power": 0.1, field: float("nan")})

