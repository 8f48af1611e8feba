"""Rate-maximizing shaper: solver pieces and end-to-end behavior.

Every piece is the code ``run_mba`` runs.  The multiplier system has its
Jacobian checked against finite differences, the Newton iteration is
exercised on a known root, the grid scan is compared with a scalar loop,
the ring-folded update is compared with the per-point exponential-family
update, the posterior inside the update integrals is compared with a
hand-computed Bayes rule, and the Monte-Carlo integrals are validated against
Gauss-Hermite quadrature.  End-to-end runs are pinned to
the cases with independently known answers: the uniform fourth moment must
return the uniform distribution, the lower endpoint must collapse to the
unit-power rings, and the objective trace must never decrease.
"""
from __future__ import annotations

import numpy as np
import pytest

from ofdmpcs import (
    ChannelSpec,
    Distribution,
    MBAConfig,
    from_rings,
    moment,
    mutual_information,
    newton_solve,
    run_mba,
    solve_heuristic,
)
from ofdmpcs.shaping import _grid_scan_vec, _residual_system, match_ring_masses
from ofdmpcs.shaping_ba import (
    EXIT_RESIDUAL_TOL,
    _importance_weights,
    _log_likelihood,
    ring_integrals,
)


def ring_system(c):
    """Squared and fourth-power ring amplitudes and log ring counts."""
    a2 = c.ring_amps ** 2
    return a2, a2 ** 2, np.log(c.ring_counts.astype(float))


def integrals_at(c, p, y, sigma2, p_draw=None):
    """Ring integrals under per-point ``p`` for samples ``y`` drawn under
    ``p_draw`` (default ``p``)."""
    loglik = _log_likelihood(c, y, sigma2)
    w = _importance_weights(loglik, p if p_draw is None else p_draw)
    return ring_integrals(c, loglik, w, p)


def quadratic_system(lam1, lam2):
    f = np.array([lam1**2 - 2.0, lam2**2 - 3.0])
    jac = np.array([[2.0 * lam1, 0.0], [0.0, 2.0 * lam2]])
    return f, jac


def linear_system(lam1, lam2):
    m = np.array([[3.0, 1.0], [1.0, 2.0]])
    target = np.array([0.4, -1.1])
    f = m @ (np.array([lam1, lam2]) - target)
    return f, m


class TestNewton:
    def test_quadratic_root(self):
        res = newton_solve(quadratic_system, (1.0, 1.0))
        assert res.converged
        assert res.iterations <= 12
        np.testing.assert_allclose(res.lam, [np.sqrt(2.0), np.sqrt(3.0)], atol=1e-10)

    def test_linear_system_immediate(self):
        res = newton_solve(linear_system, (5.0, -7.0))
        assert res.converged
        assert res.iterations <= 3
        np.testing.assert_allclose(res.lam, [0.4, -1.1], atol=1e-12)

    def test_line_search_keeps_residual_monotone(self):
        # start far out on a steep quartic: raw Newton overshoots wildly
        def quartic(l1, l2):
            f = np.array([l1**4 - 1.0, l2**4 - 16.0])
            jac = np.array([[4.0 * l1**3, 0.0], [0.0, 4.0 * l2**3]])
            return f, jac

        res = newton_solve(quartic, (9.0, 0.3))
        assert res.converged
        np.testing.assert_allclose(np.abs(res.lam), [1.0, 2.0], atol=1e-9)

    def test_reports_failure_on_rootless_system(self):
        def hopeless(l1, l2):
            f = np.array([np.exp(-l1**2) + 1.0, l2])
            jac = np.array([[-2.0 * l1 * np.exp(-l1**2), 0.0], [0.0, 1.0]])
            return f, jac

        res = newton_solve(hopeless, (1.0, 1.0), max_iter=40)
        assert not res.converged


class TestGridInit:
    def test_finds_coarse_minimum(self, qam16):
        # plant the root: tilting u back by lam* gives the heuristic masses,
        # which meet both moments at c0 exactly
        c0, lam_star = 1.2, (0.32, -0.54)
        a2, a4, _ = ring_system(qam16)
        mass = solve_heuristic(qam16, c0).ring_mass
        u = np.log(mass) + lam_star[0] * a4 + lam_star[1] * a2
        axis = np.arange(-1.0, 1.0 + 0.05, 0.1)
        lam, norm = _grid_scan_vec(u, a2, a4, c0, axis, axis)

        # scalar oracle: the moment mismatch of each tilted candidate
        best, best_norm = None, np.inf
        for l1 in axis:
            for l2 in axis:
                g = np.exp(u - l1 * a4 - l2 * a2)
                g /= g.sum()
                r = np.hypot(g @ a2 - 1.0, g @ a4 - c0)
                if r < best_norm:
                    best, best_norm = (l1, l2), r
        assert tuple(lam) == best
        assert norm == pytest.approx(best_norm, rel=1e-9)
        assert np.all(np.abs(lam - lam_star) <= 0.1 + 1e-12)

    def test_tie_breaks_to_first_scan_point(self, qam16):
        # one live ring: every tilt gives the same point mass, so every grid
        # point ties and the scan must keep the first one
        a2, a4, _ = ring_system(qam16)
        u = np.array([0.0, -np.inf, -np.inf])
        lam, norm = _grid_scan_vec(u, a2, a4, 1.2, np.arange(-2.0, 2.25, 0.5),
                                   np.arange(-1.0, 1.25, 0.5))
        assert tuple(lam) == (-2.0, -1.0)
        assert norm == pytest.approx(np.hypot(a2[0] - 1.0, a4[0] - 1.2))


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
    return integrals_at(qam16, d.per_point, y, spec.noise_power) + log_counts


class TestMultiplierSystem:
    def test_jacobian_matches_finite_differences(self, qam16, realistic_u):
        # the raw pair (f, J) is derivative-consistent; the scaled variant
        # divides both by the same normalizer purely to keep the Newton
        # step well-conditioned, so the check runs on the raw system
        a2, a4, _ = ring_system(qam16)
        for lam in [(0.0, 0.0), (1.3, -0.7), (-2.0, 4.0)]:
            f0, jac = _residual_system(realistic_u, a2, a4, 1.1, lam[0], lam[1], scaled=False)
            h = 1e-5
            fd = np.empty((2, 2))
            for k in range(2):
                lp, lm = list(lam), list(lam)
                lp[k] += h
                lm[k] -= h
                fp, _ = _residual_system(realistic_u, a2, a4, 1.1, lp[0], lp[1], scaled=False)
                fm, _ = _residual_system(realistic_u, a2, a4, 1.1, lm[0], lm[1], scaled=False)
                fd[:, k] = (fp - fm) / (2 * h)
            np.testing.assert_allclose(jac, fd, rtol=1e-4, atol=1e-12)

    def test_scaled_residuals_are_tilt_invariant(self, qam16, realistic_u):
        # adding a constant to u rescales raw residuals but not scaled ones
        a2, a4, _ = ring_system(qam16)
        u = realistic_u
        f_raw, _ = _residual_system(u, a2, a4, 1.2, 0.4, -0.2, scaled=False)
        f_shift, _ = _residual_system(u + 2.5, a2, a4, 1.2, 0.4, -0.2,
                                      scaled=False)
        np.testing.assert_allclose(f_shift, np.exp(2.5) * f_raw, rtol=1e-9)

        s_raw, _ = _residual_system(u, a2, a4, 1.2, 0.4, -0.2, scaled=True)
        s_shift, _ = _residual_system(u + 2.5, a2, a4, 1.2, 0.4, -0.2,
                                      scaled=True)
        np.testing.assert_allclose(s_shift, s_raw, rtol=1e-9)

    def test_scaled_residuals_are_moment_mismatches(self, qam16, realistic_u):
        # at any multipliers, scaled residuals equal (E[A^2]-1, E[A^4]-c0)
        # under the tilted distribution
        a2, a4, _ = ring_system(qam16)
        lam1, lam2, c0 = -0.9, 1.7, 1.25
        g = np.exp(realistic_u - lam1 * a2**2 - lam2 * a2)
        g /= g.sum()
        f, _ = _residual_system(realistic_u, a2, a4, c0, lam1, lam2, scaled=True)
        assert f[0] == pytest.approx(np.sum(a2 * g) - 1.0, rel=1e-9)
        assert f[1] == pytest.approx(np.sum(a2**2 * g) - c0, rel=1e-9)

    def test_raw_residuals_overflow_guard(self, qam16, realistic_u):
        a2, a4, _ = ring_system(qam16)
        with pytest.raises(OverflowError):
            _residual_system(realistic_u, a2, a4, 1.2, -500.0, -500.0,
                             scaled=False)

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


class TestPosterior:
    def test_bayes_rule_by_hand(self, qam16, uniform16):
        # one sample at unit weight: the ring integral is the ring mean of
        # log q(x | y) itself
        sigma2 = 0.3
        p = uniform16.per_point
        for y in (0.1 + 0.2j, -0.7 - 0.7j, 2.0 + 0.0j):
            loglik = _log_likelihood(qam16, [y], sigma2)
            u = ring_integrals(qam16, loglik, np.ones_like(loglik), p)
            lik = np.exp(-np.abs(qam16.points - y) ** 2 / sigma2)
            q = p * lik / np.sum(p * lik)
            assert q.sum() == pytest.approx(1.0, abs=1e-12)
            want = np.bincount(qam16.ring_index, weights=np.log(q)) \
                / qam16.ring_counts
            np.testing.assert_allclose(u, want, rtol=1e-12)

    def test_zero_prior_never_resurrects(self, qam16):
        d = Distribution.from_ring_mass(qam16, [0.0, 1.0, 0.0])
        y = qam16.points[:4] + 0.01  # near the (zeroed) inner ring
        u = integrals_at(qam16, d.per_point, y, 0.5)
        # -inf integrals give the zeroed rings zero weight in every update
        assert np.isneginf(u[0]) and np.isneginf(u[2])
        assert np.isfinite(u[1])


class TestMonteCarloIntegrals:
    def test_point_mass_posterior_gives_zero(self):
        # all mass on the lone centre point: q(x|y) = 1 there and the
        # integral of log q vanishes; the ring it does not reach is -inf
        c = from_rings([0.0, 1.0], [1, 4])
        p = np.array([1.0, 0.0, 0.0, 0.0, 0.0])
        rng = np.random.default_rng(3)
        s = np.sqrt(0.1)
        y = rng.normal(scale=s, size=500) + 1j * rng.normal(scale=s, size=500)
        u = integrals_at(c, p, y, 0.2)
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
        u_mc = integrals_at(qam16, uniform16.per_point, y, sigma2)

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


class TestRunMba:
    def test_uniform_moment_recovers_uniform(self, qam16, uniform16):
        cfg = MBAConfig(c0=1.32, noise_power=0.01, n_mc=4000, air_n_mc=2000)
        res = run_mba(qam16, cfg, seed=1)
        assert res.converged
        np.testing.assert_allclose(res.ring_mass, uniform16.ring_mass, atol=2e-3)
        assert res.moment4 == pytest.approx(1.32, abs=1e-3)

    def test_lower_endpoint_collapses_inner_rings(self, qam16):
        cfg = MBAConfig(c0=1.0, noise_power=0.01, n_mc=4000, air_n_mc=2000)
        res = run_mba(qam16, cfg, seed=2)
        np.testing.assert_allclose(res.ring_mass, [0.0, 1.0, 0.0], atol=1e-3)

    def test_trace_is_monotone(self, qam16):
        cfg = MBAConfig(c0=1.15, noise_power=0.05, n_mc=3000, air_n_mc=2000)
        res = run_mba(qam16, cfg, seed=3)
        trace = np.asarray(res.trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) >= -1e-9)

    def test_exit_residuals_within_tolerance(self, qam64):
        cfg = MBAConfig(c0=1.2, noise_power=0.02, n_mc=3000, air_n_mc=2000)
        res = run_mba(qam64, cfg, seed=4)
        assert res.converged
        d = res.distribution
        assert abs(np.sum(d.ring_mass) - 1.0) <= EXIT_RESIDUAL_TOL
        assert abs(moment(qam64, d, 2) - 1.0) <= EXIT_RESIDUAL_TOL
        assert abs(res.moment4 - 1.2) <= EXIT_RESIDUAL_TOL

    def test_ring_symmetry_of_solution(self, qam16):
        cfg = MBAConfig(c0=1.25, noise_power=0.05, n_mc=3000, air_n_mc=2000)
        res = run_mba(qam16, cfg, seed=5)
        per_point = res.distribution.per_point
        for w in range(3):
            ring = per_point[qam16.ring_index == w]
            np.testing.assert_allclose(ring, ring[0], rtol=1e-12)

    def test_infeasible_target_rejected(self, qam16):
        with pytest.raises(ValueError, match="feasible"):
            run_mba(qam16, MBAConfig(c0=3.0, noise_power=0.01, n_mc=1000))
        with pytest.raises(ValueError, match="feasible"):
            run_mba(qam16, MBAConfig(c0=0.5, noise_power=0.01, n_mc=1000))

    def test_deterministic_under_seed(self, qam16):
        cfg = MBAConfig(c0=1.18, noise_power=0.05, n_mc=1500, air_n_mc=2000)
        a = run_mba(qam16, cfg, seed=7)
        b = run_mba(qam16, cfg, seed=7)
        np.testing.assert_array_equal(a.ring_mass, b.ring_mass)
        assert a.air_bits == b.air_bits
        assert a.trace == b.trace

    def test_matches_heuristic_on_16qam(self, qam16):
        # three rings and two moment constraints leave no slack: the
        # rate-optimal and moment-matching answers must coincide
        for c0 in (1.05, 1.2, 1.32):
            opt = run_mba(qam16, MBAConfig(c0=c0, noise_power=0.01, n_mc=6000,
                                           air_n_mc=2000), seed=8)
            heur = solve_heuristic(qam16, c0)
            np.testing.assert_allclose(opt.ring_mass, heur.ring_mass, atol=1e-3)

    def test_rate_dominates_heuristic(self, qam64):
        c0 = 1.2
        cfg = MBAConfig(c0=c0, noise_power=0.01, n_mc=8000, air_n_mc=40_000)
        opt = run_mba(qam64, cfg, seed=9)
        heur = solve_heuristic(qam64, c0)
        spec = ChannelSpec(0.01)
        heur_mi = mutual_information(qam64, heur.distribution, spec, n_mc=40_000,
                                     seed=10)
        opt_mi = mutual_information(qam64, opt.distribution, spec, n_mc=40_000,
                                    seed=10)
        slack = 3 * np.hypot(opt_mi.std_error, heur_mi.std_error)
        assert opt_mi.mi_bits >= heur_mi.mi_bits - slack

    def test_optimal_json_schema(self, qam16):
        import json

        cfg = MBAConfig(c0=1.2, noise_power=0.05, n_mc=1500, air_n_mc=2000)
        res = run_mba(qam16, cfg, seed=11)
        parsed = json.loads(res.to_json())
        assert len(parsed["lambda"]) == 2
        assert {"c0", "lambda", "ring_mass", "air_bits", "converged", "iters",
                "trace"} <= set(parsed)
        assert "method" not in parsed  # only the heuristic variant tags itself


class TestConfigValidation:
    def test_bad_noise(self):
        with pytest.raises(ValueError):
            MBAConfig(c0=1.2, noise_power=0.0)

    def test_small_sample_count(self):
        with pytest.raises(ValueError):
            MBAConfig(c0=1.2, noise_power=0.1, n_mc=10)

    def test_small_rate_sample_count(self):
        with pytest.raises(ValueError, match="air_n_mc"):
            MBAConfig(c0=1.2, noise_power=0.1, air_n_mc=999)
