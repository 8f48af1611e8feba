"""Rate-maximizing shaper: solver pieces and end-to-end behavior.

Every piece is the code ``run_mba`` runs.  The ring-folded update is
compared with the per-point exponential-family update, the warm-started
match is compared with the cold one, the factored, orbit-folded ring
integrals with a per-point evaluation at the same nodes
(``oracles.trapezoid_ring_integrals``) and with a hand-computed Bayes rule,
and the rate with Gauss-Hermite quadrature (``oracles.gh_mutual_information``,
96 nodes).  End-to-end runs are pinned to the cases with independently
known answers: the certified optima of the shaper benchmark's solves, the
uniform fourth moment must return the uniform distribution, the lower
endpoint must collapse to the unit-power rings, and the objective trace
must never decrease.
"""
from __future__ import annotations

import tracemalloc
import warnings

import numpy as np
import pytest

from ofdmpcs import shaping_ba
from ofdmpcs import (
    Constellation,
    Distribution,
    feasible_c0_range,
    make_constellation,
    moment,
    run_mba,
    shaping,
    solve_heuristic,
)
from ofdmpcs.rates import _lattice, _ring_rates, log_probs, rate_bits
from ofdmpcs.shaping import RESIDUAL_TOL, match_ring_masses
from oracles import gh_mutual_information, trapezoid_ring_integrals

LN2 = np.log(2.0)


def ring_system(c):
    """Squared and fourth-power ring amplitudes and log ring counts."""
    a2 = c.ring_amps ** 2
    return a2, a2 ** 2, np.log(c.ring_counts.astype(float))


def integrals_at(c, mass, sigma2):
    """The ring integrals ``run_mba`` updates with, under ring masses
    ``mass``: ``log p_w + Dbar_w``, ``-inf`` on a ring of zero mass."""
    point_prob = np.asarray(mass, float) / c.ring_counts
    return log_probs(point_prob) + _ring_rates(_lattice(c, sigma2), point_prob)


@pytest.fixture(scope="module")
def realistic_u(qam16):
    _, _, log_counts = ring_system(qam16)
    return integrals_at(qam16, Distribution.uniform(qam16).ring_mass,
                        0.01) + log_counts


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
    """The per-call tables of the quadrature (``_Lattice``: factor
    matrices, lattice cells, one representative per D4 orbit) and the ring
    integrals read off them."""

    @pytest.mark.parametrize("order,sigma2", [(16, 0.1), (64, 0.05),
                                              (256, 0.02)])
    def test_matches_per_point_oracle(self, order, sigma2):
        # factoring and orbit folding reassociate the per-point sums; at
        # uniform, shaped and dead-ring masses they must give the oracle's
        # integrals
        c = make_constellation("qam", order)
        shaped = solve_heuristic(c, 1.15).distribution.ring_mass
        dead = shaped.copy()
        dead[[0, c.n_rings - 1]] = 0.0
        dead /= dead.sum()
        masses = [c.ring_counts / c.order, shaped, dead]
        for mass in masses[:1] if order == 256 else masses:
            got = integrals_at(c, mass, sigma2)
            want = trapezoid_ring_integrals(c, mass, sigma2)
            np.testing.assert_array_equal(np.isneginf(got), mass == 0)
            np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_tables_are_ring_reductions(self):
        # one representative per D4 orbit, each on its own ring's points:
        # the orbit shares of each ring add up to the whole ring
        for order, orbits in ((9, 3), (16, 3), (64, 10), (256, 36)):
            c = make_constellation("qam", order)
            lat = _lattice(c, 0.05)
            assert lat.reps.shape == (2, orbits)
            n = lat.cells.shape[0]
            assert n * n == order and lat.factors.shape == (n, 53, n)
            np.testing.assert_allclose(
                np.bincount(lat.rep_ring, weights=lat.rep_share,
                            minlength=c.n_rings), 1.0, rtol=1e-15)
            # a point's own term is exactly 1 on every node
            for a in range(n):
                assert np.all(lat.factors[a][:, a] == 1.0)

    def test_build_memory_is_bounded(self):
        # the factors are (n, 53, n): 108 KB on 256-QAM
        c = make_constellation("qam", 256)
        _lattice(c, 0.01)                                # warm the imports
        tracemalloc.start()
        try:
            _lattice(c, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.5e6, f"traced peak {peak / 1e6:.2f} MB"

    def test_run_mba_memory_is_bounded(self):
        # the shaper benchmark's 256-QAM solve; the sample-set engine it
        # replaced peaked at 1.31 MB here
        c = make_constellation("qam", 256)
        cfg = dict(c0=1.2, noise_power=0.01, outer_tol=1e-9)
        run_mba(c, **cfg)                                # warm the imports
        tracemalloc.start()
        try:
            run_mba(c, **cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.31e6, f"traced peak {peak / 1e6:.2f} MB"

    @pytest.mark.parametrize("order,sigma2,c0,max_outer", [
        (16, 0.05, 1.2, 300), (64, 0.05, 1.2, 3), (64, 0.05, 1.4, 3)])
    def test_run_mba_as_on_per_point_integrals(self, monkeypatch, order,
                                               sigma2, c0, max_outer):
        # on the per-point oracle's integrals the iteration takes the same
        # steps to the same masses: to the tight stop on 16-QAM, and for the
        # first three updates, where the masses move the most, of two
        # shaper benchmark solves (the oracle takes ~0.1 s a call there)
        c = make_constellation("qam", order)
        cfg = dict(c0=c0, noise_power=sigma2, outer_tol=1e-9,
                   max_outer=max_outer)
        shipped = run_mba(c, **cfg)

        def oracle_rates(lat, point_prob):
            u = trapezoid_ring_integrals(c, point_prob * c.ring_counts, sigma2)
            live = point_prob > 0
            return np.where(live, u - log_probs(point_prob), 0.0)

        monkeypatch.setattr(shaping_ba, "_ring_rates", oracle_rates)
        oracle = run_mba(c, **cfg)
        assert shipped.iterations == oracle.iterations
        assert shipped.converged == oracle.converged
        np.testing.assert_allclose(shipped.distribution.ring_mass,
                                   oracle.distribution.ring_mass,
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("order", [16, 64, 256])
    @pytest.mark.parametrize("sigma2", [1.0, 0.05, 0.01, 0.002])
    def test_rate_matches_gauss_hermite(self, order, sigma2):
        # the trapezoidal nodes against 96 Gauss-Hermite nodes on the
        # maximum-entropy input at c0 = 1.2
        c = make_constellation("qam", order)
        d = solve_heuristic(c, 1.2).distribution
        got = rate_bits(c, d, sigma2)
        assert got == pytest.approx(gh_mutual_information(c, d, sigma2),
                                    abs=1e-6)

    def test_non_square_lattice_rejected(self):
        # a centre point and four at unit-power-ish radius: two rings, no
        # square lattice
        c = Constellation(family="custom", order=5,
                          ring_amps=np.array([0.0, np.sqrt(1.25)]),
                          ring_counts=np.array([1, 4]),
                          ring_index=np.array([0, 1, 1, 1, 1]),
                          phases=np.r_[0.0, 0.5 * np.pi * np.arange(4)])
        with pytest.raises(ValueError, match="square QAM lattice"):
            run_mba(c, c0=1.25, noise_power=0.1)
        # 16 points on two rings, rotated off the lattice
        phases = np.r_[np.arange(8), np.arange(8) + 0.5] * np.pi / 4
        ring = np.repeat([0, 1], 8)
        c = Constellation(family="apsk", order=16,
                          ring_amps=np.sqrt([0.5, 1.5]),
                          ring_counts=np.array([8, 8]), ring_index=ring,
                          phases=phases)
        with pytest.raises(ValueError, match="square QAM lattice"):
            run_mba(c, c0=1.25, noise_power=0.1)

    @pytest.mark.parametrize("family,order", [("psk", 8), ("qam", 4)])
    def test_one_ring_input_needs_no_integrals(self, monkeypatch, family,
                                               order):
        monkeypatch.setattr(shaping_ba, "_lattice", None)    # never called
        c = make_constellation(family, order)
        res = run_mba(c, c0=1.0, noise_power=0.1)
        assert res.converged and res.iterations == 0 and res.trace == []
        np.testing.assert_array_equal(res.distribution.ring_mass, [1.0])
        assert res.multipliers is None


class TestPosterior:
    def test_bayes_rule_by_hand(self, qam16):
        # at each node y = x + sigma (s + j t) the posterior of x is the
        # Bayes rule; its weighted log mean over the nodes, averaged over
        # each ring, is the ring integral
        sigma2 = 0.3
        mass = np.array([0.3, 0.5, 0.2])
        p = Distribution.from_ring_mass(qam16, mass).per_point
        s = np.arange(-26, 27) / 4.0
        w = np.exp(-s[:, None] ** 2 - s[None, :] ** 2).ravel()
        w /= w.sum()
        y_off = np.sqrt(sigma2) * (s[:, None] + 1j * s[None, :]).ravel()
        want = np.empty(16)
        for x in range(16):
            lik = np.exp(-np.abs(qam16.points[:, None]
                                 - (qam16.points[x] + y_off)) ** 2 / sigma2)
            q = p[:, None] * lik / np.sum(p[:, None] * lik, axis=0)
            np.testing.assert_allclose(q.sum(axis=0), 1.0, rtol=1e-12)
            want[x] = w @ np.log(q[x])
        want = np.bincount(qam16.ring_index, weights=want) / qam16.ring_counts
        np.testing.assert_allclose(integrals_at(qam16, mass, sigma2), want,
                                   rtol=1e-11)

    def test_zero_prior_never_resurrects(self, qam16):
        u = integrals_at(qam16, [0.0, 1.0, 0.0], 0.5)
        # -inf integrals give the zeroed rings zero weight in every update
        assert np.isneginf(u[0]) and np.isneginf(u[2])
        assert np.isfinite(u[1])


class TestQuadratureIntegrals:
    def test_point_mass_posterior_gives_zero(self):
        # all mass on the lone centre point of 9-QAM: q(x|y) = 1 there and
        # the integral of log q vanishes; the rings it does not reach are
        # -inf, and the rate is 0
        c = make_constellation("qam", 9)
        u = integrals_at(c, [1.0, 0.0, 0.0], 0.2)
        assert u[0] == 0.0
        assert np.isneginf(u[1:]).all()
        assert rate_bits(c, Distribution.from_ring_mass(c, [1.0, 0.0, 0.0]),
                         0.2) == 0.0

    def test_matches_quadrature(self, qam16, uniform16):
        # E_{y|x} log q(x|y) via 80 Gauss-Hermite nodes, averaged over each
        # ring, against the trapezoidal ring integrals
        sigma2 = 0.15
        z, w = np.polynomial.hermite_e.hermegauss(80)
        w = w / np.sqrt(2 * np.pi)
        noise = np.sqrt(sigma2 / 2) * (z[:, None] + 1j * z[None, :]).ravel()
        ww = (w[:, None] * w[None, :]).ravel()
        want = np.empty(16)
        for x in range(16):
            yq = qam16.points[x] + noise
            lik = np.exp(-np.abs(qam16.points[:, None] - yq[None, :]) ** 2
                         / sigma2)
            qq = uniform16.per_point[:, None] * lik
            qq /= qq.sum(axis=0, keepdims=True)
            want[x] = np.sum(ww * np.log(qq[x]))
        want = np.bincount(qam16.ring_index, weights=want) / qam16.ring_counts
        got = integrals_at(qam16, uniform16.ring_mass, sigma2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_subnormal_point_probability(self, qam64):
        # a ring whose point probability is subnormal keeps a finite
        # integral: its own term is exactly 1, so log M >= log p, and the
        # integral of log q(x|y) stays at or below 0
        counts = qam64.ring_counts
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tiny in (1e-310, 5e-324):
                mass = counts / qam64.order
                mass[4] = tiny * counts[4]
                assert 0.0 < mass[4] / counts[4] < np.finfo(float).tiny
                u = integrals_at(qam64, mass, 0.01)
                assert np.all(np.isfinite(u))
                assert np.all(u <= 1e-12)


class TestWarmStart:
    C0 = 1.25
    SIGMA2 = 0.05

    @pytest.fixture(scope="class")
    def channel_u(self, qam64):
        # the shaper's first exponents on 64-QAM: integrals under the
        # uniform input, ring counts folded in
        _, _, log_counts = ring_system(qam64)
        return integrals_at(qam64, qam64.ring_counts / qam64.order,
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
        cfg = dict(c0=1.2, noise_power=0.05, outer_tol=1e-9)
        res = run_mba(qam64, **cfg)
        assert res.converged and res.iterations > 10
        assert res.multipliers is not None and not vertices


class TestEndpointMultipliers:
    @pytest.mark.parametrize("order", [16, 256])
    def test_lower_endpoint_reports_no_multipliers(self, order):
        # the multipliers diverge at an endpoint: whatever finite pair the
        # match stopped at (a grid corner on 256-QAM) is not reported
        c = make_constellation("qam", order)
        lo, _ = feasible_c0_range(c)
        res = run_mba(c, c0=lo, noise_power=0.01)
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
        res = run_mba(c, c0=c0, noise_power=0.02)
        lam = res.multipliers
        assert len(lam) == 2 and np.all(np.isfinite(lam))


class TestRunMba:
    @pytest.mark.parametrize("order,sigma2,c0,optimum", [
        (64, 0.05, 1.2, 3.98627), (64, 0.05, 1.4, 4.12341),
        (256, 0.01, 1.2, 6.07182)])
    def test_tight_stop_reaches_the_certified_optimum(self, order, sigma2,
                                                      c0, optimum):
        # the optima certified by a Frank-Wolfe gap <= 1e-7 bit, scored by
        # the 96-node Gauss-Hermite rate; the maximum-entropy input at the
        # same c0 is feasible, so it cannot score higher
        c = make_constellation("qam", order)
        res = run_mba(c, c0=c0, noise_power=sigma2, outer_tol=1e-9)
        assert res.converged
        got = gh_mutual_information(c, res.distribution, sigma2)
        assert got == pytest.approx(optimum, abs=1e-5)
        heur = gh_mutual_information(c, solve_heuristic(c, c0).distribution,
                                     sigma2)
        assert got >= heur

    def test_trace_is_the_rate(self, qam64):
        res = run_mba(qam64, c0=1.3, noise_power=0.02)
        assert res.trace[-1] / LN2 == pytest.approx(
            gh_mutual_information(qam64, res.distribution, 0.02), abs=1e-6)

    def test_uniform_moment_recovers_uniform(self, qam16, uniform16):
        cfg = dict(c0=1.32, noise_power=0.01)
        res = run_mba(qam16, **cfg)
        assert res.converged
        np.testing.assert_allclose(res.distribution.ring_mass, uniform16.ring_mass, atol=2e-3)
        assert moment(qam16, res.distribution, 4) == pytest.approx(1.32,
                                                                   abs=1e-3)

    def test_lower_endpoint_collapses_inner_rings(self, qam16):
        cfg = dict(c0=1.0, noise_power=0.01)
        res = run_mba(qam16, **cfg)
        np.testing.assert_allclose(res.distribution.ring_mass, [0.0, 1.0, 0.0], atol=1e-3)

    def test_trace_is_monotone(self, qam16):
        cfg = dict(c0=1.15, noise_power=0.05)
        res = run_mba(qam16, **cfg)
        trace = np.asarray(res.trace)
        assert trace.size >= 2
        assert np.all(np.diff(trace) >= -1e-9)

    def test_exit_residuals_within_tolerance(self, qam64):
        cfg = dict(c0=1.2, noise_power=0.02)
        res = run_mba(qam64, **cfg)
        assert res.converged
        d = res.distribution
        assert abs(np.sum(d.ring_mass) - 1.0) <= 1e-4
        assert abs(moment(qam64, d, 2) - 1.0) <= 1e-4
        assert abs(moment(qam64, d, 4) - 1.2) <= 1e-4

    def test_ring_symmetry_of_solution(self, qam16):
        cfg = dict(c0=1.25, noise_power=0.05)
        res = run_mba(qam16, **cfg)
        per_point = res.distribution.per_point
        for w in range(3):
            ring = per_point[qam16.ring_index == w]
            np.testing.assert_allclose(ring, ring[0], rtol=1e-12)

    def test_near_endpoint_run_is_warning_free(self):
        # just above the 256-QAM lower endpoint the tilt leaves rings whose
        # point probability underflows to zero: the objective and the ring
        # integrals must agree that they are dead
        c = make_constellation("qam", 256)
        lo, _ = feasible_c0_range(c)
        cfg = dict(c0=lo + 1e-6, noise_power=0.01)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_mba(c, **cfg)
        trace = np.asarray(res.trace)
        assert np.all(np.isfinite(trace))
        assert np.all(np.diff(trace) >= -1e-9)

    def test_subnormal_ring_run_is_warning_free(self, monkeypatch):
        # the same run hands the integrals live rings of subnormal point
        # probability (down to ~1e-322): each keeps a finite integral
        seen = []
        ring_rates = shaping_ba._ring_rates

        def recording(lat, point_prob):
            rates = ring_rates(lat, point_prob)
            seen.append((point_prob.copy(), rates))
            return rates

        monkeypatch.setattr(shaping_ba, "_ring_rates", recording)
        c = make_constellation("qam", 256)
        lo, _ = feasible_c0_range(c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_mba(c, c0=lo + 1e-6, noise_power=0.01)
        tiny = np.finfo(float).tiny
        subnormal = [(p, r) for p, r in seen
                     if np.any((p > 0) & (p < tiny))]
        assert subnormal, "no ring of subnormal point probability was seen"
        for p, rates in subnormal:
            assert np.all(np.isfinite(log_probs(p)[p > 0] + rates[p > 0]))
        assert np.all(np.isfinite(res.trace))

    def test_infeasible_target_rejected(self, qam16):
        with pytest.raises(ValueError, match="feasible"):
            run_mba(qam16, c0=3.0, noise_power=0.01)
        with pytest.raises(ValueError, match="feasible"):
            run_mba(qam16, c0=0.5, noise_power=0.01)

    def test_deterministic(self, qam16):
        # nothing is drawn: two runs are bitwise the same
        cfg = dict(c0=1.18, noise_power=0.05)
        a = run_mba(qam16, **cfg)
        b = run_mba(qam16, **cfg)
        np.testing.assert_array_equal(a.distribution.ring_mass, b.distribution.ring_mass)
        np.testing.assert_array_equal(a.distribution.per_point,
                                      b.distribution.per_point)
        assert a.trace == b.trace

    def test_matches_heuristic_on_16qam(self, qam16):
        # three rings and two moment constraints leave no slack: the
        # rate-optimal and moment-matching answers must coincide
        for c0 in (1.05, 1.2, 1.32):
            opt = run_mba(qam16, c0=c0, noise_power=0.01)
            heur = solve_heuristic(qam16, c0)
            np.testing.assert_allclose(opt.distribution.ring_mass,
                                       heur.distribution.ring_mass, atol=1e-3)

    def test_rate_dominates_heuristic(self, qam64):
        c0 = 1.2
        opt = run_mba(qam64, c0=c0, noise_power=0.01)
        heur = solve_heuristic(qam64, c0)
        assert (gh_mutual_information(qam64, opt.distribution, 0.01)
                >= gh_mutual_information(qam64, heur.distribution, 0.01))

    def test_optimal_json_schema(self, cli_artifacts):
        # the CLI's shape_optimal.json: the multipliers second, null at an
        # endpoint, and no method tag (only the heuristic variant has one)
        import json

        ini = ("[constellation]\nfamily = qam\norder = 16\n"
               "[channel]\nsigma2 = 0.05\n[shaping]\nc0 = 1.2\n")
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
    # run_mba checks its arguments before it solves, the one-ring shortcut
    # included
    def test_bad_noise(self, qam16, psk8):
        # 1e-320 overflowed D**2 / sigma2 and inf gave 0 * inf, each a
        # RuntimeWarning and, without a warning filter, garbage masses
        for c, c0 in ((qam16, 1.2), (psk8, 1.0)):
            for noise_power in (0.0, -1.0, 1e-320, 1e301, np.inf):
                with pytest.raises(ValueError, match="noise_power"):
                    run_mba(c, c0, noise_power)

    def test_no_sample_count(self, qam16):
        # the integrals are a fixed quadrature: there is no sample count
        with pytest.raises(TypeError):
            run_mba(qam16, 1.2, 0.1, n_mc=1000)

    @pytest.mark.parametrize("field", ["noise_power", "outer_tol"])
    def test_nan_rejected(self, qam16, field):
        # a NaN passed the old `<= 0` / `< 0` checks; a NaN outer_tol then
        # never stopped the loop
        with pytest.raises(ValueError, match=field):
            run_mba(qam16, **{"c0": 1.2, "noise_power": 0.1,
                              field: float("nan")})

    @pytest.mark.parametrize("field,value", [("max_outer", 0),
                                             ("outer_tol", -1e-5)])
    def test_bad_stop_rule_rejected(self, qam16, field, value):
        with pytest.raises(ValueError, match=field):
            run_mba(qam16, 1.2, 0.1, **{field: value})
