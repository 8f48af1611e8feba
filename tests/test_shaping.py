"""Maximum-entropy heuristic and feasibility against vertex enumeration.

The feasible set {p >= 0, sum p = 1, sum p*a2 = 1} is a polytope whose
extreme points load at most two rings, so the attainable fourth-moment range
can be found exactly by enumerating ring pairs.  That enumeration is the
oracle for the range and for the masses both solvers return at the
endpoints.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmpcs import (
    Distribution,
    MBAConfig,
    feasible_c0_range,
    make_constellation,
    moment,
    ring_system,
    run_mba,
    solve_heuristic,
)
from ofdmpcs.shaping import _lp_match


def vertex_values(c):
    """All (value, masses) of extreme points of the power-constrained simplex."""
    a2 = c.ring_amps**2
    a4 = c.ring_amps**4
    w = len(a2)
    out = []
    for i in range(w):
        if abs(a2[i] - 1.0) < 1e-12:
            m = np.zeros(w)
            m[i] = 1.0
            out.append((a4[i], m))
    for i in range(w):
        for j in range(i + 1, w):
            if abs(a2[i] - a2[j]) < 1e-15:
                continue
            pi = (1.0 - a2[j]) / (a2[i] - a2[j])
            if -1e-12 <= pi <= 1 + 1e-12:
                m = np.zeros(w)
                m[i], m[j] = pi, 1.0 - pi
                out.append((float(a4[i] * pi + a4[j] * (1 - pi)), m))
    return out


class TestFeasibleRange:
    @pytest.mark.parametrize("family,order", [("qam", 16), ("qam", 64), ("qam", 256)])
    def test_matches_vertex_enumeration(self, family, order):
        c = make_constellation(family, order)
        vals = [v for v, _ in vertex_values(c)]
        lo, hi = feasible_c0_range(c)
        assert lo == pytest.approx(min(vals), abs=1e-9)
        assert hi == pytest.approx(max(vals), abs=1e-9)

    def test_16qam_endpoints_exact(self, qam16):
        lo, hi = feasible_c0_range(qam16)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.64, abs=1e-12)

    def test_psk_degenerate(self, psk64):
        lo, hi = feasible_c0_range(psk64)
        assert lo == pytest.approx(1.0, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)

    def test_64qam_lower_vertex_structure(self, qam64):
        # the minimizing extreme point straddles unit power with the two
        # nearest rings, split evenly
        lo, _ = feasible_c0_range(qam64)
        best, masses = min(vertex_values(qam64), key=lambda t: t[0])
        assert lo == pytest.approx(best, abs=1e-9)
        a2 = qam64.ring_amps**2
        loaded = np.flatnonzero(masses > 0)
        np.testing.assert_allclose(sorted(a2[loaded] * 42), [34.0, 50.0], atol=1e-9)
        np.testing.assert_allclose(masses[loaded], [0.5, 0.5], atol=1e-12)


class TestHeuristic:
    def test_16qam_interior_solution_exact(self, qam16):
        r = solve_heuristic(qam16, 1.2)
        np.testing.assert_allclose(r.ring_mass, [0.15625, 0.6875, 0.15625], atol=1e-12)
        assert r.moment4 == pytest.approx(1.2, abs=1e-12)
        assert r.converged

    def test_16qam_lower_endpoint(self, qam16):
        r = solve_heuristic(qam16, 1.0)
        np.testing.assert_allclose(r.ring_mass, [0.0, 1.0, 0.0], atol=1e-10)

    def test_uniform_recovered_at_uniform_moment(self, qam16, uniform16):
        r = solve_heuristic(qam16, 1.32)
        np.testing.assert_allclose(r.ring_mass, uniform16.ring_mass, atol=1e-10)

    @pytest.mark.parametrize("order", [16, 64, 256])
    def test_moment_matched_on_grid(self, order):
        c = make_constellation("qam", order)
        lo, hi = feasible_c0_range(c)
        for c0 in np.linspace(lo, hi, 9):
            r = solve_heuristic(c, float(c0))
            assert r.converged
            assert abs(r.moment4 - c0) <= 1e-8
            d = r.distribution
            assert np.all(d.ring_mass >= -1e-12)
            assert np.sum(d.ring_mass) == pytest.approx(1.0, abs=1e-9)
            assert moment(c, d, 2) == pytest.approx(1.0, abs=1e-8)

    def test_64qam_lower_endpoint_masses(self, qam64):
        lo, _ = feasible_c0_range(qam64)
        r = solve_heuristic(qam64, lo)
        a2 = qam64.ring_amps**2
        keep = r.ring_mass > 1e-6
        np.testing.assert_allclose(sorted(a2[keep] * 42), [34.0, 50.0], atol=1e-9)
        np.testing.assert_allclose(r.ring_mass[keep], [0.5, 0.5], atol=1e-6)

    def test_clamps_and_warns_above(self, qam16):
        with pytest.warns(UserWarning, match="clamped"):
            r = solve_heuristic(qam16, 5.0)
        assert r.moment4 == pytest.approx(1.64, abs=1e-9)
        np.testing.assert_allclose(r.ring_mass, [0.5, 0.0, 0.5], atol=1e-8)

    def test_clamps_and_warns_below(self, qam16):
        with pytest.warns(UserWarning, match="clamped"):
            r = solve_heuristic(qam16, 0.5)
        assert r.moment4 == pytest.approx(1.0, abs=1e-9)

    @given(c0=st.floats(1.0, 1.64))
    @settings(max_examples=25, deadline=None)
    def test_any_feasible_target_is_hit(self, c0):
        c = make_constellation("qam", 16)
        r = solve_heuristic(c, c0)
        assert abs(r.moment4 - c0) <= 1e-8
        assert np.all(r.ring_mass >= -1e-12)


class TestMaxEntropy:
    """The heuristic is the maximum-entropy input under the moment rows.

    Stationarity of entropy minus the three multiplied rows puts every
    loaded point at p = exp(-lam1 A^4 - lam2 A^2 - lam0): on the support,
    log(p_w / count_w) is affine in (A_w^4, A_w^2).
    """

    @pytest.mark.parametrize("order", [64, 256])
    def test_kkt_log_mass_affine_in_moments(self, order):
        c = make_constellation("qam", order)
        lo, hi = feasible_c0_range(c)
        a2 = c.ring_amps**2
        for c0 in np.linspace(lo, hi, 7)[1:-1]:
            r = solve_heuristic(c, float(c0))
            keep = r.ring_mass > 0
            assert np.count_nonzero(keep) >= 3
            log_pt = np.log(r.ring_mass[keep] / c.ring_counts[keep])
            basis = np.column_stack([a2[keep]**2, a2[keep], np.ones(keep.sum())])
            coef = np.linalg.lstsq(basis, log_pt, rcond=None)[0]
            assert np.max(np.abs(basis @ coef - log_pt)) <= 1e-9


class TestEndpoints:
    """At either end of the feasible range the feasible set is one vertex."""

    @pytest.mark.parametrize("end", ["lower", "upper"])
    @pytest.mark.parametrize("order", [16, 64, 256])
    def test_both_solvers_return_the_vertex(self, order, end):
        c = make_constellation("qam", order)
        lo, hi = feasible_c0_range(c)
        c0 = lo if end == "lower" else hi
        pick = min if end == "lower" else max
        value, oracle = pick(vertex_values(c), key=lambda t: t[0])
        assert value == pytest.approx(c0, abs=1e-12)
        cfg = MBAConfig(c0=c0, noise_power=0.01, n_mc=1000, air_n_mc=1000)
        for r in (solve_heuristic(c, c0), run_mba(c, cfg, seed=1)):
            assert r.converged, r.method
            assert abs(r.moment4 - c0) <= 1e-10, r.method
            np.testing.assert_allclose(r.ring_mass, oracle, rtol=0, atol=1e-10)


class TestLpMatch:
    """The enumerated fallback: at most three loaded rings, exact moments."""

    @pytest.mark.parametrize("order", [64, 256])
    def test_endpoints_and_interior(self, order):
        c = make_constellation("qam", order)
        lo, hi = feasible_c0_range(c)
        for c0 in (lo, 0.5 * (lo + hi), hi):
            sys_ = ring_system(c, c0)
            masses = _lp_match(sys_.matrix, sys_.rhs)
            assert masses.shape == (c.n_rings,)
            assert np.count_nonzero(masses) <= 3
            assert np.all(masses >= 0.0)
            assert np.max(np.abs(sys_.matrix @ masses - sys_.rhs)) <= 1e-10

    def test_single_unit_ring(self, psk64):
        sys_ = ring_system(psk64, 1.0)
        masses = _lp_match(sys_.matrix, sys_.rhs)
        np.testing.assert_allclose(masses, [1.0], atol=1e-15)

    def test_infeasible_target_raises(self, qam64):
        _, hi = feasible_c0_range(qam64)
        sys_ = ring_system(qam64, hi + 1e-3)
        with pytest.raises(RuntimeError, match="no nonnegative ring loading"):
            _lp_match(sys_.matrix, sys_.rhs)


class TestRingSystem:
    def test_three_ring_system_square(self, qam16):
        # rows are (A^4, A^2, 1) with right-hand side (c0, 1, 1)
        rs = ring_system(qam16, 1.2)
        assert rs.matrix.shape == (3, 3)
        np.testing.assert_allclose(rs.rhs, [1.2, 1.0, 1.0])
        np.testing.assert_allclose(rs.matrix[0], qam16.ring_amps**4)
        np.testing.assert_allclose(rs.matrix[1], qam16.ring_amps**2)
        np.testing.assert_allclose(rs.matrix[2], np.ones(3))
        sol = np.linalg.solve(rs.matrix, rs.rhs)
        np.testing.assert_allclose(sol, [0.15625, 0.6875, 0.15625], atol=1e-12)

    def test_wide_system_shape(self, qam64):
        rs = ring_system(qam64, 1.1)
        assert rs.matrix.shape == (3, 9)


class TestResultSerialization:
    def test_heuristic_json_schema_and_stability(self, qam16):
        import json

        r = solve_heuristic(qam16, 1.2)
        blob = r.to_json()
        parsed = json.loads(blob)
        assert parsed["method"] == "heuristic"
        assert "lambda" not in parsed
        assert {"c0", "ring_mass", "converged"} <= set(parsed)
        assert r.to_json() == blob
        np.testing.assert_allclose(parsed["ring_mass"], [0.15625, 0.6875, 0.15625])

    def test_distribution_attached(self, qam16):
        r = solve_heuristic(qam16, 1.3)
        assert isinstance(r.distribution, Distribution)
        np.testing.assert_allclose(r.distribution.ring_mass, r.ring_mass, atol=1e-12)
