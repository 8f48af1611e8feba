"""Maximum-entropy heuristic and feasibility against vertex enumeration.

The feasible set {p >= 0, sum p = 1, sum p*a2 = 1} is a polytope whose
extreme points load at most two rings, so the attainable fourth-moment range
can be found exactly by enumerating ring pairs.  That enumeration is the
oracle for the range and for the masses both solvers return at the
endpoints.
"""
from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ofdmpcs import (
    Constellation,
    Distribution,
    feasible_c0_range,
    make_constellation,
    moment,
    run_mba,
    solve_heuristic,
)
from ofdmpcs.rates import ChannelSpec, mutual_information
from ofdmpcs.shaping import (C0_SLACK, RESIDUAL_TOL, _lp_match,
                              _newton_step, _support_loads, match_ring_masses)
from oracles import entropy_bits


def _optimal(c, c0):
    return run_mba(c, c0=c0, noise_power=0.01)


SOLVERS = [pytest.param(solve_heuristic, id="heuristic"),
           pytest.param(_optimal, id="optimal")]


def moment_rows(c, c0):
    """Oracle matrix and right-hand side of the moment rows over ring
    masses: (A**4, A**2, 1) against (c0, 1, 1)."""
    a2 = c.ring_amps ** 2
    return np.vstack([a2 ** 2, a2, np.ones_like(a2)]), np.array([c0, 1.0, 1.0])


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
        np.testing.assert_allclose(r.distribution.ring_mass,
                                   [0.15625, 0.6875, 0.15625], atol=1e-12)
        assert moment(qam16, r.distribution, 4) == pytest.approx(1.2, abs=1e-12)
        assert r.converged

    def test_16qam_lower_endpoint(self, qam16):
        r = solve_heuristic(qam16, 1.0)
        np.testing.assert_allclose(r.distribution.ring_mass, [0.0, 1.0, 0.0], atol=1e-10)

    def test_uniform_recovered_at_uniform_moment(self, qam16, uniform16):
        r = solve_heuristic(qam16, 1.32)
        np.testing.assert_allclose(r.distribution.ring_mass, uniform16.ring_mass, atol=1e-10)

    @pytest.mark.parametrize("order", [16, 64, 256])
    def test_moment_matched_on_grid(self, order):
        c = make_constellation("qam", order)
        lo, hi = feasible_c0_range(c)
        for c0 in np.linspace(lo, hi, 9):
            r = solve_heuristic(c, float(c0))
            assert r.converged
            d = r.distribution
            assert abs(moment(c, d, 4) - c0) <= 1e-8
            assert np.all(d.ring_mass >= -1e-12)
            assert np.sum(d.ring_mass) == pytest.approx(1.0, abs=1e-9)
            assert moment(c, d, 2) == pytest.approx(1.0, abs=1e-8)

    def test_64qam_lower_endpoint_masses(self, qam64):
        lo, _ = feasible_c0_range(qam64)
        r = solve_heuristic(qam64, lo)
        a2 = qam64.ring_amps**2
        keep = r.distribution.ring_mass > 1e-6
        np.testing.assert_allclose(sorted(a2[keep] * 42), [34.0, 50.0], atol=1e-9)
        np.testing.assert_allclose(r.distribution.ring_mass[keep], [0.5, 0.5], atol=1e-6)

    # clamping external input is the CLI's decision; both solvers reject a
    # target more than C0_SLACK outside the range and snap one within it
    @pytest.mark.parametrize("solve", SOLVERS)
    def test_rejects_above(self, qam16, solve):
        _, hi = feasible_c0_range(qam16)
        with pytest.raises(ValueError, match="feasible"):
            solve(qam16, 5.0)
        with pytest.raises(ValueError, match="feasible"):
            solve(qam16, hi + 2 * C0_SLACK)
        r = solve(qam16, hi + 0.5 * C0_SLACK)
        assert moment(qam16, r.distribution, 4) == pytest.approx(1.64,
                                                                 abs=1e-12)
        np.testing.assert_array_equal(r.distribution.ring_mass > 0, [True, False, True])

    @pytest.mark.parametrize("solve", SOLVERS)
    def test_rejects_below(self, qam16, solve):
        lo, _ = feasible_c0_range(qam16)
        with pytest.raises(ValueError, match="feasible"):
            solve(qam16, 0.5)
        with pytest.raises(ValueError, match="feasible"):
            solve(qam16, lo - 2 * C0_SLACK)
        r = solve(qam16, lo - 0.5 * C0_SLACK)
        assert moment(qam16, r.distribution, 4) == pytest.approx(1.0,
                                                                 abs=1e-12)
        np.testing.assert_array_equal(r.distribution.ring_mass > 0, [False, True, False])

    @given(c0=st.floats(1.0, 1.64))
    @settings(max_examples=25, deadline=None)
    def test_any_feasible_target_is_hit(self, c0):
        c = make_constellation("qam", 16)
        r = solve_heuristic(c, c0)
        assert abs(moment(c, r.distribution, 4) - c0) <= 1e-8
        assert np.all(r.distribution.ring_mass >= -1e-12)


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
            keep = r.distribution.ring_mass > 0
            assert np.count_nonzero(keep) >= 3
            log_pt = np.log(r.distribution.ring_mass[keep] / c.ring_counts[keep])
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
        cfg = dict(c0=c0, noise_power=0.01)
        results = (solve_heuristic(c, c0), run_mba(c, **cfg))
        for r in results:
            assert r.converged, r.method
            assert abs(moment(c, r.distribution, 4) - c0) <= 1e-10, r.method
            np.testing.assert_allclose(r.distribution.ring_mass, oracle, rtol=0, atol=1e-10)
            # rings the vertex does not load carry no rounding residue
            assert np.all(r.distribution.ring_mass[oracle == 0] == 0.0), r.method
        # both renormalise the vertex the same way: the 16-QAM lower
        # endpoint's ring 1 reads 1.0 in both, not 1 - 2**-52 in one
        heuristic, optimal = results
        assert (heuristic.distribution.ring_mass.tobytes()
                == optimal.distribution.ring_mass.tobytes())


class TestNearEndpoint:
    """Just inside the 256-QAM lower endpoint the tilt needs |lam1| in the
    thousands; both solvers must still return it, not the 3-ring vertex."""

    @pytest.fixture(scope="class")
    def case(self):
        c = make_constellation("qam", 256)
        lo, _ = feasible_c0_range(c)
        c0 = lo + 1e-4
        return c, c0, _lp_match(c.ring_amps ** 2, c0)

    def test_heuristic_loads_more_than_the_vertex(self, case):
        c, c0, vertex = case
        r = solve_heuristic(c, c0)
        mass, lam = match_ring_masses(c, np.log(c.ring_counts.astype(float)),
                                      c0)
        np.testing.assert_array_equal(r.distribution.ring_mass, mass)
        assert lam is not None and np.all(np.isfinite(lam))
        assert r.converged
        assert np.count_nonzero(r.distribution.ring_mass) > 3
        assert entropy_bits(r.distribution) > entropy_bits(
            Distribution.from_ring_mass(c, vertex)) + 0.1

    def test_optimal_rate_beats_the_vertex(self, case):
        c, c0, vertex = case
        cfg = dict(c0=c0, noise_power=0.01)
        r = run_mba(c, **cfg)
        assert r.converged and r.multipliers is not None
        assert np.count_nonzero(r.distribution.ring_mass) > 3
        # both inputs scored by one estimate, on the same draw
        spec = ChannelSpec(0.01)
        optimal = mutual_information(c, r.distribution, spec, n_mc=2000,
                                     seed=5)
        at_vertex = mutual_information(
            c, Distribution.from_ring_mass(c, vertex), spec, n_mc=2000, seed=5)
        assert optimal.mi_bits > at_vertex.mi_bits + 0.05


class TestLpMatch:
    """The enumerated fallback: at most three loaded rings, exact moments."""

    @pytest.mark.parametrize("order", [64, 256])
    def test_endpoints_and_interior(self, order):
        c = make_constellation("qam", order)
        lo, hi = feasible_c0_range(c)
        for c0 in (lo, 0.5 * (lo + hi), hi):
            masses = _lp_match(c.ring_amps ** 2, c0)
            assert masses.shape == (c.n_rings,)
            assert np.count_nonzero(masses) <= 3
            assert np.all(masses >= 0.0)
            matrix, rhs = moment_rows(c, c0)
            assert np.max(np.abs(matrix @ masses - rhs)) <= 1e-10

    def test_single_unit_ring(self, psk64):
        masses = _lp_match(psk64.ring_amps ** 2, 1.0)
        np.testing.assert_allclose(masses, [1.0], atol=1e-15)

    def test_infeasible_target_raises(self, qam64):
        _, hi = feasible_c0_range(qam64)
        with pytest.raises(RuntimeError, match="no nonnegative ring loading"):
            _lp_match(qam64.ring_amps ** 2, hi + 1e-3)


@functools.lru_cache(maxsize=None)
def named_constellation(family, order):
    return make_constellation(family, order)


@st.composite
def matcher_inputs(draw):
    """A constellation, a target anywhere in its feasible range (endpoints
    drawn on purpose), exponents with some rings dead and at least one
    live, and no warm start or any pair of multipliers."""
    c = named_constellation(*draw(st.sampled_from(
        [("qam", 16), ("qam", 64), ("qam", 256), ("psk", 8)])))
    lo, hi = feasible_c0_range(c)
    c0 = draw(st.sampled_from([lo, hi]) | st.floats(lo, hi))
    u = draw(st.lists(st.just(-np.inf) | st.floats(-30.0, 30.0),
                      min_size=c.n_rings, max_size=c.n_rings)
             .filter(lambda v: np.isfinite(v).any()))
    warm = draw(st.none() | st.tuples(st.floats(-1e3, 1e3),
                                      st.floats(-1e3, 1e3)))
    return c, c0, np.array(u), warm


class TestMatcherGuarantee:
    """What both solvers rest on instead of re-checking: the matcher's
    masses are nonnegative, zero on every dead ring, and meet all three
    rows to RESIDUAL_TOL; it raises only when no loading of the live rings
    meets them."""

    @given(case=matcher_inputs())
    @settings(max_examples=150, deadline=None)
    # two live rings from a far warm start: the tilt collapses onto one
    # ring and the Hessian's square underflowed in the Newton step.  The
    # live rings reach only c0 = 1, so no fallback may load the dead one
    @example(case=(named_constellation("qam", 16), 1.5,
                   np.array([0.0, 4.0, -np.inf]), (6.0, 0.0)))
    @example(case=(named_constellation("qam", 16), 1.5,
                   np.array([0.0, 4.0, -np.inf]), None))
    def test_masses_meet_every_row(self, case):
        c, c0, u, warm = case
        live = np.isfinite(u)
        try:
            mass, lam = match_ring_masses(
                c, u, c0, None if warm is None else np.array(warm))
        except RuntimeError:
            # the fourth moments the live rings alone reach, by enumeration
            vals = [v for v, m in vertex_values(c) if not np.any(m[~live])]
            assert not vals or not min(vals) + 1e-9 < c0 < max(vals) - 1e-9
            return
        assert mass.shape == (c.n_rings,)
        assert np.all(mass >= 0.0)
        assert np.all(mass[~live] == 0.0)
        matrix, rhs = moment_rows(c, c0)
        assert np.max(np.abs(matrix @ mass - rhs)) <= RESIDUAL_TOL
        assert lam is None or np.all(np.isfinite(lam))

    def test_all_dead_rings_are_an_internal_error(self, qam16):
        # neither solver hands the matcher no live ring; if one did, the CLI
        # reports it as an internal error, not as a config error
        with pytest.raises(RuntimeError, match="vanished"):
            match_ring_masses(qam16, np.full(3, -np.inf), 1.2)


def two_ring_constellation():
    """Four points at A**2 = 1/2 and two at A**2 = 2: unit power, zero mean
    on each ring.  No named family has two rings."""
    return Constellation(family="custom", order=6,
                         ring_amps=np.sqrt([0.5, 2.0]),
                         ring_counts=np.array([4, 2]),
                         ring_index=np.array([0, 0, 0, 0, 1, 1]),
                         phases=np.r_[0.5 * np.pi * np.arange(4), 0.0, np.pi])


class TestClosedForms:
    """The closed-form solves against numpy's LAPACK ones, as oracles."""

    @pytest.mark.parametrize("order", [16, 64, 256])
    def test_three_ring_loads_match_solve(self, order):
        # every support, feasible or not, at both endpoints and the middle
        c = make_constellation("qam", order)
        lo, hi = feasible_c0_range(c)
        for c0 in (lo, 0.5 * (lo + hi), hi):
            supports, loads = _support_loads(c.ring_amps ** 2, c0)
            assert len(supports) == len(set(map(tuple, supports))) \
                == c.n_rings * (c.n_rings - 1) * (c.n_rings - 2) // 6
            matrix, rhs = moment_rows(c, c0)
            blocks = np.moveaxis(matrix[:, supports], 1, 0)
            want = np.linalg.solve(blocks, np.broadcast_to(
                rhs[:, None], (len(supports), 3, 1)))[..., 0]
            rel = (np.max(np.abs(loads - want), axis=1)
                   / np.max(np.abs(want), axis=1))
            assert rel.max() <= 1e-12, (c0, rel.max())

    def test_one_ring_branch(self, psk64):
        a2 = psk64.ring_amps ** 2
        want = np.linalg.lstsq(*moment_rows(psk64, 1.0), rcond=None)[0]
        np.testing.assert_allclose(_support_loads(a2, 1.0)[1][0],
                                   want, rtol=1e-15)
        np.testing.assert_array_equal(_lp_match(a2, 1.0), [1.0])

    def test_two_ring_branch(self):
        # the power and probability rows fix the masses at (2/3, 1/3), so
        # the feasible range is the one fourth moment 1.5
        c = two_ring_constellation()
        assert feasible_c0_range(c) == pytest.approx((1.5, 1.5), abs=1e-15)
        a2 = c.ring_amps ** 2
        want = np.linalg.lstsq(*moment_rows(c, 1.5), rcond=None)[0]
        masses = _lp_match(a2, 1.5)
        np.testing.assert_allclose(masses, want, rtol=1e-14)
        np.testing.assert_allclose(masses, [2 / 3, 1 / 3], rtol=1e-15)
        np.testing.assert_array_equal(solve_heuristic(c, 1.5).distribution.ring_mass,
                                      masses / masses.sum())
        with pytest.raises(RuntimeError, match="no nonnegative ring loading"):
            _lp_match(a2, 1.6)

    def test_newton_step_full_rank(self):
        rng = np.random.default_rng(8)
        for _ in range(500):
            b = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-4, 2)
            hess, grad = b @ b.T, rng.normal(size=2)
            want = np.linalg.lstsq(hess, -grad, rcond=None)[0]
            got = _newton_step(hess, grad)
            err = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert err <= 1e-14 * np.linalg.cond(hess), (hess, grad)

    def test_newton_step_rank_one(self):
        # lstsq drops the zero singular value: the minimum-norm step
        rng = np.random.default_rng(9)
        for _ in range(500):
            v = rng.normal(size=2)
            hess = 10.0 ** rng.uniform(-4, 2) * np.outer(v, v)
            grad = rng.normal(size=2)
            want, _, rank, _ = np.linalg.lstsq(hess, -grad, rcond=None)
            assert rank == 1
            np.testing.assert_allclose(_newton_step(hess, grad), want,
                                       rtol=1e-12, atol=0)
        np.testing.assert_array_equal(
            _newton_step(np.zeros((2, 2)), np.array([0.3, -0.1])), [0.0, 0.0])

    def test_newton_step_underflowing_hessian(self):
        # s_max**2 underflows to zero: no usable curvature, a zero step and
        # no division by zero
        hess = 1e-170 * np.array([[1.0, 0.5], [0.5, 0.25]])
        np.testing.assert_array_equal(
            _newton_step(hess, np.array([0.3, -0.1])), [0.0, 0.0])


class TestResultSerialization:
    def test_heuristic_json_schema_and_stability(self, cli_artifacts):
        # the CLI's shape_heuristic.json: no multipliers, tagged last
        import json

        ini = ("[constellation]\nfamily = qam\norder = 16\n"
               "[channel]\nsigma2 = 0.01\n[shaping]\nc0 = 1.2\n")
        blob, again = (
            (cli_artifacts(ini, "shape", "--method", "heuristic")
             / "shape_heuristic.json").read_bytes() for _ in range(2))
        assert blob == again
        parsed = json.loads(blob)
        assert list(parsed) == ["c0", "ring_mass", "air_bits", "converged",
                                "iters", "trace", "method"]
        assert parsed["method"] == "heuristic"
        np.testing.assert_allclose(parsed["ring_mass"], [0.15625, 0.6875, 0.15625])

    def test_distribution_attached(self, qam16):
        # the distribution is the result's one copy of its ring masses, and
        # the result is frozen: no caller swaps it or adds to it afterwards
        r = solve_heuristic(qam16, 1.3)
        assert isinstance(r.distribution, Distribution)
        assert moment(qam16, r.distribution, 4) == pytest.approx(1.3, abs=1e-10)
        with pytest.raises(dataclasses.FrozenInstanceError):
            r.distribution = Distribution.uniform(qam16)
