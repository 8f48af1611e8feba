"""Constellation geometry against brute-force lattice enumeration.

The square-QAM oracle below builds the odd-integer lattice directly and
computes ring radii, multiplicities and moments without going through the
package's grouping code, so any disagreement points at a real defect.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ofdmpcs import Constellation, Distribution, make_constellation, moment
from oracles import choice_probs


def per_point_distribution(c, p) -> Distribution:
    """A ``Distribution`` with per-point probabilities ``p``, not
    necessarily ring-uniform, through the dataclass constructor."""
    p = np.asarray(p, dtype=float)
    return Distribution(constellation=c, per_point=p, ring_mass=np.bincount(
        c.ring_index, weights=p, minlength=c.n_rings))


def lattice_qam(order: int) -> np.ndarray:
    side = int(round(order**0.5))
    axis = np.arange(-(side - 1), side, 2)
    re, im = np.meshgrid(axis, axis)
    pts = (re + 1j * im).ravel()
    return pts / np.sqrt(np.mean(np.abs(pts) ** 2))


def exact_uniform_m4(order: int) -> Fraction:
    side = int(round(order**0.5))
    axis = [Fraction(k) for k in range(-(side - 1), side, 2)]
    sq = [a * a + b * b for a in axis for b in axis]
    m2 = sum(sq) / len(sq)
    m4 = sum(s * s for s in sq) / len(sq)
    return m4 / (m2 * m2)


class TestQamGeometry:
    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_points_match_lattice(self, order):
        c = make_constellation("qam", order)
        got = np.sort_complex(np.round(c.points, 12))
        want = np.sort_complex(np.round(lattice_qam(order), 12))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_16qam_rings(self, qam16):
        np.testing.assert_allclose(np.sort(qam16.ring_amps**2), [0.2, 1.0, 1.8], atol=1e-12)
        counts = dict(zip(np.round(qam16.ring_amps**2, 6), qam16.ring_counts))
        assert counts == {0.2: 4, 1.0: 8, 1.8: 4}

    def test_64qam_rings(self, qam64):
        # ring radii r^2 * 42 on the odd-integer lattice
        want_sq = np.array([2, 10, 18, 26, 34, 50, 58, 74, 98]) / 42
        want_counts = {2: 4, 10: 8, 18: 4, 26: 8, 34: 8, 50: 12, 58: 8, 74: 8, 98: 4}
        order = np.argsort(qam64.ring_amps)
        np.testing.assert_allclose(qam64.ring_amps[order] ** 2, want_sq, atol=1e-12)
        for a2, n in zip(qam64.ring_amps[order] ** 2, qam64.ring_counts[order]):
            assert want_counts[int(round(a2 * 42))] == n

    def test_points_built_once_and_read_only(self):
        # detection indexes the points once per block: one shared array
        c = make_constellation("qam", 16)
        pts = c.points
        assert c.points is pts
        assert pts.tobytes() == (c.amplitudes * np.exp(1j * c.phases)).tobytes()
        assert not pts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            pts[0] = 0.0

    def test_ring_index_consistent(self, qam64):
        amps = np.abs(qam64.points)
        np.testing.assert_allclose(amps, qam64.ring_amps[qam64.ring_index], atol=1e-12)

    @pytest.mark.parametrize("order", [4, 16, 64, 256])
    def test_unit_average_power(self, order):
        c = make_constellation("qam", order)
        d = Distribution.uniform(c)
        assert moment(d, 2) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("order", [4, 16, 36, 64, 100, 144, 256, 1024])
def test_qam_rings_are_the_distinct_squared_radii(order):
    # the rings come from bincount's nonzero bins; np.unique of the integer
    # squared radii is the reference, in the points' own order
    c = make_constellation("qam", order)
    norm2 = 2.0 * (order - 1) / 3.0       # mean squared odd-integer radius
    r2 = np.rint(np.abs(c.points) ** 2 * norm2).astype(int)
    radii, inverse = np.unique(r2, return_inverse=True)
    np.testing.assert_array_equal(c.ring_index, inverse)
    np.testing.assert_allclose(c.ring_amps ** 2, radii / norm2, rtol=1e-14)
    assert np.all(np.diff(c.ring_index) >= 0)        # grouped by ring


class TestConstructor:
    @pytest.mark.parametrize("family,order", [
        ("psk", 2), ("psk", 3), ("psk", 8), ("psk", 64), ("qam", 4),
        ("qam", 16), ("qam", 64), ("qam", 256), ("qam", 1024)])
    def test_every_family_builds(self, family, order):
        c = make_constellation(family, order)
        means = [np.mean(c.points[c.ring_index == w]) for w in range(c.n_rings)]
        assert np.max(np.abs(means)) <= 1e-12

    @pytest.mark.parametrize("phases", [[0.0, 0.0], [0.0, 0.5 * np.pi]],
                             ids=["coincident", "quarter-turn"])
    def test_ring_with_nonzero_mean_rejected(self, phases):
        # two points on one ring that do not cancel: mean 1 and (1 + j) / 2
        with pytest.raises(ValueError, match="ring 0 has mean amplitude"):
            Constellation(family="x", ring_amps=[1.0], ring_index=[0, 0],
                          phases=phases)

    def test_single_point_off_the_origin_rejected(self):
        with pytest.raises(ValueError, match="ring 1 has mean amplitude"):
            Constellation(family="x",
                          ring_amps=[np.sqrt(0.5), np.sqrt(2.0)],
                          ring_index=[0, 0, 1],
                          phases=[0.0, np.pi, 0.0])

    @pytest.mark.parametrize("ring_index,phases,message", [
        ([0, 0, 0], [0.0, np.pi], r"got shapes \(3,\) and \(2,\)"),
        ([0, 0], [0.0, np.pi, 0.0], r"got shapes \(2,\) and \(3,\)"),
        ([0, 1], [0.0, np.pi], "one of the 1 rings, got 0 to 1"),
        ([0, -1], [0.0, np.pi], "one of the 1 rings, got -1 to 0"),
    ], ids=["long-index", "long-phases", "ring-past-the-last", "negative"])
    def test_index_that_does_not_fit_rejected(self, ring_index, phases,
                                              message):
        # each used to surface as numpy's bincount length error or as a
        # false nonzero ring mean
        with pytest.raises(ValueError, match=message):
            Constellation(family="x", ring_amps=[1.0],
                          ring_index=ring_index, phases=phases)

    @pytest.mark.parametrize("family,order", [
        ("psk", 2), ("psk", 3), ("psk", 8), ("psk", 64), ("qam", 4),
        ("qam", 16), ("qam", 64), ("qam", 256), ("qam", 1024)])
    def test_sizes_are_read_off_the_index(self, family, order):
        # order and ring_counts are not stored, so they cannot disagree
        # with ring_index
        c = make_constellation(family, order)
        assert c.order == order == len(c.phases)
        np.testing.assert_array_equal(
            c.ring_counts, np.bincount(c.ring_index, minlength=c.n_rings))
        assert c.ring_counts is c.ring_counts
        assert not c.ring_counts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            c.ring_counts[0] = 0
        with pytest.raises(AttributeError):
            c.order = order + 1

    @pytest.mark.parametrize("ring_index", [[0.9, 0.2], [0.0, 0.0],
                                            [True, False]],
                             ids=["fractional", "whole-floats", "booleans"])
    def test_non_integer_index_rejected(self, ring_index):
        # a float index used to be cut to [0, 0] and accepted
        with pytest.raises(ValueError, match="ring_index must be integers"):
            Constellation(family="x", ring_amps=[1.0], ring_index=ring_index,
                          phases=[0.0, np.pi])

    @pytest.mark.parametrize("ring_amps,phases", [
        ([np.nan], [0.0, np.pi]), ([1.0], [0.0, np.nan])],
        ids=["nan-amplitude", "nan-phase"])
    def test_non_finite_values_rejected(self, ring_amps, phases):
        # NaN passed every comparison check and built NaN points
        with pytest.raises(ValueError, match="must be finite"):
            Constellation(family="x", ring_amps=ring_amps, ring_index=[0, 0],
                          phases=phases)

    def test_unsigned_index_accepted(self):
        c = Constellation(family="x", ring_amps=[1.0],
                          ring_index=np.zeros(2, dtype=np.uint8),
                          phases=[0.0, np.pi])
        assert c.ring_index.dtype == int and c.ring_counts.tolist() == [2]

    def test_ring_without_a_point_rejected(self):
        # ring 1 of three is named by no point
        with pytest.raises(ValueError, match="ring 1 holds no point"):
            Constellation(family="x", ring_amps=[0.5, 1.0, np.sqrt(1.75)],
                          ring_index=[0, 0, 2, 2],
                          phases=[0.0, np.pi, 0.0, np.pi])

    def test_origin_ring_accepted(self):
        c = Constellation(family="x", ring_amps=[0.0, np.sqrt(1.25)],
                          ring_index=[0, 1, 1, 1, 1],
                          phases=np.r_[0.0, 0.5 * np.pi * np.arange(4)])
        assert c.n_rings == 2


class TestPsk:
    def test_constant_modulus(self, psk64):
        np.testing.assert_allclose(np.abs(psk64.points), 1.0, atol=1e-12)
        assert psk64.ring_amps.shape == (1,)
        assert psk64.ring_counts[0] == 64

    def test_moments_are_one(self, psk64):
        d = Distribution.uniform(psk64)
        assert moment(d, 2) == pytest.approx(1.0, abs=1e-14)
        assert moment(d, 4) == pytest.approx(1.0, abs=1e-14)


class TestMoments:
    def test_16qam_uniform_m4_exact(self, uniform16):
        # 33/25 on the exact lattice
        assert exact_uniform_m4(16) == Fraction(33, 25)
        assert moment(uniform16, 4) == pytest.approx(1.32, abs=1e-12)

    def test_64qam_uniform_m4_exact(self, uniform64):
        want = exact_uniform_m4(64)
        assert want == Fraction(2436, 1764)
        assert moment(uniform64, 4) == pytest.approx(float(want), abs=1e-12)

    def test_rejects_other_orders(self, uniform16):
        with pytest.raises(ValueError):
            moment(uniform16, 3)

    @given(masses=st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3))
    @settings(max_examples=50, deadline=None)
    def test_m4_at_least_m2_squared(self, masses):
        # Jensen: E[A^4] >= (E[A^2])^2 for any ring loading.
        c = make_constellation("qam", 16)
        w = np.asarray(masses) / np.sum(masses)
        d = Distribution.from_ring_mass(c, w)
        m2 = float(np.sum(d.ring_mass * c.ring_amps**2))
        assert moment(d, 4) >= m2**2 - 1e-12


class TestDistribution:
    def test_uniform_masses(self, qam16, uniform16):
        np.testing.assert_allclose(uniform16.ring_mass, qam16.ring_counts / 16)
        np.testing.assert_allclose(uniform16.per_point, np.full(16, 1 / 16))
        assert uniform16.constellation is qam16

    @pytest.mark.parametrize("family,orders", [
        ("psk", range(2, 70)), ("qam", [4, 16, 36, 64, 100, 144, 256, 1024])])
    def test_uniform_is_exactly_one_over_q(self, family, orders):
        # built by from_ring_mass as count_w / Q spread over count_w points,
        # which rounds to 1 / Q bit for bit
        for order in orders:
            c = make_constellation(family, order)
            d = Distribution.uniform(c)
            assert d.per_point.tobytes() == np.full(order, 1.0 / order).tobytes()
            assert d.ring_mass.tobytes() == (c.ring_counts / float(order)).tobytes()

    def test_expand_ring_mass_splits_equally(self, qam16):
        d = Distribution.from_ring_mass(qam16, [0.5, 0.25, 0.25])
        assert d.constellation is qam16
        for w, amp in enumerate(qam16.ring_amps):
            idx = qam16.ring_index == w
            np.testing.assert_allclose(d.per_point[idx], d.ring_mass[w] / np.sum(idx), atol=1e-15)
        assert np.sum(d.per_point) == pytest.approx(1.0, abs=1e-12)

    def test_views_that_do_not_fit_rejected(self, qam16, uniform64):
        # 64-QAM's views on 16-QAM: 64 points and 9 rings against 16 and 3
        with pytest.raises(ValueError, match=r"shapes \(16,\) and \(3,\) "
                                             r".*got \(64,\) and \(9,\)"):
            Distribution(constellation=qam16, per_point=uniform64.per_point,
                         ring_mass=uniform64.ring_mass)

    def test_bad_masses_rejected(self, qam16):
        with pytest.raises(ValueError):
            Distribution.from_ring_mass(qam16, [0.5, 0.5])  # wrong length
        with pytest.raises(ValueError):
            Distribution.from_ring_mass(qam16, [0.9, 0.2, 0.1])  # not normalized
        with pytest.raises(ValueError):
            Distribution.from_ring_mass(qam16, [1.2, -0.2, 0.0])
        with pytest.raises(ValueError):     # NaN compared false with the tol
            Distribution.from_ring_mass(qam16, [np.nan, 0.5, 0.5])


class TestDraw:
    """``Distribution.draw`` against ``Generator.choice(p=...)``, bit for bit."""

    @pytest.mark.parametrize("size", [64, 1000, (4, 64), (2, 3, 16)])
    def test_bitwise_equal_to_choice(self, qam16, qam64, size):
        masses = np.zeros(qam64.n_rings)
        masses[[0, 2, 8]] = [0.5, 0.3, 0.2]       # exactly-zero rings
        cases = [Distribution.uniform(qam16),
                 Distribution.from_ring_mass(qam64, masses),
                 # an endpoint vertex with rounding residue on its
                 # unloaded rings
                 Distribution.from_ring_mass(
                     qam16, [1.1e-16, 1.0 - 1.7e-16, 6.4e-17])]
        for d in cases:
            c = d.constellation
            p = choice_probs(d)
            for seed in range(40):
                rng_got = np.random.default_rng(seed)
                rng_want = np.random.default_rng(seed)
                got = d.draw(rng_got, size)
                want = rng_want.choice(c.order, size=size, p=p)
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_array_equal(got, want)
                # both leave the generator at the same place in its stream
                assert rng_got.random() == rng_want.random()
            if c is qam64:
                assert not np.any(masses[c.ring_index[got]] == 0.0)

    @pytest.mark.parametrize("bad", ["nan", "inf", "negative", "zeros"])
    def test_invalid_probabilities_raise(self, qam16, bad):
        p = np.full(16, 1.0 / 16)
        if bad == "nan":
            p[3] = np.nan
        elif bad == "inf":
            p[3] = np.inf
        elif bad == "negative":
            p[3], p[4] = -0.1, p[4] + 0.1
        else:
            p[:] = 0.0
        d = per_point_distribution(qam16, p)
        with pytest.raises(ValueError, match="symbol probabilities"):
            d.draw(np.random.default_rng(0), 16)
        with pytest.raises(ValueError):     # as Generator.choice refuses p
            np.random.default_rng(0).choice(16, size=16, p=p)

