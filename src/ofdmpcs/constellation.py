"""Constellation geometry and input distributions.

A constellation here is a finite set of unit-mean-power complex points
grouped into concentric rings of equal amplitude.  Ring structure is what
matters downstream: the fourth moment of the amplitude distribution controls
radar sidelobe variance, and shaping operates on per-ring masses.

Conventions:

* ``ring_mass[w]`` is the aggregate probability of ring ``w`` (all of its
  points together), not the per-point value.
* every point of ring ``w`` has amplitude exactly ``ring_amps[w]`` (the
  stored per-point amplitude array is built by indexing, so the equality is
  bitwise).
* distributions are "ring-uniform": points within one ring share the same
  probability.  :meth:`Distribution.uniform` and
  :meth:`Distribution.from_ring_mass` build only such distributions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

CONSTRUCTION_TOL = 1e-12
VALIDATION_TOL = 1e-9


# ---------------------------------------------------------------------------
# constellation


@dataclass(frozen=True)
class Constellation:
    """Unit-power point set grouped into rings of equal amplitude.

    Build one with :func:`make_constellation`, which establishes the
    invariants: unit mean power under the uniform distribution, zero mean
    per ring, strictly increasing ring amplitudes.  The constructor checks
    all of them, each to ``CONSTRUCTION_TOL``, and that ``ring_index`` puts
    ``ring_counts[w]`` of the ``order`` points on ring ``w``.
    """

    family: str
    order: int
    ring_amps: np.ndarray      # (W,) strictly increasing, >= 0
    ring_counts: np.ndarray    # (W,) positive ints summing to order
    ring_index: np.ndarray     # (Q,) ring of each point
    phases: np.ndarray         # (Q,) point phases in radians

    def __post_init__(self):
        amps = np.asarray(self.ring_amps, dtype=float)
        counts = np.asarray(self.ring_counts, dtype=int)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("ring_amps must be a nonempty 1-D array")
        if np.any(np.diff(amps) <= 0):
            raise ValueError("ring amplitudes must be strictly increasing")
        if np.any(amps < 0):
            raise ValueError("ring amplitudes must be nonnegative")
        if counts.shape != amps.shape or np.any(counts <= 0):
            raise ValueError("ring_counts must be positive and match ring_amps")
        if int(counts.sum()) != self.order:
            raise ValueError("ring counts must sum to the constellation order")
        index = np.asarray(self.ring_index, dtype=int)
        phases = np.asarray(self.phases, dtype=float)
        if index.shape != (self.order,) or phases.shape != (self.order,):
            raise ValueError(f"ring_index and phases must each hold order="
                             f"{self.order} entries, got {index.size} and "
                             f"{phases.size}")
        if np.any((index < 0) | (index >= amps.size)):
            raise ValueError(f"ring_index entries must name one of the "
                             f"{amps.size} rings, got {index.min()} to "
                             f"{index.max()}")
        if np.any(np.bincount(index, minlength=amps.size) != counts):
            raise ValueError("ring_index must put ring_counts[w] points on "
                             "each ring w")
        # the AF moments assume a zero-mean symbol, ring by ring
        ring_sum = (np.bincount(index, weights=np.cos(phases),
                                minlength=amps.size)
                    + 1j * np.bincount(index, weights=np.sin(phases),
                                       minlength=amps.size))
        ring_mean = np.abs(amps * ring_sum / counts)
        off = np.flatnonzero(ring_mean > CONSTRUCTION_TOL)
        if off.size:
            raise ValueError(f"ring {off[0]} has mean amplitude "
                             f"{ring_mean[off[0]]:.3g}; the symbol mean "
                             "would not vanish")
        power = float(np.dot(counts, amps ** 2)) / self.order
        if abs(power - 1.0) > CONSTRUCTION_TOL:
            raise ValueError(f"mean power {power!r} deviates from 1 beyond "
                             f"{CONSTRUCTION_TOL}")
        object.__setattr__(self, "ring_amps", amps)
        object.__setattr__(self, "ring_counts", counts)
        object.__setattr__(self, "ring_index", index)
        object.__setattr__(self, "phases", phases)

    # -- derived views ------------------------------------------------------

    @property
    def n_rings(self) -> int:
        return self.ring_amps.size

    @property
    def amplitudes(self) -> np.ndarray:
        """Per-point amplitudes; exactly ``ring_amps[ring_index]``."""
        return self.ring_amps[self.ring_index]

    @property
    def points(self) -> np.ndarray:
        """Complex point array (Q,)."""
        return self.amplitudes * np.exp(1j * self.phases)


def sorted_unique(a) -> np.ndarray:
    """The sorted distinct values of ``a`` (no NaNs): ``np.unique``'s bytes.

    Sort, then keep each value that differs from its predecessor.  numpy 2's
    ``np.unique`` imports ``numpy.ma`` on its first call, which costs a
    process ~20 ms and ~1 MB for a module nothing else here uses.
    """
    s = np.sort(np.ravel(a))
    keep = np.ones(s.size, dtype=bool)
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def make_constellation(family: str, order: int) -> Constellation:
    """Build a named constellation.

    ``psk``: any order >= 2, all points on the unit circle.
    ``qam``: perfect-square order >= 4, square I/Q lattice on odd integers,
    scaled to unit mean power.  Points are grouped into rings by squared
    lattice radius (an exact integer), so ring membership is exact.
    """
    family = family.lower()
    if family == "psk":
        if order < 2:
            raise ValueError("psk order must be >= 2")
        phases = 2.0 * np.pi * np.arange(order) / order
        return Constellation(family="psk", order=order,
                             ring_amps=np.array([1.0]),
                             ring_counts=np.array([order]),
                             ring_index=np.zeros(order, dtype=int),
                             phases=phases)
    if family == "qam":
        k = math.isqrt(order)
        if k * k != order or order < 4:
            raise ValueError("qam order must be a perfect square >= 4")
        levels = np.arange(-(k - 1), k, 2)            # odd (or even) integers
        ii, qq = np.meshgrid(levels, levels, indexing="ij")
        ii, qq = ii.ravel(), qq.ravel()
        r2 = ii * ii + qq * qq                        # exact integer radii
        norm2 = int(r2.sum()) / order                 # mean squared radius
        uniq = sorted_unique(r2)
        ring_of = {int(v): w for w, v in enumerate(uniq)}
        ring_index = np.array([ring_of[int(v)] for v in r2])
        ring_amps = np.sqrt(uniq / norm2)
        ring_counts = np.bincount(ring_index, minlength=uniq.size)
        phases = np.arctan2(qq, ii)
        order_key = np.lexsort((phases, ring_index))  # group points by ring
        return Constellation(family="qam", order=order,
                             ring_amps=ring_amps,
                             ring_counts=ring_counts,
                             ring_index=ring_index[order_key],
                             phases=phases[order_key])
    raise ValueError(f"unknown constellation family {family!r}")


# ---------------------------------------------------------------------------
# distributions


@dataclass(frozen=True)
class Distribution:
    """Input distribution over a constellation.

    Stores both views: ``per_point`` (length Q) and ``ring_mass`` (length W,
    aggregate mass per ring).  The classmethod constructors keep the two
    consistent.
    """

    per_point: np.ndarray
    ring_mass: np.ndarray

    @classmethod
    def uniform(cls, c: Constellation) -> "Distribution":
        per_point = np.full(c.order, 1.0 / c.order)
        return cls(per_point=per_point,
                   ring_mass=c.ring_counts / float(c.order))

    @classmethod
    def from_ring_mass(cls, c: Constellation, masses) -> "Distribution":
        """Spread aggregate ring masses evenly over each ring's points."""
        masses = np.asarray(masses, dtype=float)
        if masses.shape != (c.n_rings,):
            raise ValueError(f"expected {c.n_rings} ring masses, "
                             f"got shape {masses.shape}")
        if np.any(masses < -1e-12):
            raise ValueError("ring masses must be nonnegative")
        total = float(masses.sum())
        if not abs(total - 1.0) <= VALIDATION_TOL:     # NaN fails too
            raise ValueError(f"ring masses sum to {total!r}, not 1")
        masses = np.maximum(masses, 0.0)
        per_point = masses[c.ring_index] / c.ring_counts[c.ring_index]
        return cls(per_point=per_point, ring_mass=masses)

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative per-point probabilities, the table :meth:`draw` searches.

        Clips the -1e-12 negative slack that construction tolerates and
        renormalizes, then accumulates exactly as ``Generator.choice(p=...)``
        does.  Built once per distribution.  A non-finite entry, a negative
        one beyond the slack, or an all-zero vector raises ``ValueError``,
        as ``choice`` does for such probabilities.
        """
        p = np.asarray(self.per_point, dtype=float)
        total = p.sum()
        if not (np.isfinite(total) and total > 0) or np.any(p < -1e-12):
            raise ValueError("symbol probabilities must be finite and "
                             "nonnegative with a positive sum")
        p = np.maximum(p, 0.0)
        cdf = (p / p.sum()).cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False     # shared by every later draw
        return cdf

    @cached_property
    def _guide(self) -> tuple[int, np.ndarray, int]:
        """Guide table over :attr:`cdf` (Chen & Asau 1974; Devroye 1986,
        §III.2.4): ``(K, start, steps)``.

        K is the smallest power of two >= 4Q, so ``u * K`` and ``j / K`` are
        exact.  ``start[j]`` counts the CDF values <= j/K; a uniform in
        [j/K, (j+1)/K) has its answer between ``start[j]`` and
        ``start[j + 1]``, at most ``steps`` above ``start[j]``.
        """
        cdf = self.cdf
        k = 1 << (4 * cdf.size - 1).bit_length()
        bounds = cdf.searchsorted(np.arange(k + 1) / k, side="right")
        return k, bounds[:-1], int(np.diff(bounds).max())

    def inverse_cdf(self, u: np.ndarray) -> np.ndarray:
        """Symbol index of each uniform in ``u``: bitwise
        ``cdf.searchsorted(u, side="right")``.

        Starts each index at its guide-table bucket and steps it up while
        the CDF value there is <= u.  The index never passes the answer, so
        it stays inside the table.  When one bucket holds more CDF values
        than a binary search takes steps (tiny masses crowd together),
        the binary search is the cheaper of the two and runs instead.
        """
        k, start, steps = self._guide
        if steps > self.cdf.size.bit_length():
            return self.cdf.searchsorted(u, side="right")
        idx = start[(u * k).astype(np.intp)]
        for _ in range(steps):
            idx += self.cdf[idx] <= u
        return idx

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """Symbol indices of shape ``size`` by inverse CDF.

        Bitwise what ``rng.choice(Q, size, p=...)`` returns, and it leaves
        ``rng`` in the same state, at a fraction of the per-call cost: one
        ``rng.random(size)`` read through :meth:`inverse_cdf`.
        """
        return self.inverse_cdf(rng.random(size))


def moment(c: Constellation, d: Distribution, order: int) -> float:
    """Amplitude moment sum(p_q * A_q**order); order 2 or 4."""
    if order not in (2, 4):
        raise ValueError("moment order must be 2 or 4")
    return float(np.dot(d.per_point, c.amplitudes ** order))
