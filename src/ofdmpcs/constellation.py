"""Constellation geometry and input distributions.

A constellation here is a finite set of unit-mean-power complex points
grouped into concentric rings of equal amplitude.  Ring structure is what
matters downstream: the fourth moment of the amplitude distribution controls
radar sidelobe variance, and shaping operates on per-ring masses.

Conventions:

* ``ring_mass[w]`` is the aggregate probability of ring ``w`` (all of its
  points together), not the per-point value.
* every point of ring ``w`` has amplitude exactly ``ring_amps[w]`` (the
  per-point amplitudes are built by indexing, so the equality is bitwise).
* distributions are "ring-uniform": points within one ring share the same
  probability.  :meth:`Distribution.from_ring_mass` builds every one of
  them, the uniform input included.
* a distribution carries the constellation it was built on
  (``Distribution.constellation``), and every metric downstream (the
  moments, the rate, the AF statistics, a detection scenario) takes the
  distribution alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

CONSTRUCTION_TOL = 1e-12
VALIDATION_TOL = 1e-9
MASS_SLACK = 1e-12      # how far below zero a mass or probability may round
# bounds every dB value read (SNRs, echo powers) and, as 10 ** (+-dB / 10),
# every noise power: 10 ** (dB / 10) overflows past ~3080 dB
MAX_ABS_DB = 3000.0


def _check_ints(obj) -> None:
    """``ValueError`` naming a dataclass field annotated ``int`` that holds
    no integer: a float, even a whole one, is refused, not cut."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in ("int", int) and not isinstance(value, (int, np.integer)):
            raise ValueError(f"{f.name} must be an integer, got {value!r}")


# ---------------------------------------------------------------------------
# constellation


@dataclass(frozen=True)
class Constellation:
    """Unit-power point set grouped into rings of equal amplitude.

    Build one with :func:`make_constellation`, which establishes the
    invariants: unit mean power under the uniform distribution, zero mean
    per ring, strictly increasing ring amplitudes.  The constructor checks
    all of them, each to ``CONSTRUCTION_TOL``, that every amplitude and
    phase is finite, and that every point names a ring and every ring holds
    a point.  ``order`` and ``ring_counts`` are read off ``ring_index``,
    not stored.
    """

    family: str
    ring_amps: np.ndarray      # (W,) strictly increasing, >= 0
    ring_index: np.ndarray     # (Q,) ring of each point
    phases: np.ndarray         # (Q,) point phases in radians

    def __post_init__(self):
        amps = np.asarray(self.ring_amps, dtype=float)
        if amps.ndim != 1 or amps.size == 0:
            raise ValueError("ring_amps must be a nonempty 1-D array")
        if np.any(np.diff(amps) <= 0):
            raise ValueError("ring amplitudes must be strictly increasing")
        if np.any(amps < 0):
            raise ValueError("ring amplitudes must be nonnegative")
        index = np.asarray(self.ring_index)
        if index.dtype.kind not in "iu":    # a float index is not cut
            raise ValueError(f"ring_index must be integers, not {index.dtype}")
        phases = np.asarray(self.phases, dtype=float)
        # NaN passes every comparison check here without a word
        if not (np.isfinite(amps).all() and np.isfinite(phases).all()):
            raise ValueError("ring_amps and phases must be finite")
        if index.ndim != 1 or index.shape != phases.shape:
            raise ValueError(f"ring_index and phases must be 1-D and of one "
                             f"length, got shapes {index.shape} and "
                             f"{phases.shape}")
        if np.any((index < 0) | (index >= amps.size)):
            raise ValueError(f"ring_index entries must name one of the "
                             f"{amps.size} rings, got {index.min()} to "
                             f"{index.max()}")
        object.__setattr__(self, "ring_amps", amps)
        object.__setattr__(self, "ring_index", index.astype(int))
        object.__setattr__(self, "phases", phases)
        counts = self.ring_counts
        if not counts.all():
            raise ValueError(f"ring {counts.argmin()} holds no point")
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

    # -- derived views ------------------------------------------------------

    @property
    def order(self) -> int:
        return self.ring_index.size

    @property
    def n_rings(self) -> int:
        return self.ring_amps.size

    @cached_property
    def ring_counts(self) -> np.ndarray:
        """Points per ring, ``bincount(ring_index)``; built once, read-only."""
        counts = np.bincount(self.ring_index, minlength=self.n_rings)
        counts.flags.writeable = False
        return counts

    @property
    def amplitudes(self) -> np.ndarray:
        """Per-point amplitudes; exactly ``ring_amps[ring_index]``."""
        return self.ring_amps[self.ring_index]

    @cached_property
    def points(self) -> np.ndarray:
        """Complex point array (Q,); built once, read-only."""
        points = self.amplitudes * np.exp(1j * self.phases)
        points.flags.writeable = False
        return points


def make_constellation(family: str, order: int) -> Constellation:
    """Build a named constellation.

    ``psk``: any order >= 2, all points on the unit circle.
    ``qam``: perfect-square order >= 4, square I/Q lattice on odd integers,
    scaled to unit mean power.  Points are grouped into rings by squared
    lattice radius (an exact integer), so ring membership is exact; the
    rings are ``np.bincount``'s nonzero bins (``np.unique`` loads numpy.ma).
    """
    family = family.lower()
    if family == "psk":
        if order < 2:
            raise ValueError("psk order must be >= 2")
        phases = 2.0 * np.pi * np.arange(order) / order
        return Constellation(family="psk", ring_amps=np.array([1.0]),
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
        held = np.bincount(r2) > 0
        ring_index = (np.cumsum(held) - 1)[r2]   # how many smaller radii occur
        ring_amps = np.sqrt(np.flatnonzero(held) / norm2)
        phases = np.arctan2(qq, ii)
        order_key = np.lexsort((phases, ring_index))  # group points by ring
        return Constellation(family="qam", ring_amps=ring_amps,
                             ring_index=ring_index[order_key],
                             phases=phases[order_key])
    raise ValueError(f"unknown constellation family {family!r}")


# ---------------------------------------------------------------------------
# distributions


@dataclass(frozen=True)
class Distribution:
    """Input distribution over a constellation, which it carries.

    The shaped input is one object: its ``constellation`` and both views of
    its probabilities, ``per_point`` (length Q) and ``ring_mass`` (length
    W, aggregate mass per ring).  Every rate, AF moment and detection
    scenario reads the constellation from here, so no caller can pair an
    input with a constellation it was not built on.  The constructor
    checks the two lengths; the classmethod constructors also keep the two
    views consistent.
    """

    constellation: Constellation
    per_point: np.ndarray
    ring_mass: np.ndarray

    def __post_init__(self):
        c = self.constellation
        shapes = (np.shape(self.per_point), np.shape(self.ring_mass))
        if shapes != ((c.order,), (c.n_rings,)):
            raise ValueError(f"per_point and ring_mass must have shapes "
                             f"({c.order},) and ({c.n_rings},) on this "
                             f"constellation, got {shapes[0]} and "
                             f"{shapes[1]}")

    @classmethod
    def uniform(cls, c: Constellation) -> "Distribution":
        """Every point equally likely: ring masses ``count_w / Q``."""
        return cls.from_ring_mass(c, c.ring_counts / float(c.order))

    @classmethod
    def from_ring_mass(cls, c: Constellation, masses) -> "Distribution":
        """Spread aggregate ring masses evenly over each ring's points."""
        masses = np.asarray(masses, dtype=float)
        if masses.shape != (c.n_rings,):
            raise ValueError(f"expected {c.n_rings} ring masses, "
                             f"got shape {masses.shape}")
        if np.any(masses < -MASS_SLACK):
            raise ValueError("ring masses must be nonnegative")
        total = float(masses.sum())
        if not abs(total - 1.0) <= VALIDATION_TOL:     # NaN fails too
            raise ValueError(f"ring masses sum to {total!r}, not 1")
        masses = np.maximum(masses, 0.0)
        per_point = masses[c.ring_index] / c.ring_counts[c.ring_index]
        return cls(constellation=c, per_point=per_point, ring_mass=masses)

    @cached_property
    def cdf(self) -> np.ndarray:
        """Cumulative per-point probabilities, the table :meth:`draw` searches.

        Clips the ``MASS_SLACK`` below zero that construction tolerates and
        renormalizes, then accumulates exactly as ``Generator.choice(p=...)``
        does.  Built once per distribution.  A non-finite entry, a negative
        one beyond the slack, or an all-zero vector raises ``ValueError``,
        as ``choice`` does for such probabilities.
        """
        p = np.asarray(self.per_point, dtype=float)
        total = p.sum()
        if not (np.isfinite(total) and total > 0) or np.any(p < -MASS_SLACK):
            raise ValueError("symbol probabilities must be finite and "
                             "nonnegative with a positive sum")
        p = np.maximum(p, 0.0)
        cdf = (p / p.sum()).cumsum()
        cdf /= cdf[-1]
        cdf.flags.writeable = False     # shared by every later draw
        return cdf

    def draw(self, rng: np.random.Generator, size) -> np.ndarray:
        """Symbol indices of shape ``size`` by inverse CDF.

        Bitwise what ``rng.choice(Q, size, p=...)`` returns, and it leaves
        ``rng`` in the same state: one ``rng.random(size)`` searched in
        :attr:`cdf`, as ``choice`` searches it.
        """
        return self.cdf.searchsorted(rng.random(size), side="right")


def moment(d: Distribution, order: int) -> float:
    """Amplitude moment sum(p_q * A_q**order) of ``d`` on its own
    constellation; order 2 or 4."""
    if order not in (2, 4):
        raise ValueError("moment order must be 2 or 4")
    return float(np.dot(d.per_point, d.constellation.amplitudes ** order))
