"""Lattice-and-weights presentations of split norms.

A splitting pair is a full lattice together with one rational weight
per lattice column.  The associated norm takes each column to its
weight; conversely every split norm has a canonical pair whose weights
lie in [0, 1), obtained by scaling each splitting vector into that
window by a power of p.  A pair reads its weights once, into _vals, as
a norm reads its values, and a pair the package makes is born with
them, by pair_on; weights are the Fractions of those integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg, slots
from .errors import DimensionMismatchError
from .norms import (
    LatticeBasis, SplitNorm, canonical, check_compatible, frame_on, moved, on_lattice, plant,
)

__all__ = [
    "SplittingPair", "norm_from_pair", "pair_from_norm", "translate_pair", "verify_splitting",
]


@dataclass(frozen=True)
class SplittingPair:
    lattice: LatticeBasis
    weights: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = linalg.cleared_vector(self.weights)  # read once, into _vals
        if len(vals[0]) != self.lattice.dim:
            raise DimensionMismatchError(f"expected {self.lattice.dim} weights, got {len(vals[0])}")
        plant(self, "_vals", vals)
        plant(self, "weights", linalg.from_cleared_vector(vals))

    @property
    def is_canonical(self) -> bool:
        ints, den = self._vals
        return all(0 <= x < den for x in ints)


def pair_on(lattice: LatticeBasis, vals) -> SplittingPair:
    """The pair of the lattice and the weights cleared as vals = (ints, den), over the lcm of
    their denominators, kept as _vals; weights are their Fractions."""
    pair = object.__new__(SplittingPair)
    plant(pair, "lattice", lattice)
    plant(pair, "_vals", vals)
    plant(pair, "weights", linalg.from_cleared_vector(vals))
    return pair


def norm_from_pair(pair: SplittingPair) -> SplitNorm:
    """The norm sending each lattice column to its weight."""
    return on_lattice(pair.lattice, pair._vals)


def pair_from_norm(norm: SplitNorm) -> SplittingPair:
    """Canonical pair of a norm: weights in [0, 1).

    Column i of the lattice is p^floor(a_i) times splitting vector i,
    which has size equal to the fractional part of a_i.
    """
    lattice, _, weights = canonical(norm)
    return pair_on(lattice, weights)


def translate_pair(g, pair: SplittingPair) -> SplittingPair:
    """Transport a pair along an invertible matrix: lattice moves, weights stay."""
    lattice = frame_on(LatticeBasis, pair.lattice.cfg, *moved(g, pair.lattice))
    return pair_on(lattice, pair._vals)


def verify_splitting(norm: SplitNorm, pair: SplittingPair) -> bool:
    """Does the pair present exactly this norm: do the lattice columns split it, each at its
    weight (see slots.fit)?  The norm is inverted, not the lattice; a singular lattice raises
    SingularMatrixError.  Compatibility is checked first: another prime raises
    ConfigMismatchError ("prime mismatch: 2 vs 3", the norm's prime first), another dimension
    DimensionMismatchError."""
    check_compatible(norm, pair.lattice)
    return slots.splits(norm._row_side, pair.lattice._cols, pair._vals, norm.cfg.prime)
