"""Apartment coordinates, relative position, and the rank-2 tree.

The standard apartment consists of the norms split by the standard
basis; a rational vector of coordinates is the corresponding tuple of
values.  A norm lies in the apartment of a frame exactly when the
frame splits it, and homothetic norms differ by one integer on the
columns of any basis that splits one of them: both are read from the
one splitting test, slots.fit, as equality is.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg, slots
from .errors import PreconditionError
from .norms import SplitNorm, ball_at, distance, norm_on
from .valuation import FieldConfig, multiplicity

__all__ = [
    "norm_from_apartment", "apartment_coords", "torus_translation", "cartan_position",
    "point_type", "tree_neighbors", "homothetic",
]

# tree_neighbors builds all p + 1 neighbors of a vertex, so it refuses primes above this
TREE_PRIME_LIMIT = 1000


def norm_from_apartment(coords, cfg: FieldConfig) -> SplitNorm:
    """The standard-apartment norm with the given coordinate vector."""
    vals = linalg.cleared_vector(coords)
    return norm_on(cfg, linalg.units(len(vals[0])), vals)


def apartment_coords(norm: SplitNorm, frame=None) -> tuple[Fraction, ...] | None:
    """Coordinates of the norm in the frame's apartment, or None.

    The only candidate coordinates are the sizes of the frame columns,
    and the norm lies in the apartment iff the frame splits it at those
    sizes: the excesses of the frame columns over values 0 (see
    slots.fit).  The norm is inverted, not the frame; a singular frame
    raises SingularMatrixError.
    """
    n = norm.dim
    cols = linalg.units(n) if frame is None else linalg.cleared_square(frame, n, "frame")
    fit = slots.fit(norm._row_side, cols, ([0] * n, 1), norm.cfg.prime)
    return None if fit is None else tuple(Fraction(w, fit[1]) for w in fit[0])


def torus_translation(t, cfg: FieldConfig) -> tuple[Fraction, ...]:
    """Translation vector of a diagonal torus element: the valuations
    of its diagonal entries."""
    t, p = linalg.square_ratios(t, what="torus element"), cfg.prime
    for i, row in enumerate(t):
        if any(a for j, (a, _) in enumerate(row) if j != i):
            raise PreconditionError("torus element must be diagonal")
        if not row[i][0]:
            raise PreconditionError("torus element must be invertible")
    diagonal = [row[i] for i, row in enumerate(t)]  # in lowest terms: a or b is prime to p
    return tuple(Fraction(multiplicity(a, p) or -multiplicity(b, p)) for a, b in diagonal)


def cartan_position(a: SplitNorm, b: SplitNorm) -> tuple[Fraction, ...]:
    """Relative position of two norms: the value differences over a
    common splitting basis, sorted descending.

    For two lattice norms this is the list of elementary divisor
    exponents of the transition matrix.  Swapping the arguments negates
    and reverses the vector.
    """
    return distance(a, b)[1]


def point_type(norm: SplitNorm) -> tuple[int, ...]:
    """Value-class multiplicities, ordered by ascending class in [0, 1).

    Length 1 with class zero means hyperspecial; length n means the
    barycenter of a chamber.
    """
    return tuple(m for _, m in norm._residues)


def tree_neighbors(norm: SplitNorm) -> tuple[SplitNorm, ...]:
    """The p + 1 neighbors of a vertex of the rank-2 tree.

    The norm must have dimension 2 and a single value class s; its
    vertex lattice is the ball at s.  The neighbors are the index-p
    sublattices, returned as lattice norms shifted by s: first the
    sublattice scaling the first column, then one per residue c with
    second column scaled and c times the second column added to the
    first.  A prime above TREE_PRIME_LIMIT is refused before any
    other check.
    """
    if norm.cfg.prime > TREE_PRIME_LIMIT:
        raise PreconditionError(f"tree needs a prime of at most {TREE_PRIME_LIMIT}")
    if norm.dim != 2:
        raise PreconditionError("tree neighbors are defined for dimension 2 only")
    if len(norm._residues) != 1:
        raise PreconditionError("tree vertices carry a single value class")
    (r, _), den = norm._residues[0], norm._vals[1]
    p = norm.cfg.prime
    ball = ball_at(norm, r, den, True)._cols
    # the integral transitions ((p, 0), (0, 1)) and ((1, 0), (c, p)), as cleared columns
    moves = [[([p, 0], 1), ([0, 1], 1)]] + [[([1, c], 1), ([0, p], 1)] for c in range(p)]
    return tuple(norm_on(norm.cfg, linalg.times_cleared(ball, m), ([r, r], den)) for m in moves)


def homothetic(a: SplitNorm, b: SplitNorm) -> bool:
    """Are two norms equal up to an integer shift of all values?

    a = b + k exactly when b's columns split a, each with the same
    excess k over its value in b (see slots.fit).  Only a is inverted;
    a singular basis of b raises SingularMatrixError.
    """
    if a.cfg != b.cfg or a.dim != b.dim:
        return False
    fit = slots.fit(a._row_side, b._cols, b._vals, a.cfg.prime)
    if fit is None:
        return False
    t, scale = fit
    return len(set(t)) < 2 and not any(w % scale for w in t)

