"""Apartment coordinates, relative position, and the rank-2 tree.

The standard apartment consists of the norms split by the standard
basis; a rational vector of coordinates is the corresponding tuple of
values.  A norm lies in the apartment of a frame exactly when the
frame splits it, and homothetic norms differ by one integer on the
columns of any basis that splits one of them: both are read from the
one splitting test of norms (see norms._fit), as equality is.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import PreconditionError
from .norms import SplitNorm, _fit, _split, ball_basis, distance
from .valuation import FieldConfig, val


def norm_from_apartment(coords, cfg: FieldConfig) -> SplitNorm:
    """The standard-apartment norm with the given coordinate vector."""
    coords = linalg.vec(coords)
    return SplitNorm(cfg, len(coords), linalg.identity(len(coords)), coords)


def apartment_coords(norm: SplitNorm, frame=None) -> tuple[Fraction, ...] | None:
    """Coordinates of the norm in the frame's apartment, or None.

    The only candidate coordinates are the sizes of the frame columns,
    and the norm lies in the apartment iff the frame splits it at those
    sizes: the excesses of the frame columns over values 0 (see
    norms._fit).  The norm is inverted, not the frame; a singular frame
    raises SingularMatrixError.
    """
    if frame is None:
        frame = linalg.identity(norm.dim)
    fit = _fit(norm, linalg.cleared_square(frame, norm.dim, "frame"), (0,) * norm.dim)
    return None if fit is None else tuple(Fraction(w, fit[1]) for w in fit[0])


def torus_translation(t, cfg: FieldConfig) -> tuple[Fraction, ...]:
    """Translation vector of a diagonal torus element: the valuations
    of its diagonal entries."""
    t = linalg.square(t, what="torus element")
    n = len(t)
    for i in range(n):
        for j in range(n):
            if i != j and t[i][j] != 0:
                raise PreconditionError("torus element must be diagonal")
        if t[i][i] == 0:
            raise PreconditionError("torus element must be invertible")
    return tuple(val(t[i][i], cfg).mag for i in range(n))


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
    return tuple(norm.class_counts.values())


def tree_neighbors(norm: SplitNorm) -> tuple[SplitNorm, ...]:
    """The p + 1 neighbors of a vertex of the rank-2 tree.

    The norm must have dimension 2 and a single value class s; its
    vertex lattice is the ball at s.  The neighbors are the index-p
    sublattices, returned as lattice norms shifted by s: first the
    sublattice scaling the first column, then one per residue c with
    second column scaled and c times the second column added to the
    first.
    """
    if norm.dim != 2:
        raise PreconditionError("tree neighbors are defined for dimension 2 only")
    classes = norm.value_classes
    if len(classes) != 1:
        raise PreconditionError("tree vertices carry a single value class")
    s = classes[0]
    p = norm.cfg.prime
    ball = ball_basis(norm, s)._cols
    # the integral transitions ((p, 0), (0, 1)) and ((1, 0), (c, p)), as cleared columns
    moves = [[([p, 0], 1), ([0, 1], 1)]] + [[([1, c], 1), ([0, p], 1)] for c in range(p)]
    return tuple(_split(norm.cfg, linalg.times_cleared(ball, m), (s, s)) for m in moves)


def homothetic(a: SplitNorm, b: SplitNorm) -> bool:
    """Are two norms equal up to an integer shift of all values?

    a = b + k exactly when b's columns split a, each with the same
    excess k over its value in b (see norms._fit).  Only a is inverted;
    a singular basis of b raises SingularMatrixError.
    """
    if a.cfg != b.cfg or a.dim != b.dim:
        return False
    fit = _fit(a, b._cols, b.values)
    if fit is None:
        return False
    t, scale = fit
    return len(set(t)) < 2 and not any(w % scale for w in t)


__all__ = [
    "norm_from_apartment",
    "apartment_coords",
    "torus_translation",
    "cartan_position",
    "point_type",
    "tree_neighbors",
    "homothetic",
]
