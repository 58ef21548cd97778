"""Apartment coordinates, relative position, and the rank-2 tree.

The standard apartment consists of the norms split by the standard
basis; a rational vector of coordinates is the corresponding tuple of
values.  A norm lies in the apartment of a frame exactly when the
frame splits it, which is decidable: evaluate the norm on the frame
columns; the resulting candidate dominates the norm, so the two are
equal exactly when their volumes agree (see norms.equals).
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import PreconditionError, SingularMatrixError
from .norms import (
    SplitNorm,
    _heaviest,
    _slot_table,
    _split,
    _volume_gap,
    ball_basis,
    distance,
)
from .valuation import FieldConfig, val


def norm_from_apartment(coords, cfg: FieldConfig) -> SplitNorm:
    """The standard-apartment norm with the given coordinate vector."""
    coords = linalg.vec(coords)
    return SplitNorm(cfg, len(coords), linalg.identity(len(coords)), coords)


def apartment_coords(norm: SplitNorm, frame=None) -> tuple[Fraction, ...] | None:
    """Coordinates of the norm in the frame's apartment, or None.

    The only candidate coordinates are the sizes of the frame columns;
    the norm lies in the apartment iff the frame with those values
    reproduces it.  By the ultrametric inequality the candidate is at
    least the norm everywhere, so equal volumes decide it.  Both are
    read from one slot table of B^-1 F, B the norm's basis and F the
    frame: column j's greatest weight is the size of frame column j.
    The frame is not inverted; a singular one raises
    SingularMatrixError.
    """
    if frame is None:
        frame = linalg.identity(norm.dim)
    frame = linalg.square(frame, norm.dim, "frame")
    p = norm.cfg.prime
    slots = _slot_table(norm.values, norm._inv_rows, (0,) * norm.dim, linalg.cleared(frame), p)
    row_w, col_w, table, _, scale = slots
    tops = [_heaviest(row_w, col_w, table, scale, p, (j,)) for j in range(norm.dim)]
    if any(top is None for top in tops):
        raise SingularMatrixError("matrix is singular")  # a zero frame column
    # the candidate's volume is the frame's, at values 0, plus the candidate's values
    if _volume_gap(slots, p) != sum(w for w, _, _ in tops):
        return None
    return tuple(Fraction(w, scale) for w, _, _ in tops)


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

    One slot table of a^-1 b: its greatest weight is k = op_size(b, a),
    so a <= b + k everywhere, and a = b + k exactly when their volumes
    agree, vol(a) = vol(b) + n k (see norms.equals).  A singular basis
    raises SingularMatrixError once k is an integer.
    """
    if a.cfg != b.cfg or a.dim != b.dim:
        return False
    if a.dim == 0:
        return True
    p = a.cfg.prime
    slots = _slot_table(a.values, a._inv_rows, b.values, b._cols, p)
    row_w, col_w, table, _, scale = slots
    top = _heaviest(row_w, col_w, table, scale, p, range(a.dim))
    if top is None:
        raise SingularMatrixError("matrix is singular")  # b's basis is 0
    return top[0] % scale == 0 and _volume_gap(slots, p) == a.dim * top[0]


__all__ = [
    "norm_from_apartment",
    "apartment_coords",
    "torus_translation",
    "cartan_position",
    "point_type",
    "tree_neighbors",
    "homothetic",
]
