"""The order attached to a split norm and its filtration.

Slots and their weights are those the norms module docstring fixes
once for the whole package, taken from the norm to itself, whose values
are a_1, ..., a_n.  hom_norm is the maximum slot weight (bottom for
h = 0).  The order of the norm consists of the h with hom_norm <= 0,
equivalently the h carrying every closed ball into itself, and its unit
group is the stabilizer.  Slot (i, j) can only carry weights congruent
to a_i - a_j mod 1, which grades the order by value classes represented
in (-1, 0]; the strictly negative part of one period is the unipotent
direction of the special fiber and the class-0 part contributes the
Levi blocks, one block per value class of the norm.

Membership needs no inverse: an element g of the order maps each ball
B into itself with index [B : gB] = p^val(det g) (the lattice-index
argument of Goldman and Iwahori, Acta Math. 109, 1963), so g is a unit
of the order exactly when det g is a p-adic unit.

Membership and the filtration level clear g once and conjugate it into
the splitting basis B once, into the slot table of B^-1 g B, unless
det g is not a p-adic unit, which refuses g first.  The level
is read from the same table with the identity subtracted, as
B^-1 (g - 1) B = B^-1 g B - 1.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .base_change import kernel_dim
from .errors import PreconditionError, SingularMatrixError
from .norms import BallChainPeriod, SplitNorm, _slot_table, _table_max, ball_basis, op_size
from .valuation import BOTTOM, Value, degree_rep, frac_part, pval


@dataclass(frozen=True)
class GradedOrderSummary:
    """Slot counts of the order, by value class represented in (-1, 0]."""

    dim: int
    class_dims: dict[Fraction, int]

    @property
    def total(self) -> int:
        return sum(self.class_dims.values())


@dataclass(frozen=True)
class FiberStructure:
    """Shape of the special fiber of the stabilizer scheme.

    levi_blocks are the value-class multiplicities m_c of the norm
    (sorted descending), unipotent_dim is base_change.kernel_dim, which
    counts the strictly negative slot classes of one period, and
    total_dim is n^2.
    """

    levi_blocks: tuple[int, ...]
    unipotent_dim: int
    total_dim: int


def hom_norm(norm: SplitNorm, h) -> Value:
    """Operator size of h with respect to the norm; bottom at h = 0.

    op_size from the norm to itself: the maximum slot weight, with slots
    as the norms module docstring sets them.
    """
    return op_size(norm, norm, h)


def _conjugated(norm: SplitNorm, g):
    """Is g a unit of the order, and the _slot_table of B^-1 g B, B the splitting basis,
    from g cleared once; the table is None when det g is not a p-adic unit, which decides
    before any product is built.  g must be n x n, checked before it must be invertible."""
    g_cols = linalg.cleared_square(g, norm.dim)
    d = linalg.det_cleared(g_cols)
    if d == 0:
        raise SingularMatrixError("matrix is singular")
    p = norm.cfg.prime
    if pval(d, p):
        return False, None  # the determinant alone refuses g
    image = linalg.times_cleared(g_cols, norm._cols)
    slots = _slot_table(norm._row_side, norm.values, image, p)
    return _table_max(slots, p) <= 0, slots


def is_stabilizer_element(norm: SplitNorm, g) -> bool:
    """Does g preserve the norm (equivalently every ball lattice)?

    True iff hom_norm(g) <= 0 and det g is a p-adic unit (see the
    module docstring).  Raises on a matrix of the wrong size, invertible
    or not, then on a singular one.
    """
    return _conjugated(norm, g)[0]


def graded_dims(norm: SplitNorm) -> GradedOrderSummary:
    """Slot counts per value class; classes with no slots are omitted."""
    counts: Counter[Fraction] = Counter()
    classes = norm.class_counts.items()
    for ci, mi in classes:
        for cj, mj in classes:
            counts[degree_rep(frac_part(ci - cj))] += mi * mj
    return GradedOrderSummary(norm.dim, dict(sorted(counts.items(), reverse=True)))


def fiber_structure(norm: SplitNorm) -> FiberStructure:
    """Levi blocks, unipotent dimension, and total dimension n^2."""
    blocks = tuple(sorted(norm.class_counts.values(), reverse=True))
    return FiberStructure(blocks, kernel_dim(norm), norm.dim * norm.dim)


def chain_period(norm: SplitNorm) -> BallChainPeriod:
    """One period of ball lattices, in ascending class order."""
    classes = norm.value_classes
    return BallChainPeriod(classes, tuple(ball_basis(norm, g) for g in classes))


def chain_certificates(period: BallChainPeriod) -> tuple[linalg.Matrix, ...]:
    """Integral transition matrices certifying the chain inclusions.

    One certificate per consecutive pair (smaller ball inside larger),
    plus the wrap-around: p times the last lattice inside the first.
    """
    lats = period.lattices
    if not lats:
        return ()
    certs = [linalg.matmul(big.inv, small.matrix) for small, big in zip(lats, lats[1:] + lats[:1])]
    p = lats[0].cfg.prime
    certs[-1] = tuple(tuple(p * x for x in row) for row in certs[-1])
    return tuple(certs)


def filtration_level(norm: SplitNorm, g) -> Value:
    """Depth of a stabilizer element in the congruence filtration.

    The level is hom_norm(g - id).  Levels at or below -1 mean the
    element reduces to the identity in the special fiber; these all
    collapse to bottom, so the result is either bottom or a value in
    the interval (-1, 0].
    """
    member, slots = _conjugated(norm, g)
    if not member:
        raise PreconditionError("filtration level requires a stabilizer element")
    _, _, table, dens, _ = slots
    # the identity's slot (i, i) in the table's form: 1 times row and column denominators
    for i, (_, d_i) in enumerate(norm._inv_rows):
        table[i][i] -= d_i * dens[i]
    level = _table_max(slots, norm.cfg.prime)
    return BOTTOM if level <= -1 else level
