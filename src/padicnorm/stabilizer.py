"""The order attached to a split norm and its filtration.

Slots and their weights are those the slots module docstring fixes
once for the whole package, taken from the norm to itself, whose values
are a_1, ..., a_n.  hom_norm is the maximum slot weight (bottom for
h = 0).  The order of the norm consists of the h with hom_norm <= 0,
equivalently the h carrying every closed ball into itself, and its unit
group is the stabilizer.  Slot (i, j) can only carry weights congruent
to a_i - a_j mod 1, which grades the order by value classes represented
in (-1, 0]; the strictly negative part of one period is the unipotent
direction of the special fiber and the class-0 part contributes the
Levi blocks, one block per value class of the norm.

Membership and the filtration level are one operator size: the
ultrametric inequality and hom_norm(1) = 0 give hom_norm(g) <=
max(hom_norm(g - 1), 0) and hom_norm(g - 1) <= max(hom_norm(g), 0), so
g lies in the order exactly when the level hom_norm(g - 1) <= 0.  Both
clear g once and read the level from g - 1 through the two pieces of
norms.op_weight, and decide on the special fiber, taking neither the
determinant nor the inverse of a member.  At level < 0, g lies in 1 + the
radical, and its inverse is the geometric series: a unit.  At level > 0
it is not in the order.  At level 0 it is, and it is a unit exactly
when its image in the Levi quotient, prod_c GL_{m_c}(F_p), is
invertible: when every class block of the leading residues of B^-1 g B
is nonsingular mod p, the one block test slots.graded (Goldman and
Iwahori, Acta Math. 109, 1963; Bruhat and Tits, Publ. IHES 41, 1972).
The root-group elements 1 + t E_ji conjugated by the splitting basis,
which generate the Bruhat-Tits group schemes and their Moy-Prasad
filtrations (Moy and Prasad, Invent. Math. 116, 1994), have g - 1 = u
phi of rank one, which needs no product (slots module docstring).  An
element g of the order maps each ball B into itself with index [B : gB]
= p^val(det g), so it is a unit exactly when det g is a p-adic unit,
and here det g = 1 + phi(u), the matrix determinant lemma: one dot
product.  Only a non-member is asked whether g is singular, proven
invertible by linalg.invertible as every matrix from outside is: a
singular one raises.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from . import linalg, slots
from .base_change import kernel_dim
from .errors import PreconditionError, SingularMatrixError
from .norms import BallChainPeriod, LatticeBasis, SplitNorm, ball_at, op_size, op_table, pure_weight
from .valuation import BOTTOM, Value, by_degree, multiplicity


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
    as the slots module docstring sets them.
    """
    return op_size(norm, norm, h)


def _level(norm: SplitNorm, g) -> tuple[int, int] | None:
    """hom_norm(g - 1) in integers, (w, scale) as op_weight gives it, from g cleared once, with
    bottom, at g = 1, as w = -scale: the level is bottom at or below -1 alike.  None when g
    is not a stabilizer element, decided on the special fiber (module docstring).  g must be
    n x n, checked before it must be invertible, which only a non-member is asked, by
    linalg.invertible."""
    g_cols = linalg.cleared_square(g, norm.dim)
    for j, (c, e) in enumerate(g_cols):
        c[j] -= e  # column j of g - 1: e_j over the denominator e holds e in row j
    p = norm.cfg.prime
    pure = slots.rank_one(g_cols)
    if pure is not None:
        u, (ints, den) = pure
        d = den + sum(map(mul, ints, u))  # den det g, as det(1 + u phi) = 1 + phi(u)
        if not d:
            raise SingularMatrixError("matrix is singular")
        if multiplicity(d, p) != multiplicity(den, p):
            return None
        w, scale = pure_weight(norm, norm, pure)
        return (w, scale) if w <= 0 else None
    side, col_w, table, dens = op_table(norm, norm, g_cols)
    best = slots.heaviest(side, col_w, table, p, range(len(table)))
    scale = side[2]
    w = -scale if best is None else best[0]
    if w == 0:
        for j, ((_, d), e) in enumerate(zip(norm._inv_rows, dens)):
            table[j][j] += d * e  # the table of B^-1 g B: slot (j, j) is over d_j e_j
    if w < 0 or w == 0 and slots.graded(side, col_w, table, [0] * len(table), p):
        return w, scale
    for j, (c, e) in enumerate(g_cols):
        c[j] += e  # g again, which a non-member must not be singular
    linalg.invertible(g_cols)
    return None


def is_stabilizer_element(norm: SplitNorm, g) -> bool:
    """Does g preserve the norm (equivalently every ball lattice)?

    True iff hom_norm(g - 1) <= 0 and g is a unit of the order: at level
    0 when its Levi blocks are nonsingular mod p, for a g - 1 = u phi of
    rank one when det g = 1 + phi(u) is a p-adic unit (module docstring).
    Raises on a matrix of the wrong size, invertible or not, then on a
    singular one.
    """
    return _level(norm, g) is not None


def graded_dims(norm: SplitNorm) -> GradedOrderSummary:
    """Slot counts per value class; classes with no slots are omitted.  Slot (i, j) of the
    classes r_i / den and r_j / den has the class of (r_i - r_j) / den."""
    den = norm._vals[1]
    counts: Counter[int] = Counter()
    classes = norm._residues
    for ri, mi in classes:
        for rj, mj in classes:
            counts[(ri - rj) % den] += mi * mj
    return GradedOrderSummary(norm.dim, by_degree(counts, den))


def fiber_structure(norm: SplitNorm) -> FiberStructure:
    """Levi blocks, unipotent dimension, and total dimension n^2."""
    blocks = tuple(sorted((m for _, m in norm._residues), reverse=True))
    return FiberStructure(blocks, kernel_dim(norm), norm.dim * norm.dim)


def chain_period(norm: SplitNorm) -> BallChainPeriod:
    """One period of ball lattices, in ascending class order: the closed ball at each class
    r / den of the norm's residues."""
    den = norm._vals[1]
    lattices = tuple(ball_at(norm, r, den, True) for r, _ in norm._residues)
    return BallChainPeriod(norm.value_classes, lattices)


def chain_certificates(period: BallChainPeriod) -> tuple[linalg.Matrix, ...]:
    """Integral transition matrices certifying the chain inclusions.

    One certificate per consecutive pair (smaller ball inside larger),
    plus the wrap-around: p times the last lattice inside the first.
    """
    lats = period.lattices
    if not lats:
        return ()
    scales = [1] * (len(lats) - 1) + [lats[0].cfg.prime]
    pairs = zip(lats, lats[1:] + lats[:1], scales)
    return tuple(_transition(big, small, s) for small, big, s in pairs)


def _transition(big: LatticeBasis, small: LatticeBasis, scale: int) -> linalg.Matrix:
    """scale times big^-1 @ small, in integers: big's cleared inverse rows by small's columns."""
    return tuple(
        tuple(Fraction(scale * sum(map(mul, r, c)), d * e) for c, e in small._cols)
        for r, d in big._inv_rows
    )


def filtration_level(norm: SplitNorm, g) -> Value:
    """Depth of a stabilizer element in the congruence filtration.

    The level is hom_norm(g - id).  Levels at or below -1 mean the
    element reduces to the identity in the special fiber; these all
    collapse to bottom, so the result is either bottom or a value in
    the interval (-1, 0].
    """
    level = _level(norm, g)
    if level is None:
        raise PreconditionError("filtration level requires a stabilizer element")
    w, scale = level
    return BOTTOM if w <= -scale else Value(Fraction(w, scale))
