"""Gradings of a split norm under virtual extensions of the base.

The weight multiset of a norm records how many splitting values fall
into each class mod 1; it is the diagonal-character data of the norm
and is insensitive to the presentation.  Squaring and summing the
multiplicities gives the dimension of the centralizer of that
character inside n x n matrices; the complement inside n^2 is the
unipotent kernel dimension, matching the fiber structure of the
stabilizer.

A virtual extension is described only by its ramification index e:
1 leaves everything unchanged, finite e refines value classes to
cosets of (1/e)Z, and None models a fully surjective value group,
under which every split norm becomes a lattice norm (a single class).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import PreconditionError
from .norms import SplitNorm
from .valuation import by_degree

__all__ = [
    "VirtualExtension", "chi_weights", "extension_value_classes", "is_lattice_norm_over",
    "centralizer_dim", "kernel_dim", "graded_ball_dims",
]

WeightMultiset = dict[Fraction, int]


@dataclass(frozen=True)
class VirtualExtension:
    """Totally ramified virtual extension, known only by its index.

    ram_index None means the extension's value group is all of Q.
    """

    ram_index: int | None = None

    def __post_init__(self) -> None:
        e = self.ram_index
        if e is not None and (not isinstance(e, int) or isinstance(e, bool) or e < 1):
            raise PreconditionError(f"ram_index must be a positive int or None, got {e!r}")


def chi_weights(norm: SplitNorm) -> WeightMultiset:
    """Multiset of splitting-value classes mod 1, keys ascending in [0, 1)."""
    return dict(norm.class_counts)


def extension_value_classes(norm: SplitNorm, ext: VirtualExtension) -> WeightMultiset:
    """Value-class multiset after refining by the extension's index.

    For index 1 this is chi_weights; for a surjective value group all
    classes collapse to a single one and the norm becomes a lattice
    norm over the extension.
    """
    e = ext.ram_index
    if e is None:
        return {Fraction(0): norm.dim} if norm.dim else {}
    # a in the class r / den has e a in the class (r e mod den) / den; divided by e, the key
    den = norm._vals[1]
    counts = Counter()
    for r, m in norm._residues:
        counts[r * e % den] += m
    return {Fraction(r, den * e): m for r, m in sorted(counts.items())}


def is_lattice_norm_over(norm: SplitNorm, ext: VirtualExtension) -> bool:
    """Does the norm become a lattice norm over the extension: is e c in Z for each class c?"""
    e, den = ext.ram_index, norm._vals[1]
    return e is None or all(r * e % den == 0 for r, _ in norm._residues)


def centralizer_dim(norm: SplitNorm) -> int:
    """Dimension of the centralizer of the weight character: sum of
    squared class multiplicities."""
    return sum(m * m for _, m in norm._residues)


def kernel_dim(norm: SplitNorm) -> int:
    """Dimension of the unipotent kernel of the base-change comparison
    map; equals the unipotent dimension of the special fiber."""
    return norm.dim * norm.dim - centralizer_dim(norm)


def graded_ball_dims(norm: SplitNorm, g) -> dict[Fraction, tuple[int, int]]:
    """Each graded piece of the ball at level g, both entries read from the one class count.

    For each degree d in (-1, 0] with a nonzero piece, at t = g + d, the left entry is the
    exponent of p in the index of the open ball inside the closed ball at t: the balls scale
    e_i by p^ceil(a_i - t) and p^(floor(a_i - t) + 1), which differ exactly when a_i - t is an
    integer, so the index counts the values in the class of t.  The right entry is that
    class's multiplicity, the same count.  tests/test_base_change.py::
    test_graded_ball_dims_agree checks the index independently, from the determinants of the
    balls.
    """
    # both balls scale by p^k when g moves by k, so only g mod 1 matters: with g = num / den
    # and class c = r / d, c - g is (r den - num d) / q, q = d den, of residue k mod q
    num, den = linalg.ratio(g)
    d = norm._vals[1]
    q, t = d * den, num * d
    return by_degree({(r * den - t) % q: (m, m) for r, m in norm._residues}, q)
