"""Splittable non-archimedean norms on Q^n, in exact arithmetic.

A split norm is presented by an invertible matrix whose columns form a
splitting basis together with one rational value per column.  Writing
a_1, ..., a_n for the values, the size of a vector v = sum l_i e_i is

    max_i (a_i - val(l_i)),

with the maximum over the nonzero coordinates and bottom at v = 0.
All operations keep this presentation; no other representation of a
norm exists in the package.

Equality is one splitting test, slots.fit, which inverts only the norm
it tests; slots.splits asks it at given values.  equals(a, b) asks that
of a's columns against b, verify_splitting of a pair's lattice, and
the two reconstruction checks of a split of its column operations E on
a table's unit rows, which forms no split column and inverts nothing:
the first of the first slot table B^-1 C times E, as (B^-1 C) E =
B^-1 (C E), the second of E itself on b's.  homothetic and
apartment_coords read fit's excesses.

The subspace and common-basis computations below are a valuated
version of Gaussian elimination by column operations alone.  Column
operations rewrite the incoming spanning set (freely for a subspace,
value-compatibly for a second norm), and choosing a pivot of maximal
weight makes every step admissible.  The ambient splitting basis is
never rewritten: once a pivot's row is cleared across the open
columns, a row operation would subtract zero from all of them, and the
ambient vectors of the rows never pivoted complete the split columns
as they stand.  _split_span runs both, with the first check, and
returns the values and E, not a norm; a common basis adds only the
second check.  The elimination runs on the slot table itself, each row
scaled by its denominator d_i, which the row's weight absorbs and
column operations commute with.

Norms and lattices are frames: a basis held as cleared columns,
integers over one denominator per column, and its inverse as cleared
rows, made once, on first read, by the frame's recipe.  Every frame
holds only these, made or built by a public constructor, which reads
its basis once.  The default recipe is linalg.inverse_rows.  A frame
made from others has one recipe, _inverse_from: the kernel that built
its columns, applied to its sources' inverse rows.  tensor and
direct_sum use kron_cleared and block_cleared; a ball B diag(p^k)
uses _powers, as diag(p^-k) B^-1; act and translate_pair make the
acting matrix g a frame, so the rows of M^-1 g^-1 are times_cleared
of g's and M's, and only g is inverted.  dual swaps columns and rows,
and the norms on a lattice share its rows.  Columns from outside, a
document's or g's, are proven invertible by linalg.invertible: by a
determinant modulo a fixed prime, with no inverse, or else by the exact
inverse, which is kept.  The Fraction matrices basis, inv_basis,
matrix and inv are views, built on first access; the comparison path
(equals, distance, the self-checks) never builds one.  == and hash
read the fields basis and matrix: == compares presentations, equals
compares norms.

A norm's values are cleared the same way, into _vals = (ints, den),
integers over the lcm of their denominators.  One rule holds for both:
a public constructor reads basis and values once, into _cols and
_vals, a norm the package makes is born with them, and every Fraction
on a frame, values too, is a view built on first read.  Every
computation on values reads _vals in integers: the slot tables, the
balls (ceilings and floors by integer floor division), the residues
mod den that count the value classes and grade the order and the
balls, and the values of the norms made from others.  A Fraction is
built only for a public result, one Fraction(a, den) per entry.  A
norm makes its row side once, with its inverse, as the cached
_row_side, which pickles and copies with it.

op_size sizes a map h = u phi of rank one (slots module docstring) as
dst(u) plus dual(src)(phi), pure_weight, against src's cached
_dual_side, whose inverse rows are src's own columns: no inverse and no
product; any other map from the one op_table.  Membership and the
filtration level (stabilizer) read g - 1 through the same two pieces.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from types import MappingProxyType

from . import linalg, slots
from .errors import (
    ConfigMismatchError,
    DimensionMismatchError,
    PreconditionError,
    RankDeficiencyError,
    SelfCheckError,
)
from .linalg import Cleared, Matrix, digit_limit
from .valuation import BOTTOM, TOO_LARGE, FieldConfig, Value, multiplicity

__all__ = [
    "SplitNorm", "LatticeBasis", "BallChainPeriod", "evaluate", "lattice_norm", "op_size",
    "ball_basis", "ball_basis_open", "lattice_contains", "lattices_equal", "equals", "act",
    "tensor", "dual", "direct_sum", "restrict", "quotient", "common_splitting_basis", "distance",
]


def plant(obj, name: str, value) -> None:
    object.__setattr__(obj, name, value)


class _Frame:
    """An invertible matrix held as its cleared columns _cols, with the cleared rows _inv_rows
    of its inverse made once, on first read, by the recipe _inv_from: linalg.inverse_rows of
    the columns, unless the frame was made with another (see frame_on).  Every Fraction on a
    frame is a view, built on first access: the field named by _view of the columns, the one
    named by _inv_view of the inverse and, for a norm, the one named by _vals_view of its
    cleared values _vals."""

    _view = _inv_view = _vals_view = ""

    def _inv_from(self) -> Cleared:
        return linalg.inverse_rows(self._cols)

    @cached_property
    def _inv_rows(self) -> Cleared:
        return self._inv_from()

    def __getattr__(self, name: str):
        if name == self._view:
            view = linalg.from_cleared_columns(self._cols, len(self._cols))
        elif name == self._inv_view:
            view = linalg.from_cleared(self._inv_rows)
        elif name == self._vals_view:
            view = linalg.from_cleared_vector(self._vals)
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        plant(self, name, view)
        return view


@dataclass(frozen=True)
class SplitNorm(_Frame):
    """A norm on Q^n given by a splitting basis and its values.

    basis: n x n invertible matrix, columns are the splitting vectors.
    values: value of the norm on each basis column, in column order.
    The basis is not checked invertible: a singular one raises SingularMatrixError when inverted.
    """

    cfg: FieldConfig
    dim: int
    basis: Matrix
    values: tuple[Fraction, ...]

    _view, _inv_view, _vals_view = "basis", "_inv", "values"

    def __post_init__(self) -> None:
        n = self.dim
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise DimensionMismatchError(f"dim must be a nonnegative int, got {n!r}")
        basis = vars(self).pop("basis")  # read once, into _cols: basis is a view of them
        plant(self, "_cols", linalg.cleared_square(basis, n, "basis"))
        vals = linalg.cleared_vector(vars(self).pop("values"))  # read once, into _vals
        if len(vals[0]) != n:
            raise DimensionMismatchError(f"expected {n} values, got {len(vals[0])}")
        plant(self, "_vals", vals)

    # not a cached_property: perfbench/tracing.py wraps its fget and checks "_inv" in vars(norm)
    @property
    def inv_basis(self) -> Matrix:
        return self._inv  # type: ignore[attr-defined]

    @cached_property
    def _row_side(self):
        """slots.row_side_of this norm's values and inverse rows, made once with the inverse."""
        return slots.row_side_of(self._vals, self._inv_rows, self.cfg.prime)

    @cached_property
    def _dual_side(self):
        """The _row_side of dual(self), whose inverse rows are this norm's columns."""
        ints, den = self._vals
        return slots.row_side_of(([-a for a in ints], den), self._cols, self.cfg.prime)

    @cached_property
    def _residues(self) -> list[tuple[int, int]]:
        """Each value class as (r, m): r the residue mod den of the integers of _vals = (ints,
        den), so the class is r / den in [0, 1), and m its multiplicity; r ascending."""
        ints, den = self._vals
        return sorted(Counter(a % den for a in ints).items())

    @cached_property
    def _class_counts(self) -> dict[Fraction, int]:
        den = self._vals[1]
        return {Fraction(r, den): m for r, m in self._residues}

    @property
    def class_counts(self) -> MappingProxyType[Fraction, int]:
        """Multiplicity of each value class mod 1, keys ascending in [0, 1)."""
        return MappingProxyType(self._class_counts)

    @property
    def value_classes(self) -> tuple[Fraction, ...]:
        """Distinct classes mod 1 of the values, ascending in [0, 1)."""
        return tuple(self.class_counts)


@dataclass(frozen=True)
class LatticeBasis(_Frame):
    """A full-rank lattice over the valuation ring, spanned by the columns."""

    cfg: FieldConfig
    matrix: Matrix

    _view, _inv_view = "matrix", "inv"

    def __post_init__(self) -> None:
        matrix = vars(self).pop("matrix")  # read once, into _cols: matrix is a view of them
        plant(self, "_cols", linalg.cleared_square(matrix, what="lattice matrix"))

    @property
    def dim(self) -> int:
        return len(self._cols)


def frame_on(cls, cfg: FieldConfig, cols: Cleared, inv_from: Callable[[], Cleared] | None = None):
    """A frame of class cls on cleared columns, a SplitNorm still without dim and values.
    inv_from, a function of no arguments, replaces the default recipe; it is a partial of a
    module-level function, as _inverse_from makes them, so the frame pickles."""
    frame = object.__new__(cls)
    plant(frame, "cfg", cfg)
    plant(frame, "_cols", cols)
    if inv_from is not None:
        plant(frame, "_inv_from", inv_from)
    return frame


def _inverse_from(kernel, *args) -> Cleared:
    """The cleared inverse rows of a made frame: kernel of args, each frame among them standing
    for its own inverse rows, read only now.  The one recipe of every frame made from others:
    a ball scales its norm's rows, a move or a product combines those of its inputs."""
    return kernel(*(a._inv_rows if isinstance(a, _Frame) else a for a in args))


def proven(frame: _Frame) -> _Frame:
    """The frame, proven invertible by linalg.invertible: by a determinant modulo a fixed
    prime, or else by the exact inverse, which raises SingularMatrixError for a singular
    frame and is planted as its _inv_rows."""
    rows = linalg.invertible(frame._cols)
    if rows is not None:
        plant(frame, "_inv_rows", rows)
    return frame


def norm_on(cfg: FieldConfig, cols: Cleared, vals, inv_from=None) -> SplitNorm:
    """The norm taking cleared column j to value j of the cleared vector vals = (ints, den),
    kept as _vals over the lcm of the values' denominators; values is a view of them."""
    norm = frame_on(SplitNorm, cfg, cols, inv_from)
    plant(norm, "dim", len(cols))
    plant(norm, "_vals", linalg.reduced(*vals))
    return norm


@dataclass(frozen=True)
class BallChainPeriod:
    """One period of the closed-ball chain: classes ascending in [0, 1),
    with the lattice of each class.  Shifting the class by -1 multiplies
    the lattice by p."""

    classes: tuple[Fraction, ...]
    lattices: tuple[LatticeBasis, ...]


def _check_prime(a: SplitNorm, b: SplitNorm) -> None:
    if a.cfg != b.cfg:
        raise ConfigMismatchError(f"prime mismatch: {a.cfg.prime} vs {b.cfg.prime}")


def check_compatible(a: SplitNorm, b: SplitNorm) -> None:
    _check_prime(a, b)
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


def evaluate(norm: SplitNorm, v) -> Value:
    """Size of a vector, bottom at the zero vector: slots.size of B^-1 v, v cleared once."""
    ints, e = linalg.cleared_vector(v)
    if len(ints) != norm.dim:
        raise DimensionMismatchError(f"vector has length {len(ints)}, norm has dim {norm.dim}")
    side, p = norm._row_side, norm.cfg.prime
    best = slots.size(side, ints, side[2] * multiplicity(e, p), p)
    return BOTTOM if best is None else Value(Fraction(best, side[2]))


def on_lattice(lattice: LatticeBasis, vals) -> SplitNorm:
    """The norm taking column i of the lattice to value i of the cleared vector vals; it
    shares the lattice's cleared columns and inverse rows."""
    return norm_on(lattice.cfg, lattice._cols, vals, partial(getattr, lattice, "_inv_rows"))


def lattice_norm(lattice: LatticeBasis) -> SplitNorm:
    """The norm whose unit ball is exactly the given lattice."""
    return on_lattice(lattice, ([0] * lattice.dim, 1))


def op_size(src: SplitNorm, dst: SplitNorm, h=None) -> Value:
    """Operator size of h from src to dst; h = None is the identity.

    The least s with dst(h v) <= src(v) + s for every v, bottom at h = 0:
    the maximum weight over the slots of M = dst.inv_basis @ h @ src.basis
    (slots module docstring), as by the ultrametric inequality it is attained
    on a src-splitting column.
    """
    check_compatible(src, dst)
    h_cols = None if h is None else linalg.cleared_square(h, src.dim)
    pure = None if h_cols is None else slots.rank_one(h_cols)
    if pure is not None:
        return Value(Fraction(*pure_weight(src, dst, pure)))
    side, col_w, table, _ = op_table(src, dst, h_cols)
    best = slots.heaviest(side, col_w, table, src.cfg.prime, range(len(table)))
    return BOTTOM if best is None else Value(Fraction(best[0], side[2]))


def op_table(src: SplitNorm, dst: SplitNorm, h_cols: Cleared | None):
    """The slots.slot_table of dst's rows and h's columns times src's, h_cols None the
    identity."""
    image = src._cols if h_cols is None else linalg.times_cleared(h_cols, src._cols)
    return slots.slot_table(dst._row_side, src._vals, image, src.cfg.prime)


def pure_weight(src: SplitNorm, dst: SplitNorm, pure) -> tuple[int, int]:
    """op_size of h = u phi in integers, (w, scale) with w / scale the size, pure = (u, phi)
    as slots.rank_one gives it: dst(u) + dual(src)(phi), two vector sizes and no product."""
    p = src.cfg.prime
    s_dst, s_src = dst._vals[1], src._vals[1]
    scale = math.lcm(s_dst, s_src)
    u, (ints, den) = pure
    w_u = slots.size(dst._row_side, u, 0, p)
    w_phi = slots.size(src._dual_side, ints, s_src * multiplicity(den, p), p)
    return w_u * (scale // s_dst) + w_phi * (scale // s_src), scale


def _scaled_ball(norm: SplitNorm, exponents: list[int]) -> LatticeBasis:
    """The lattice of the norm's columns times p^k, one exponent k each: B diag(p^k), whose
    inverse diag(p^-k) B^-1 is the norm's one inverse scaled by the same _powers."""
    p = norm.cfg.prime
    # p^k has |k| log10 p digits and a basis entry cancels at most a digit limit's worth of
    # them, so past twice the limit no entry can be printed: refuse before building p^k
    if max(map(abs, exponents), default=0) > 2 * digit_limit() / math.log10(p):
        raise PreconditionError(TOO_LARGE)
    inv_from = partial(_inverse_from, _powers, norm, p, [-k for k in exponents])
    return frame_on(LatticeBasis, norm.cfg, _powers(norm._cols, p, exponents), inv_from)


def _powers(vectors: Cleared, p: int, exponents) -> Cleared:
    """The cleared vectors, each times p^k for its exponent k.  A ball's exponents differ by
    the spread of the values and may all lie far out, so one long power p^m is built, m the
    least |k|, and each vector takes p^m p^(|k| - m)."""
    m = min(map(abs, exponents), default=0)
    p_m = p**m
    out = []
    for (ints, den), k in zip(vectors, exponents):
        q = p_m * p ** (abs(k) - m)
        if k >= 0:
            out.append(linalg.reduced([x * q for x in ints], den))
        else:
            out.append(linalg.reduced(ints, den * q))
    return out


def canonical(norm: SplitNorm):
    """(lattice, shifts, sizes): the lattice of p^floor(a_i) e_i, the floors floor(a_i), and
    the sizes a_i - floor(a_i) in [0, 1) of its columns, cleared; from _vals = (ints, den)
    they are ints[i] // den and ints[i] % den over den."""
    ints, den = norm._vals
    shifts = [a // den for a in ints]
    return _scaled_ball(norm, shifts), shifts, ([a % den for a in ints], den)


def ball_at(norm: SplitNorm, num: int, den: int, closed: bool) -> LatticeBasis:
    """The closed or open ball at the level g = num / den, den > 0: with a_i = ints[i] / d
    from _vals, a_i - g is (ints[i] den - num d) / (d den), whose ceiling and floor are
    integer floor divisions."""
    ints, d = norm._vals
    t, q = num * d, d * den
    if closed:
        return _scaled_ball(norm, [-((t - a * den) // q) for a in ints])
    return _scaled_ball(norm, [(a * den - t) // q + 1 for a in ints])


def ball_basis(norm: SplitNorm, g) -> LatticeBasis:
    """Lattice of vectors of size at most g: spanned by p^ceil(a_i - g) e_i."""
    return ball_at(norm, *linalg.ratio(g), True)


def ball_basis_open(norm: SplitNorm, g) -> LatticeBasis:
    """Lattice of vectors of size strictly below g: spanned by p^(floor(a_i - g) + 1) e_i."""
    return ball_at(norm, *linalg.ratio(g), False)


def lattice_contains(outer: LatticeBasis, inner: LatticeBasis) -> bool:
    """Containment: the inclusion of inner into outer has size <= 0,
    i.e. an integral transition matrix."""
    return op_size(lattice_norm(inner), lattice_norm(outer)) <= 0


def lattices_equal(a: LatticeBasis, b: LatticeBasis) -> bool:
    """Equality of lattices: equality of their lattice norms."""
    return equals(lattice_norm(a), lattice_norm(b))


def equals(a: SplitNorm, b: SplitNorm) -> bool:
    """Exact equality of norms: a's columns split b, each at its value in a (see slots.fit).
    Only b's inverse is read; a singular basis of a raises SingularMatrixError."""
    check_compatible(a, b)
    return slots.splits(b._row_side, a._cols, a._vals, b.cfg.prime)


def moved(g, frame: _Frame) -> tuple[Cleared, Callable[[], Cleared]]:
    """The cleared columns of g M, M the frame's matrix, and the recipe of (g M)^-1 = M^-1
    g^-1, whose rows are the columns of (g^-1)^T (M^-1)^T: times_cleared of the inverse rows
    of g, a proven frame, and of M, so only g is inverted."""
    g_cols = linalg.cleared_square(g, len(frame._cols), "acting matrix")
    g = proven(frame_on(_Frame, frame.cfg, g_cols))
    inv_from = partial(_inverse_from, linalg.times_cleared, g, frame)
    return linalg.times_cleared(g_cols, frame._cols), inv_from


def act(g, norm: SplitNorm) -> SplitNorm:
    """Transport the norm along an invertible matrix g (v -> size of g^-1 v)."""
    cols, inv_from = moved(g, norm)
    return norm_on(norm.cfg, cols, norm._vals, inv_from)


def _made_from(kernel, a: SplitNorm, b: SplitNorm, vals, *dims) -> SplitNorm:
    """The norm at vals on kernel(a's columns, b's), its inverse rows kernel of theirs on read."""
    inv_from = partial(_inverse_from, kernel, a, b, *dims)
    return norm_on(a.cfg, kernel(a._cols, b._cols, *dims), vals, inv_from)


def tensor(a: SplitNorm, b: SplitNorm) -> SplitNorm:
    """Tensor product norm; the pairwise basis tensors split it."""
    _check_prime(a, b)
    x, y, m = linalg.aligned(a._vals, b._vals)
    return _made_from(linalg.kron_cleared, a, b, ([u + v for u in x for v in y], m))


def dual(a: SplitNorm) -> SplitNorm:
    """Dual norm on the dual space, split by the dual basis: its columns are the rows of
    the inverse, and the inverse of its basis has the columns of a's basis as rows."""
    ints, den = a._vals
    return norm_on(a.cfg, a._inv_rows, ([-x for x in ints], den), partial(getattr, a, "_cols"))


def direct_sum(a: SplitNorm, b: SplitNorm) -> SplitNorm:
    """Max-of-components norm on the direct sum."""
    _check_prime(a, b)
    x, y, m = linalg.aligned(a._vals, b._vals)
    return _made_from(linalg.block_cleared, a, b, (x + y, m), a.dim, b.dim)


def _monomialize(row_side, col_vals, cols: Cleared, p: int):
    """Column-reduce m, the product of a row side's cleared rows and the cleared columns,
    until every column has a pivot row of its own.

    Entry (i, j) weighs a_i - val(m_ij) - b_j, a_i the row value and b_j
    value j of the cleared vector col_vals.  The nonzero entry of
    maximal weight in the open columns, ties to the
    lowest (row, column), is the next pivot; subtracting multiples of
    its column clears its row across the other open columns, which
    never disturbs the column values.  Its column then closes, with
    every nonzero entry in a row not yet pivoted, so the pivot attains
    its ambient size (module docstring).

    Returns (sigma, split_vals, col_ops, first): sigma maps each column
    to its pivot row, in pivot order; col_ops are the cleared columns of
    the accumulated column operations, and column j of m @ col_ops has
    ambient size value j of split_vals, a cleared vector over the table's
    scale.  Each pivot row of m @ col_ops is zero on the columns pivoted
    after it.  first is m's slot table as it was made: (side, its
    cleared columns), side of unit rows (module docstring).
    """
    side, col_w, table, dens = slots.slot_table(row_side, col_vals, cols, p)
    first = side, list(zip(table, dens))  # before the column operations rewrite dens
    scale = side[2]
    lift = scale // col_vals[1]  # a column value over scale
    n, d = len(side[1]), len(table)
    # column j of the table on top of column j of col_ops, as integers over dens[j]
    stacked = [c + [dens[j] if k == j else 0 for k in range(d)] for j, c in enumerate(table)]
    open_cols = list(range(d))
    sigma: dict[int, int] = {}
    split = [0] * d
    for _ in range(d):
        best = slots.heaviest(side, col_w, stacked, p, open_cols)
        if best is None:
            raise RankDeficiencyError("columns do not have full rank")
        w, pi, pj = best
        pivot, b = stacked[pj], stacked[pj][pi]
        vb = multiplicity(b, p)
        open_cols.remove(pj)
        for j in open_cols:
            a = stacked[j][pi]
            if a:
                # A/den - (a/den)(den_pj/b)(B/den_pj) is (b A - a B) over den b, reduced by g
                col = [b * x - a * y for x, y in zip(stacked[j], pivot)]
                den = dens[j] * b
                g = math.gcd(den, *col) if den > 0 else -math.gcd(den, *col)
                stacked[j], dens[j] = [x // g for x in col], den // g
                col_w[j] -= scale * (vb - multiplicity(g, p))
        sigma[pj] = pi
        split[pj] = w + col_vals[0][pj] * lift
    col_ops = [linalg.reduced(c[n:], den) for c, den in zip(stacked, dens)]
    return sigma, (split, scale), col_ops, first


def _split_span(norm: SplitNorm, cols: Cleared, col_vals):
    """Split the span of the cleared columns, of sizes the cleared vector col_vals, against
    the norm: (values, combo), with combo the column operations of _monomialize and values the
    ambient sizes of cols @ combo, then the values of the rows never pivoted, cleared.  The
    first reconstruction check runs before returning, on the first slot table times combo,
    then d_i e_i for each row i never pivoted; no norm and no column is made."""
    p, n = norm.cfg.prime, norm.dim
    sigma, vals, combo, (side, first) = _monomialize(norm._row_side, col_vals, cols, p)
    rest = [i for i in range(n) if i not in sigma.values()]
    units = [([norm._inv_rows[i][1] if k == i else 0 for k in range(n)], 1) for i in rest]
    ints, den = norm._vals
    x, y, m = linalg.aligned(vals, ([ints[i] for i in rest], den))
    if not slots.splits(side, linalg.times_cleared(first, combo) + units, (x + y, m), p):
        raise SelfCheckError("splitting failed to reconstruct the norm")
    return (x + y, m), combo


def _split_subspace(norm: SplitNorm, span):
    """Split the subspace spanned by the columns of the n x d matrix span: _split_span's
    (values, combo), where span @ combo splits the subspace with sizes the first d values and
    the ambient columns of the rows never pivoted complete a splitting basis with the rest."""
    cols, n = linalg.cleared(span), norm.dim
    if len(span) != n:
        raise DimensionMismatchError(f"span matrix must have {n} rows, got {len(span)}")
    if len(cols) > n:
        raise RankDeficiencyError("more spanning columns than the dimension allows")
    return _split_span(norm, cols, ([0] * len(cols), 1))


def restrict(norm: SplitNorm, span) -> SplitNorm:
    """Restriction of the norm to the column span, as a norm on Q^d.

    The returned norm, pushed forward along the span matrix, agrees
    with the ambient norm on the subspace: its basis records which
    combinations of the spanning columns split the restriction.
    """
    (ints, den), combo = _split_subspace(norm, span)
    return norm_on(norm.cfg, combo, (ints[: len(combo)], den))


def quotient(norm: SplitNorm, span) -> SplitNorm:
    """Image norm on the quotient by the column span.

    The complement of the span is spanned by the ambient splitting
    vectors that complete the subspace splitting, and the quotient is
    presented in that basis: coordinate i of the result is the image of
    the i-th of them, and the minimum over lifts is attained at the
    complementary component.
    """
    (ints, den), combo = _split_subspace(norm, span)
    rest = ints[len(combo) :]
    return norm_on(norm.cfg, linalg.units(len(rest)), (rest, den))


def common_splitting_basis(a: SplitNorm, b: SplitNorm):
    """A basis splitting both norms at once.

    Returns (basis, a_values, b_values): the columns of basis split a
    with a_values and b with b_values.  Columns are scaled so that
    a_values lie in [0, 1).  Both reconstructions are checked by slots.fit,
    inverting only a; the columns are formed only here, to be printed.
    """
    vals, combo = _common_norm(a, b)
    lattice, shifts, a_vals = canonical(norm_on(a.cfg, linalg.times_cleared(b._cols, combo), vals))
    # column j was scaled by p^shifts[j], which lowers its b-value by as much
    ints, den = b._vals
    b_vals = ([v - k * den for v, k in zip(ints, shifts)], den)
    return lattice.matrix, linalg.from_cleared_vector(a_vals), linalg.from_cleared_vector(b_vals)


def _common_norm(a: SplitNorm, b: SplitNorm):
    """(values, combo): b's columns times combo split a at values and b at its own.  The
    checks of _split_span of b's basis against a, and of b on b's unit rows, both read combo
    (module docstring)."""
    check_compatible(a, b)
    vals, combo = _split_span(a, b._cols, b._vals)
    p = b.cfg.prime
    if not slots.splits(slots.row_side_of(b._vals, None, p), combo, b._vals, p):
        raise SelfCheckError("common basis failed to reconstruct the second norm")
    return vals, combo


def distance(a: SplitNorm, b: SplitNorm) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Sup-distance and the full sorted difference vector.

    The difference vector lists (b-value - a-value) over a common
    splitting basis, sorted descending; its largest absolute entry is
    the distance.  Scaling a column by p^k lowers both its values by k,
    so the differences are read before the canonical scaling.
    """
    x, y, m = linalg.aligned(_common_norm(a, b)[0], b._vals)
    diffs = sorted((v - u for u, v in zip(x, y)), reverse=True)
    d_inf = max(map(abs, diffs), default=0)
    return Fraction(d_inf, m), linalg.from_cleared_vector((diffs, m))
