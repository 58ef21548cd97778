"""Splittable non-archimedean norms on Q^n, in exact arithmetic.

A split norm is presented by an invertible matrix whose columns form a
splitting basis together with one rational value per column.  Writing
a_1, ..., a_n for the values, the size of a vector v = sum l_i e_i is

    max_i (a_i - val(l_i)),

with the maximum over the nonzero coordinates and bottom at v = 0.
All operations keep this presentation; no other representation of a
norm exists in the package.

Equality is one splitting test, _fit: do given columns c_1, ..., c_n
split a norm x?  By the ultrametric inequality the norm taking each
c_j to x(c_j) dominates x.  Two split norms share a splitting basis
(Goldman and Iwahori, Acta Math. 109, 1963), and in it domination is
value by value; so the two are equal exactly when the sums agree, that
is when they give e_1 ^ ... ^ e_n the same size, their volume.  _fit
reads the sizes x(c_j) and the volume from one slot table of x^-1 C and
its determinant, and inverts only x.  equals(a, b) asks that a's
columns split b at a's values; homothetic, apartment_coords and
verify_splitting ask the same of the columns they hold.  The common
basis's second check asks it of B @ combo, b's columns times the column
operations: its slot table against b is combo itself, so b is not
inverted.

The subspace and common-basis computations below are a valuated
version of Gaussian elimination by column operations alone.  Column
operations rewrite the incoming spanning set (freely for a subspace,
value-compatibly for a second norm), and choosing a pivot of maximal
weight makes every step admissible.  The ambient splitting basis is
never rewritten: once a pivot's row is cleared across the open
columns, a row operation would subtract zero from all of them, and the
ambient vectors of the rows never pivoted complete the split columns
as they stand.  _split_span runs both, with the one reconstruction
check; a common basis adds only the check of the second norm.

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
document's or g's, are _proven invertible by a determinant modulo a
fixed prime, with no inverse.  The Fraction matrices basis, inv_basis,
matrix and inv are views, built on first access; the comparison path
(equals, distance, the self-checks) never builds one.  == and hash
read the fields basis and matrix: == compares presentations, equals
compares norms.

Slots are fixed once for the whole package.  For a map h from a norm
split by c_1, ..., c_n at values b_1, ..., b_n to one split by
e_1, ..., e_m at values a_1, ..., a_m, slot (i, j) holds M_ij, the
coefficient of e_i in h(c_j), and weighs a_i - b_j - val(M_ij).  Slot
weights, in op_size, evaluate, _fit, the order layer and the elimination
alike, are read from the _slot_table of a product's two factors: integer
dot products over a row and a column denominator.  The row side is the
target norm's: its inverse rows, its values as integers over one
denominator, and the valuation of each row's denominator.  A norm makes
it once, with its inverse, as the cached _row_side, which pickles and
copies with it; a table then clears only its column values.  The
elimination runs on the table itself, the product with each row scaled
by its denominator, which the row's weight absorbs and column operations
commute with.

A slot is valued only when it can win, in three steps: its bound
a_i - b_j, the weight at valuation 0, must beat the best weight so far;
then, k valuation steps above it, one remainder mod p^k must be nonzero
(_gain); only then is the valuation taken.  _heaviest reads a table in
this order for _fit_table, _monomialize and _op_size, the one scan of
op_size and hom_norm, and of membership and the level as _op_size of
g - 1; no other module reads a slot table.  evaluate builds no table:
it computes its one column on demand, row by row in the norm's
_row_order, heaviest first, made once beside _row_side, and stops at
the first row whose bound cannot win.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from operator import mul
from types import MappingProxyType

from . import linalg
from .errors import (
    ConfigMismatchError,
    DimensionMismatchError,
    PreconditionError,
    RankDeficiencyError,
    SelfCheckError,
    SingularMatrixError,
)
from .linalg import Cleared, Matrix
from .valuation import BOTTOM, TOO_LARGE, FieldConfig, Value, count_classes, digit_limit, multiplicity


def _plant(obj, name: str, value) -> None:
    object.__setattr__(obj, name, value)


class _Frame:
    """An invertible matrix held as its cleared columns _cols, with the cleared rows _inv_rows
    of its inverse made once, on first read, by the recipe _inv_from: linalg.inverse_rows of
    the columns, unless the frame was made with another (see _frame).  The Fraction views,
    the field named by _view of the columns and the one named by _inv_view of the inverse,
    are built on first access."""

    _view = _inv_view = ""

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
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        _plant(self, name, view)
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

    _view, _inv_view = "basis", "_inv"

    def __post_init__(self) -> None:
        n = self.dim
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            raise DimensionMismatchError(f"dim must be a nonnegative int, got {n!r}")
        basis = vars(self).pop("basis")  # read once, into _cols: basis is a view of them
        _plant(self, "_cols", linalg.cleared_square(basis, n, "basis"))
        values = linalg.vec(self.values)
        if len(values) != n:
            raise DimensionMismatchError(f"expected {n} values, got {len(values)}")
        _plant(self, "values", values)

    # not a cached_property: perfbench/tracing.py wraps its fget and checks "_inv" in vars(norm)
    @property
    def inv_basis(self) -> Matrix:
        return self._inv  # type: ignore[attr-defined]

    @cached_property
    def _row_side(self):
        """The row side of every slot table read against this norm, made once with the
        inverse: _row_side_of its values and inverse rows."""
        return _row_side_of(self.values, self._inv_rows, self.cfg.prime)

    @cached_property
    def _row_order(self) -> list[int]:
        """The rows by descending weight in _row_side, ties in row order: evaluate reads them
        in this order.  Made once, beside the row side, and copied with it."""
        return sorted(range(self.dim), key=self._row_side[1].__getitem__, reverse=True)

    @cached_property
    def _class_counts(self) -> dict[Fraction, int]:
        return count_classes(self.values)

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
        _plant(self, "_cols", linalg.cleared_square(matrix, what="lattice matrix"))

    @property
    def dim(self) -> int:
        return len(self._cols)


def _frame(cls, cfg: FieldConfig, cols: Cleared, inv_from: Callable[[], Cleared] | None = None):
    """A frame of class cls on cleared columns, a SplitNorm still without dim and values.
    inv_from, a function of no arguments, replaces the default recipe; it is a partial of a
    module-level function, as _inverse_from makes them, so the frame pickles."""
    frame = object.__new__(cls)
    _plant(frame, "cfg", cfg)
    _plant(frame, "_cols", cols)
    if inv_from is not None:
        _plant(frame, "_inv_from", inv_from)
    return frame


def _inverse_from(kernel, *args) -> Cleared:
    """The cleared inverse rows of a made frame: kernel of args, each frame among them standing
    for its own inverse rows, read only now.  The one recipe of every frame made from others:
    a ball scales its norm's rows, a move or a product combines those of its inputs."""
    return kernel(*(a._inv_rows if isinstance(a, _Frame) else a for a in args))


def _proven(frame: _Frame) -> _Frame:
    """The frame, proven invertible by linalg.nonsingular_mod, a determinant modulo a fixed
    prime; only a determinant that vanishes there is decided by the exact inverse, which
    raises SingularMatrixError for a singular frame and is kept."""
    if not linalg.nonsingular_mod(frame._cols):
        frame._inv_rows
    return frame


def _split(cfg: FieldConfig, cols: Cleared, values, inv_from=None) -> SplitNorm:
    """The norm taking cleared column j to values[j], a tuple of Fractions."""
    norm = _frame(SplitNorm, cfg, cols, inv_from)
    _plant(norm, "dim", len(cols))
    _plant(norm, "values", values)
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


def _check_compatible(a: SplitNorm, b: SplitNorm) -> None:
    _check_prime(a, b)
    if a.dim != b.dim:
        raise DimensionMismatchError(f"dimension mismatch: {a.dim} vs {b.dim}")


def evaluate(norm: SplitNorm, v) -> Value:
    """Size of a vector, bottom at the zero vector: the greatest weight of the one column of
    the slot table of B^-1 v, computed on demand.  The vector is cleared once, as integers
    over e.  Row i is read in the norm's _row_order, heaviest first: its coordinate, a dot
    product, is computed only while its bound row_w[i] + scale * v(e) beats the best weight
    so far, and the first row whose bound does not ends the search, as no later bound is
    greater.  Then _gain takes the p^k test, and the valuation only of a coordinate that wins."""
    ints, e = linalg.cleared_vector(v)
    if len(ints) != norm.dim:
        raise DimensionMismatchError(f"vector has length {len(ints)}, norm has dim {norm.dim}")
    rows, row_w, scale = norm._row_side
    p = norm.cfg.prime
    shift = scale * multiplicity(e, p)
    best = None
    for i in norm._row_order:
        top = row_w[i] + shift
        if best is not None and top <= best:
            break
        x = sum(map(mul, rows[i][0], ints))
        if x:
            w = _gain(x, top, best, scale, p)
            if w is not None:
                best = w
    return BOTTOM if best is None else Value(Fraction(best, scale))


def _gain(x: int, top: int, best: int | None, scale: int, p: int) -> int | None:
    """The weight top - scale * v(x) of a slot holding the nonzero integer x when it beats
    best, the greatest weight so far (None: there is none yet); else None.  The caller has
    checked the bound, top > best.  The weight beats best exactly when v(x) < k =
    ceil((top - best) / scale), so one remainder mod p^k comes before the valuation.  As
    |x| >= p^v(x) >= 2^v(x), x passes once k reaches its bit length, with no p^k built."""
    if best is not None:
        k = -((best - top) // scale)
        if k < x.bit_length() and not x % p**k:
            return None
    return top - scale * multiplicity(x, p)


def _heaviest(row_w, col_w, cols, scale: int, p: int, open_cols):
    """The slot (w, i, j) of greatest weight w = row_w[i] - col_w[j] - scale * v(cols[j][i])
    over the nonzero integer entries, ties to the lowest (row, column); None if all are 0.
    A slot is read in three steps, each only if the one before leaves it a chance: its bound
    row_w[i] - col_w[j] must beat the best weight so far, as v >= 0 on integers; then _gain
    takes one remainder mod p^k; then the valuation of the entry."""
    best = best_w = None
    for i, r in enumerate(row_w):
        for j in open_cols:
            top = r - col_w[j]
            if best_w is None or top > best_w:
                x = cols[j][i]
                if x:
                    w = _gain(x, top, best_w, scale, p)
                    if w is not None:
                        best_w, best = w, (w, i, j)
    return best


def _row_side_of(values, rows: Cleared | None, p: int):
    """The row side of a slot table: (rows, row_w, den), with the values as integers over one
    denominator den and row_w[i] = den * (values[i] + v(d_i)), d_i the denominator of cleared
    row i.  rows None stands for the unit rows, of denominator 1."""
    ints, den = linalg.cleared_vector(values)
    if rows is not None:
        ints = [a + den * multiplicity(d, p) for a, (_, d) in zip(ints, rows)]
    return rows, ints, den


def _slot_table(row_side, col_values, cols: Cleared, p: int):
    """The product of a _row_side_of's cleared rows and the cleared columns in integers:
    (row_w, col_w, table, dens, scale), where table[j][i] is the dot product s of row i over
    its denominator d and column j over e = dens[j], and row_w[i] - col_w[j] - scale * v(s) is
    scale times the weight of slot (i, j), s / (d e).  scale is the lcm of the row and the
    column values' denominators.  For unit rows the table is the columns' own integers, with
    no product."""
    rows, row_w, row_den = row_side
    ints, col_den = linalg.cleared_vector(col_values)
    scale = math.lcm(row_den, col_den)
    row_w = [w * (scale // row_den) for w in row_w]
    col_w = [a * (scale // col_den) - scale * multiplicity(e, p) for a, (_, e) in zip(ints, cols)]
    dens = [e for _, e in cols]
    if rows is None:
        return row_w, col_w, [c for c, _ in cols], dens, scale
    table = [[sum(map(mul, r, c)) for r, _ in rows] for c, _ in cols]
    return row_w, col_w, table, dens, scale


def _on_lattice(lattice: LatticeBasis, values) -> SplitNorm:
    """The norm taking column i of the lattice to values[i], a tuple of Fractions; it shares
    the lattice's cleared columns and inverse rows."""
    return _split(lattice.cfg, lattice._cols, values, partial(getattr, lattice, "_inv_rows"))


def lattice_norm(lattice: LatticeBasis) -> SplitNorm:
    """The norm whose unit ball is exactly the given lattice."""
    return _on_lattice(lattice, (Fraction(0),) * lattice.dim)


def op_size(src: SplitNorm, dst: SplitNorm, h=None) -> Value:
    """Operator size of h from src to dst; h = None is the identity.

    The least s with dst(h v) <= src(v) + s for every v, bottom at h = 0:
    the maximum weight over the slots of M = dst.inv_basis @ h @ src.basis
    (module docstring), as by the ultrametric inequality it is attained
    on a src-splitting column.
    """
    _check_compatible(src, dst)
    return _op_size(src, dst, None if h is None else linalg.cleared_square(h, src.dim))


def _op_size(src: SplitNorm, dst: SplitNorm, h_cols: Cleared | None) -> Value:
    """op_size of the map with these cleared columns, None for the identity: the greatest
    weight of the _slot_table of dst's rows and h's columns times src's, in one scan."""
    image = src._cols if h_cols is None else linalg.times_cleared(h_cols, src._cols)
    p = src.cfg.prime
    row_w, col_w, table, _, scale = _slot_table(dst._row_side, src.values, image, p)
    best = _heaviest(row_w, col_w, table, scale, p, range(len(table)))
    return BOTTOM if best is None else Value(Fraction(best[0], scale))


def _scaled_ball(norm: SplitNorm, exponents: list[int]) -> LatticeBasis:
    """The lattice of the norm's columns times p^k, one exponent k each: B diag(p^k), whose
    inverse diag(p^-k) B^-1 is the norm's one inverse scaled by the same _powers."""
    p = norm.cfg.prime
    # p^k has |k| log10 p digits and a basis entry cancels at most a digit limit's worth of
    # them, so past twice the limit no entry can be printed: refuse before building p^k
    if max(map(abs, exponents), default=0) > 2 * digit_limit() / math.log10(p):
        raise PreconditionError(TOO_LARGE)
    inv_from = partial(_inverse_from, _powers, norm, p, [-k for k in exponents])
    return _frame(LatticeBasis, norm.cfg, _powers(norm._cols, p, exponents), inv_from)


def _powers(vectors: Cleared, p: int, exponents) -> Cleared:
    """The cleared vectors, each times p^k for its exponent k, one power per vector."""
    out = []
    for (ints, den), k in zip(vectors, exponents):
        if k >= 0:
            q = p**k
            out.append(linalg.reduced([x * q for x in ints], den))
        else:
            out.append(linalg.reduced(ints, den * p**-k))
    return out


def _canonical(norm: SplitNorm) -> tuple[LatticeBasis, tuple[Fraction, ...]]:
    """The lattice of p^floor(a_i) e_i and the sizes a_i - floor(a_i) in [0, 1) of its columns."""
    shifts = [math.floor(a) for a in norm.values]
    return _scaled_ball(norm, shifts), tuple(a - k for a, k in zip(norm.values, shifts))


def ball_basis(norm: SplitNorm, g) -> LatticeBasis:
    """Lattice of vectors of size at most g: spanned by p^ceil(a_i - g) e_i."""
    g = linalg.to_fraction(g)
    return _scaled_ball(norm, [math.ceil(a - g) for a in norm.values])


def ball_basis_open(norm: SplitNorm, g) -> LatticeBasis:
    """Lattice of vectors of size strictly below g."""
    g = linalg.to_fraction(g)
    return _scaled_ball(norm, [math.floor(a - g) + 1 for a in norm.values])


def lattice_contains(outer: LatticeBasis, inner: LatticeBasis) -> bool:
    """Containment: the inclusion of inner into outer has size <= 0,
    i.e. an integral transition matrix."""
    return op_size(lattice_norm(inner), lattice_norm(outer)) <= 0


def lattices_equal(a: LatticeBasis, b: LatticeBasis) -> bool:
    """Equality of lattices: equality of their lattice norms."""
    return equals(lattice_norm(a), lattice_norm(b))


def _fit(x: SplitNorm, cols: Cleared, values) -> tuple[list[int], int] | None:
    """Do the cleared columns c_j split x?  When they do, (t, scale), with t_j = scale *
    (x(c_j) - values[j]) the excess of column j, read by _fit_table from the _slot_table
    of x^-1 C; None when they do not.  Only x is inverted; a singular C raises
    SingularMatrixError."""
    p = x.cfg.prime
    return _fit_table(_slot_table(x._row_side, values, cols, p), p)


def _fit_table(slots, p: int) -> tuple[list[int], int] | None:
    """_fit read from the given _slot_table of x^-1 C.  The norm taking c_j to values[j] +
    t_j / scale dominates x, so it is x exactly when the two volumes agree (see the module
    docstring), read from the determinant of the same table."""
    row_w, col_w, table, _, scale = slots
    tops = [_heaviest(row_w, col_w, table, scale, p, (j,)) for j in range(len(table))]
    det = linalg.det_cleared(table) if all(tops) else 0
    if not det:
        raise SingularMatrixError("matrix is singular")
    t = [w for w, _, _ in tops]
    # scale times the volume of x less that of the norm taking c_j to values[j]: the volume
    # of a norm is the sum of its values plus v(det) of its basis
    gap = sum(row_w) - sum(col_w) - scale * multiplicity(det, p)
    return (t, scale) if gap == sum(t) else None


def equals(a: SplitNorm, b: SplitNorm) -> bool:
    """Exact equality of norms: a's columns split b, each at its value in a (see _fit).  Only
    b's inverse is read; a singular basis of a raises SingularMatrixError."""
    _check_compatible(a, b)
    fit = _fit(b, a._cols, a.values)
    return fit is not None and not any(fit[0])


def _moved(g, frame: _Frame) -> tuple[Cleared, Callable[[], Cleared]]:
    """The cleared columns of g M, M the frame's matrix, and the recipe of (g M)^-1 = M^-1
    g^-1, whose rows are the columns of (g^-1)^T (M^-1)^T: times_cleared of the inverse rows
    of g, a _proven frame, and of M, so only g is inverted."""
    g_cols = linalg.cleared_square(g, len(frame._cols), "acting matrix")
    g = _proven(_frame(_Frame, frame.cfg, g_cols))
    inv_from = partial(_inverse_from, linalg.times_cleared, g, frame)
    return linalg.times_cleared(g_cols, frame._cols), inv_from


def act(g, norm: SplitNorm) -> SplitNorm:
    """Transport the norm along an invertible matrix g (v -> size of g^-1 v)."""
    cols, inv_from = _moved(g, norm)
    return _split(norm.cfg, cols, norm.values, inv_from)


def tensor(a: SplitNorm, b: SplitNorm) -> SplitNorm:
    """Tensor product norm; the pairwise basis tensors split it."""
    _check_prime(a, b)
    values = tuple(x + y for x in a.values for y in b.values)
    cols = linalg.kron_cleared(a._cols, b._cols)
    return _split(a.cfg, cols, values, partial(_inverse_from, linalg.kron_cleared, a, b))


def dual(a: SplitNorm) -> SplitNorm:
    """Dual norm on the dual space, split by the dual basis: its columns are the rows of
    the inverse, and the inverse of its basis has the columns of a's basis as rows."""
    return _split(a.cfg, a._inv_rows, tuple(-x for x in a.values), partial(getattr, a, "_cols"))


def direct_sum(a: SplitNorm, b: SplitNorm) -> SplitNorm:
    """Max-of-components norm on the direct sum."""
    _check_prime(a, b)
    cols = linalg.block_cleared(a._cols, b._cols, a.dim, b.dim)
    inv_from = partial(_inverse_from, linalg.block_cleared, a, b, a.dim, b.dim)
    return _split(a.cfg, cols, a.values + b.values, inv_from)


def _monomialize(row_side, col_values, cols: Cleared, p: int):
    """Column-reduce m, the product of the cleared rows of a _row_side_of and the cleared
    columns, until every column has a pivot row of its own.

    Entry (i, j) weighs a_i - val(m_ij) - col_values[j], a_i the row value.  The
    nonzero entry of maximal weight in the open columns, ties to the
    lowest (row, column), is the next pivot; subtracting multiples of
    its column clears its row across the other open columns, which
    never disturbs the column values.  Its column then closes, with
    every nonzero entry in a row not yet pivoted, so the pivot attains
    its ambient size.  No row operation is needed: the pivot row is now
    zero on the open columns, so one would change only closed columns,
    and the pivot search never meets a pivoted row again.  It runs on
    the _slot_table of the two factors, which is m with row i scaled by
    its denominator d_i; the row's weight carries v(d_i), and column
    operations commute with row scaling, so pivots and col_ops are those
    of m.

    Returns (sigma, split_values, col_ops): sigma maps each column to
    its pivot row, in pivot order; col_ops are the cleared columns of
    the accumulated column operations, and column j of m @ col_ops has
    ambient size
    split_values[j].  Each pivot row of m @ col_ops is zero on the
    columns pivoted after it.
    """
    row_w, col_w, table, dens, scale = _slot_table(row_side, col_values, cols, p)
    n, d = len(row_w), len(table)
    # column j of the table on top of column j of col_ops, as integers over dens[j]
    stacked = [c + [dens[j] if k == j else 0 for k in range(d)] for j, c in enumerate(table)]
    open_cols = list(range(d))
    sigma: dict[int, int] = {}
    split_values: list[Fraction] = [Fraction(0)] * d
    for _ in range(d):
        best = _heaviest(row_w, col_w, stacked, scale, p, open_cols)
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
        split_values[pj] = Fraction(w, scale) + col_values[pj]
    col_ops = [linalg.reduced(c[n:], den) for c, den in zip(stacked, dens)]
    return sigma, tuple(split_values), col_ops


def _split_span(norm: SplitNorm, cols: Cleared, col_values) -> tuple[SplitNorm, Cleared]:
    """Split the span of the cleared columns, of sizes col_values, against the norm: (split,
    combo), with combo the column operations of _monomialize and split the norm on cols @ combo
    at their ambient sizes, then on the ambient columns of the rows never pivoted at their
    values.  The one reconstruction check, split equal to the norm, runs before returning."""
    p = norm.cfg.prime
    sigma, values, combo = _monomialize(norm._row_side, col_values, cols, p)
    rest = [i for i in range(norm.dim) if i not in sigma.values()]
    full = linalg.times_cleared(cols, combo) + [norm._cols[i] for i in rest]
    split = _split(norm.cfg, full, values + tuple(norm.values[i] for i in rest))
    if not equals(split, norm):
        raise SelfCheckError("splitting failed to reconstruct the norm")
    return split, combo


def _split_subspace(norm: SplitNorm, span) -> tuple[SplitNorm, Cleared]:
    """Split the subspace spanned by the columns of the n x d matrix span: _split_span's
    (split, combo), where span @ combo splits the subspace with sizes split.values[:d] and the
    ambient columns after them complete a splitting basis with values split.values[d:]."""
    cols, n = linalg.cleared(span), norm.dim
    if len(span) != n:
        raise DimensionMismatchError(f"span matrix must have {n} rows, got {len(span)}")
    if len(cols) > n:
        raise RankDeficiencyError("more spanning columns than the dimension allows")
    return _split_span(norm, cols, (0,) * len(cols))


def restrict(norm: SplitNorm, span) -> SplitNorm:
    """Restriction of the norm to the column span, as a norm on Q^d.

    The returned norm, pushed forward along the span matrix, agrees
    with the ambient norm on the subspace: its basis records which
    combinations of the spanning columns split the restriction.
    """
    split, combo = _split_subspace(norm, span)
    return _split(norm.cfg, combo, split.values[: len(combo)])


def quotient(norm: SplitNorm, span) -> SplitNorm:
    """Image norm on the quotient by the column span.

    The complement of the span is spanned by the ambient splitting
    vectors that complete the subspace splitting, and the quotient is
    presented in that basis: coordinate i of the result is the image of
    the i-th of them, and the minimum over lifts is attained at the
    complementary component.
    """
    split, combo = _split_subspace(norm, span)
    values = split.values[len(combo) :]
    return _split(norm.cfg, linalg.units(len(values)), values)


def common_splitting_basis(a: SplitNorm, b: SplitNorm):
    """A basis splitting both norms at once.

    Returns (basis, a_values, b_values): the columns of basis split a
    with a_values and b with b_values.  Columns are scaled so that
    a_values lie in [0, 1).  Both reconstructions are checked by the
    splitting test _fit before returning; only a is inverted.
    """
    common = _common_norm(a, b)
    lattice, a_vals = _canonical(common)
    # column j was scaled by p^(raw_j - a_j), which lowers its b-value by as much
    b_vals = tuple(v - r + s for v, r, s in zip(b.values, common.values, a_vals))
    return lattice.matrix, a_vals, b_vals


def _common_norm(a: SplitNorm, b: SplitNorm) -> SplitNorm:
    """a on unscaled columns that split b with b.values: _split_span of b's basis against a,
    whose check covers a, and the second reconstruction check, of b.  b's n columns leave no
    ambient row over, so the common columns are B @ combo and B^-1 C is combo itself: the
    check reads its slot table off the column operations, and b is not inverted."""
    _check_compatible(a, b)
    common, combo = _split_span(a, b._cols, b.values)
    p = b.cfg.prime
    fit = _fit_table(_slot_table(_row_side_of(b.values, None, p), b.values, combo, p), p)
    if fit is None or any(fit[0]):
        raise SelfCheckError("common basis failed to reconstruct the second norm")
    return common


def distance(a: SplitNorm, b: SplitNorm) -> tuple[Fraction, tuple[Fraction, ...]]:
    """Sup-distance and the full sorted difference vector.

    The difference vector lists (b-value - a-value) over a common
    splitting basis, sorted descending; its largest absolute entry is
    the distance.  Scaling a column by p^k lowers both its values by k,
    so the differences are read before the canonical scaling.
    """
    common = _common_norm(a, b)
    diffs = tuple(sorted((bv - av for av, bv in zip(common.values, b.values)), reverse=True))
    d_inf = max((abs(x) for x in diffs), default=Fraction(0))
    return d_inf, diffs
