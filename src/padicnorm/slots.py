"""The integer slot kernel: slot weights, operator sizes and the splitting test.

Slots are fixed once for the whole package.  For a map h from a norm
split by c_1, ..., c_n at values b_1, ..., b_n to one split by
e_1, ..., e_m at values a_1, ..., a_m, slot (i, j) holds M_ij, the
coefficient of e_i in h(c_j), and weighs a_i - b_j - val(M_ij).  Every
slot weight is read from the slot_table of a product's two factors,
integer dot products over a row and a column denominator: the target
norm's row side (its inverse rows, each row's weight, its value plus
the valuation of its denominator, and the rows heaviest first) and the
source's columns and values, cleared.  A table is its own row side, of
unit rows in the same order.  Nothing here reads a frame.

A slot is valued only when it can win, in three steps: its bound
a_i - b_j, the weight at valuation 0, must beat the best weight so far;
then, k valuation steps above it, one remainder mod p^k must be nonzero
(_gain); only then is the valuation taken.  heaviest reads a whole
table so, for the elimination and the one scan of an operator size.
size reads one column, rows heaviest first, and stops at the first row
whose bound cannot win: fit reads each column of its table so, and
evaluate and the two sizes of a rank-one map compute their one column.

fit asks whether columns c_1, ..., c_n split a norm x.  The lattice
chain of x has graded pieces, one vector space over F_p per value
class, and a vector's leading term lies in the piece of its size's
class, read off the coordinates that attain the size.  The columns
split x exactly when their leading terms are independent (Goldman and
Iwahori, Acta Math. 109, 1963): every class holds as many columns as x
has values in it, and each class's block of leading residues is
nonsingular mod p.  fit reads the sizes x(c_j) and the residues from
one slot table of x^-1 C.  The same block test, graded, is the unit
test of the order of x (stabilizer): the blocks at weight 0 are the
Levi quotient of its special fiber.

A map of rank one needs no table.  Hom(V, W) = V^dual (x) W carries the
tensor norm, whose value on a pure tensor is the sum of its factors'
sizes: for h = u phi, found by rank_one, M_ij is coordinate i of u in
the e's times coordinate j of phi in the dual basis of the c's, so the
greatest slot weight is dst(u) + dual(src)(phi).
"""

from __future__ import annotations

import math
from operator import mul

from . import linalg
from .valuation import multiplicity


def row_side_of(vals, rows: linalg.Cleared | None, p: int):
    """The row side of a slot table: (rows, row_w, den, order), from the values cleared as
    vals = (ints, den), with row_w[i] = ints[i] + den * v(d_i), d_i the denominator of cleared
    row i, and order the rows by descending row_w, ties in row order.  rows None stands for
    the unit rows, of denominator 1."""
    ints, den = vals
    if rows is not None:
        ints = [a + den * multiplicity(d, p) for a, (_, d) in zip(ints, rows)]
    return rows, ints, den, sorted(range(len(ints)), key=ints.__getitem__, reverse=True)


def slot_table(row_side, col_vals, cols: linalg.Cleared, p: int):
    """The product of a row side's cleared rows and the cleared columns in integers, the
    column values cleared as col_vals = (ints, den): (side, col_w, table, dens), where
    table[j][i] is the dot product s of row i over its denominator d and column j over e =
    dens[j], and side = (None, row_w, scale, order) is the table's own row side, with
    row_w[i] - col_w[j] - scale * v(s) scale times the weight of slot (i, j), s / (d e).
    scale is the lcm of the row and the column values' denominators.  For unit rows the
    table is the columns' own integers, with no product."""
    rows, row_w, row_den, order = row_side
    ints, col_den = col_vals
    scale = math.lcm(row_den, col_den)
    side = (None, [w * (scale // row_den) for w in row_w], scale, order)
    col_w = [a * (scale // col_den) - scale * multiplicity(e, p) for a, (_, e) in zip(ints, cols)]
    table = [c if rows is None else [sum(map(mul, r, c)) for r, _ in rows] for c, _ in cols]
    return side, col_w, table, [e for _, e in cols]


def size(side, ints, shift: int, p: int) -> int | None:
    """The greatest weight of one column of a slot table, None if it is 0: the column of the
    row side's cleared rows times the integers ints, whose entry x_i, the dot product of row
    i and ints, weighs row_w[i] + shift - scale * v(x_i), for side = (rows, row_w, scale,
    order); rows None stands for the unit rows, and ints is the column itself."""
    rows, row_w, scale, order = side
    best = None
    for i in order:
        top = row_w[i] + shift
        if best is not None and top <= best:
            break
        x = ints[i] if rows is None else sum(map(mul, rows[i][0], ints))
        if x:
            w = _gain(x, top, best, scale, p)
            if w is not None:
                best = w
    return best


def _gain(x: int, top: int, best: int | None, scale: int, p: int) -> int | None:
    """The weight top - scale * v(x) of a slot holding the nonzero integer x when it beats
    best, the greatest weight so far (None: there is none yet); else None.  The caller has
    checked the bound, top > best."""
    if best is not None:
        # it beats best exactly when v(x) < k; as |x| >= 2^v(x), it does once k passes the
        # bit length of x, with no p^k built
        k = -((best - top) // scale)
        if k < x.bit_length() and not x % p**k:
            return None
    return top - scale * multiplicity(x, p)


def heaviest(side, col_w, cols, p: int, open_cols):
    """The slot (w, i, j) of greatest weight w = row_w[i] - col_w[j] - scale * v(cols[j][i])
    over the nonzero integers of the open columns, ties to the lowest (row, column), for a
    table's side = (None, row_w, scale, order); None if all are 0."""
    _, row_w, scale, _ = side
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


def fit(row_side, cols: linalg.Cleared, vals, p: int) -> tuple[list[int], int] | None:
    """Do the cleared columns c_j split x, the norm of this row side (module docstring)?  When
    they do, (t, scale), with t_j = scale * (x(c_j) - values[j]) the excess of column j, values
    cleared as vals; None when they do not.  A singular C raises SingularMatrixError: columns
    that do not split are proven invertible by linalg.invertible."""
    side, col_w, table, _ = slot_table(row_side, vals, cols, p)
    tops = [size(side, c, -w, p) for c, w in zip(table, col_w)]
    t = [w for w in tops if w is not None]  # a zero column has no weight, and leaves t short
    if len(t) == len(table) and graded(side, col_w, table, t, p):
        return t, side[2]
    linalg.invertible([(c, 1) for c in table])
    return None


def splits(row_side, cols: linalg.Cleared, vals, p: int) -> bool:
    """Do the cleared columns split the norm of this row side, each at its value in vals?"""
    found = fit(row_side, cols, vals, p)
    return found is not None and not any(found[0])


def graded(side, col_w, table, t, p: int) -> bool:
    """Are the leading terms of the columns independent in the graded pieces of x, for the
    table's side = (None, row_w, scale, order) and t[j] the greatest weight column j may
    reach?  Row i lies in the class row_w[i] % scale and column j in (t[j] + col_w[j]) %
    scale, that of the rows where it can reach t[j]; every class must hold as many columns
    as rows, and its block of leading residues, one row included, be nonsingular mod p.
    Slot (i, j), holding x_ij, would weigh t[j] at valuation k = (row_w[i] - col_w[j] - t[j])
    / scale, and as no slot of column j weighs more, v(x_ij) >= k: its leading residue x_ij /
    p^k mod p is nonzero exactly when it attains t[j], and is 0 when k < 0.  As |x_ij| >= p^k
    unless x_ij = 0, no p^k is built past the bit length of x_ij."""
    _, row_w, scale, _ = side
    classes: dict[int, tuple[list[int], list[int]]] = {}
    for i, w in enumerate(row_w):
        classes.setdefault(w % scale, ([], []))[0].append(i)
    for j, w in enumerate(t):
        classes[(w + col_w[j]) % scale][1].append(j)  # the class of the rows that reach t[j]
    if any(len(rows) != len(cols) for rows, cols in classes.values()):
        return False
    for rows, cols in classes.values():
        block = []
        for j in cols:
            xs = [table[j][i] for i in rows]
            ks = [(row_w[i] - col_w[j] - t[j]) // scale for i in rows]
            block.append([x // p**k if 0 <= k < x.bit_length() else 0 for x, k in zip(xs, ks)])
        if not linalg.nonsingular_mod(block, p):
            return False
    return True


def rank_one(h_cols: linalg.Cleared):
    """h as u phi when it has rank one: (u, phi), u the integers of h's first nonzero column
    and phi = (ints, den) the cleared row with column j of h equal to phi_j u; None when h
    is 0 or has rank two or more.  With k the first nonzero entry of u, column c_j over e_j
    is phi_j u exactly when c_j[i] u[k] = u[i] c_j[k] for every i, and then phi_j = c_j[k] /
    (e_j u[k]), cleared over u[k] lcm(e).  A column that is not a multiple of u ends the
    test, at its first entry that differs."""
    j0 = next((j for j, (c, _) in enumerate(h_cols) if any(c)), None)
    if j0 is None:
        return None
    u = h_cols[j0][0]
    k = next(i for i, x in enumerate(u) if x)
    uk = u[k]
    for c, _ in h_cols[j0 + 1 :]:
        ck = c[k]
        if any(x * uk != y * ck for x, y in zip(c, u)):
            return None
    m = math.lcm(*(e for _, e in h_cols))
    return u, ([c[k] * (m // e) for c, e in h_cols], uk * m)
