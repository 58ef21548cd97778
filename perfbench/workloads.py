"""The four benchmark workloads.

A workload turns a seed into a fixed list of rounds.  Every round holds
the same operation kinds in the same proportions, so a prefix of whole
rounds is a fair sample of the run (the counting run uses one).  Each
operation is a closed-loop call that builds its own norm objects from
plain data, except the reused norms of `query`, so running the same
specs twice does the same work.  The expected answer of each operation
follows from how its input was built and is checked after timing.

Why these four:

* cli-docs: what a CLI user runs -- every verb, both output formats, on
  small documents.  Argument parsing and document I/O dominate.
* compare: library comparisons of two norms at n = 8 and 12; the ball
  chain self-checks inside `equals` dominate.  The workload for a
  cheaper `equals`.
* query: many `evaluate` calls against a few reused norms, beside
  operations that build new norms; `linalg` and `hom_norm` dominate and
  `equals` is never called.  The workload that must not move when only
  `equals` changes, and the one for a faster `linalg`.
* far-points: vectors, levels and torus elements with valuations of
  500 to 3000 at n = 4; only here does `valuation.pval` dominate.
"""

from __future__ import annotations

import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from io import StringIO
from pathlib import Path
from typing import Callable

from padicnorm import base_change, building, cli, linalg, norms, stabilizer
from padicnorm import io as pio
from padicnorm.valuation import FieldConfig

from inputs import (
    PRIMES,
    class_counts,
    combination,
    elementary_product,
    frac_part,
    invertible_pair,
    isometric_basis,
    pval,
    rational,
    scaling,
    shear,
    size_from_coeffs,
    stabilizer_element,
    unit,
    values,
)


@dataclass
class Op:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


def _norm(p, basis, vals):
    return norms.SplitNorm(FieldConfig(p), len(vals), basis, vals)


def _cols(m):
    return tuple(zip(*m)) if m else ()


def _from_cols(cols):
    return tuple(zip(*cols)) if cols else ()


def _size(norm, v):
    return norms.evaluate(norm, v).mag


def _lattice_ok(matrix, basis_inv, exps, p, index=0) -> bool:
    """Is the lattice spanned by `matrix` the span of p^exps[i] times the
    hidden splitting vectors, or a sublattice of it of index p^index?"""
    x = linalg.matmul(basis_inv, matrix)
    x = tuple(tuple(e / Fraction(p) ** k for e in row) for row, k in zip(x, exps))
    integral = all(e.denominator % p for row in x for e in row)
    return integral and pval(linalg.det(x), p) == index


def _degree_rep(c: Fraction) -> Fraction:
    return c if c == 0 else c - 1


def _degree_counts(vals) -> dict[Fraction, int]:
    counts: dict[Fraction, int] = {}
    for ai in vals:
        for aj in vals:
            d = _degree_rep(frac_part(ai - aj))
            counts[d] = counts.get(d, 0) + 1
    return dict(sorted(counts.items(), reverse=True))


def _ball_exps(vals, level, open_ball=False):
    """Exponents e_i with ball(level) = span of p^e_i times the splitting vectors."""
    if open_ball:
        return tuple(math.floor(x - level) + 1 for x in vals)
    return tuple(math.ceil(x - level) for x in vals)


def _matvec(m, v):
    return tuple(sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m)


def _subspace(rng, B, a, p):
    """Columns spanning a random subspace of the norm split by (B, a),
    built as mixes of some splitting vectors.  Returns the columns, the
    values inside and outside the subspace, and the size of each column."""
    n = len(a)
    dim = rng.randint(1, n - 1)
    rows = sorted(rng.sample(range(n), dim))
    mix, _ = invertible_pair(rng, dim)
    cols = [_matvec([[B[r][i] for i in rows] for r in range(n)], [mix[t][j] for t in range(dim)])
            for j in range(dim)]
    inside = [a[i] for i in rows]
    sizes = [size_from_coeffs(inside, [mix[t][j] for t in range(dim)], p) for j in range(dim)]
    return cols, inside, [a[i] for i in range(n) if i not in rows], sizes


def _split_family(rng, n, p):
    """A hidden splitting basis with its inverse and values."""
    basis, basis_inv = invertible_pair(rng, n)
    return basis, basis_inv, values(rng, n)


# --------------------------------------------------------------- compare


def _compare_spec(rng, kind, n, p):
    B, Binv, a = _split_family(rng, n, p)
    d = {"p": p, "a_basis": isometric_basis(rng, B, a, p), "a": a}
    if kind in ("equals.eq", "equals.ne"):
        b = list(a)
        if kind == "equals.ne":
            i = rng.randrange(n)
            b[i] += rng.choice((Fraction(1, 2), Fraction(-1, 3), Fraction(1), Fraction(-1, 6)))
        d.update(b=tuple(b), expect=kind == "equals.eq")
        d["b_basis"] = isometric_basis(rng, B, d["b"], p)
    elif kind in ("common_splitting_basis", "cartan_position", "distance"):
        c = values(rng, n)
        d.update(b=c, b_basis=isometric_basis(rng, B, c, p))
        d["expect"] = tuple(sorted((y - x for x, y in zip(a, c)), reverse=True))
    elif kind in ("restrict", "quotient"):
        cols, inside, outside, sizes = _subspace(rng, B, a, p)
        d.update(span=_from_cols(cols), inside=tuple(inside), outside=tuple(outside), sizes=tuple(sizes))
    elif kind == "apartment_coords.in":
        perm = rng.sample(range(n), n)
        shifts = [rng.randint(-2, 2) for _ in range(n)]
        d["frame"] = _from_cols(
            [tuple(x * Fraction(p) ** k for x in _cols(B)[i]) for i, k in zip(perm, shifts)]
        )
        d["expect"] = tuple(a[i] - k for i, k in zip(perm, shifts))
    elif kind == "apartment_coords.out":
        i, j = rng.sample(range(n), 2)
        # a shear of positive weight: the frame does not split the norm
        c = Fraction(p) ** (math.ceil(a[j] - a[i]) - 1)
        d["frame"] = tuple(tuple(row[k] + (c * row[j] if k == i else 0) for k in range(n)) for row in B)
        d["expect"] = None
    elif kind in ("homothetic.yes", "homothetic.no"):
        shift = rng.randint(-2, 2)
        b = [x + shift for x in a]
        if kind == "homothetic.no":
            b[rng.randrange(n)] += 1
        d.update(b=tuple(b), b_basis=isometric_basis(rng, B, b, p), expect=kind == "homothetic.yes")
    else:
        raise ValueError(kind)
    return d


def _compare_op(kind, d) -> tuple[Callable, Callable]:
    p = d["p"]

    def first():
        return _norm(p, d["a_basis"], d["a"])

    def second():
        return _norm(p, d["b_basis"], d["b"])

    if kind.startswith("equals."):
        return lambda: norms.equals(first(), second()), lambda r: r is d["expect"]
    if kind.startswith("homothetic."):
        return lambda: building.homothetic(first(), second()), lambda r: r is d["expect"]
    if kind == "cartan_position":
        return lambda: building.cartan_position(first(), second()), lambda r: r == d["expect"]
    if kind == "distance":
        expect = (max(abs(x) for x in d["expect"]), d["expect"])
        return lambda: norms.distance(first(), second()), lambda r: r == expect
    if kind == "common_splitting_basis":

        def check(r):
            basis, av, bv = r
            a, b = first(), second()
            cols = _cols(basis)
            return (
                all(0 <= x < 1 for x in av)
                and tuple(sorted((y - x for x, y in zip(av, bv)), reverse=True)) == d["expect"]
                and all(_size(a, c) == x for c, x in zip(cols, av))
                and all(_size(b, c) == y for c, y in zip(cols, bv))
            )

        return lambda: norms.common_splitting_basis(first(), second()), check
    if kind == "restrict":

        def check(r):
            units = [tuple(Fraction(int(i == j)) for i in range(r.dim)) for j in range(r.dim)]
            return (
                r.dim == len(d["inside"])
                and class_counts(r.values) == class_counts(d["inside"])
                and tuple(_size(r, e) for e in units) == d["sizes"]
            )

        return lambda: norms.restrict(first(), d["span"]), check
    if kind == "quotient":

        def check(r):
            return r.dim == len(d["outside"]) and class_counts(r.values) == class_counts(d["outside"])

        return lambda: norms.quotient(first(), d["span"]), check
    if kind.startswith("apartment_coords."):
        return lambda: building.apartment_coords(first(), d["frame"]), lambda r: r == d["expect"]
    raise ValueError(kind)


# ----------------------------------------------------------------- query


def _pool_norm(rng, n, p):
    B, Binv, a = _split_family(rng, n, p)
    return {"p": p, "hidden": B, "hidden_inv": Binv, "a": a, "basis": isometric_basis(rng, B, a, p)}


def _query_spec(rng, kind, pool, idx):
    if kind == "tensor":
        p = rng.choice(PRIMES)
        parts = []
        for _ in range(2):
            B, _, a = _split_family(rng, 4, p)
            v, size = combination(rng, B, a, p)
            parts.append((isometric_basis(rng, B, a, p), a, v, size))
        (fa, a, va, sa), (fb, b, vb, sb) = parts
        return {"p": p, "a_basis": fa, "a": a, "b_basis": fb, "b": b,
                "vec": tuple(x * y for x in va for y in vb), "size": sa + sb}
    P = pool[idx]
    p, B, Binv, a = P["p"], P["hidden"], P["hidden_inv"], P["a"]
    n = len(a)
    d = {"norm": idx}
    if kind == "evaluate":
        v, size = combination(rng, B, a, p)
        d.update(vec=v, size=size)
    elif kind == "act":
        g = elementary_product(rng, n, p)
        v, size = combination(rng, B, a, p)
        d.update(g=g, gv=_matvec(g, v), size=size)
    elif kind in ("ball_basis", "ball_basis_open"):
        level = frac_part(rng.choice(a)) + rng.randint(-2, 2) + rng.choice((0, Fraction(1, 7)))
        d.update(level=level, exps=_ball_exps(a, level, kind == "ball_basis_open"))
    elif kind == "chain_period":
        pass
    elif kind in ("is_stabilizer_element.yes", "is_stabilizer_element.no"):
        if kind.endswith("yes"):
            d["g"] = stabilizer_element(rng, B, Binv, a, p)
        else:
            d["g"] = scaling(B, Binv, rng.randrange(n), p)
        d["expect"] = kind.endswith("yes")
    elif kind == "filtration_level":
        i, j = rng.sample(range(n), 2)
        k = math.ceil(a[j] - a[i]) + rng.randint(0, 1)
        w = a[j] - a[i] - k
        d["g"] = tuple(map(tuple, shear(B, Binv, i, j, Fraction(p) ** k * unit(rng, p))))
        d["expect"] = str(w) if w > -1 else "-inf"
    elif kind == "graded_ball_dims":
        level = rational(rng)
        counts = class_counts(a)
        d["level"] = level
        d["expect"] = {_degree_rep(frac_part(c - level)): (m, m) for c, m in counts.items()}
    else:
        raise ValueError(kind)
    return d


def _query_op(kind, d, pool_specs, pool) -> tuple[Callable, Callable]:
    if kind == "tensor":
        p = d["p"]

        def check(r):
            return (
                r.dim == 16
                and r.values == tuple(x + y for x in d["a"] for y in d["b"])
                and _size(r, d["vec"]) == d["size"]
            )

        return lambda: norms.tensor(_norm(p, d["a_basis"], d["a"]), _norm(p, d["b_basis"], d["b"])), check
    idx = d["norm"]
    P = pool_specs[idx]

    def norm():
        # the few reused norms are built on first use and then shared
        if idx not in pool:
            pool[idx] = _norm(P["p"], P["basis"], P["a"])
        return pool[idx]

    p, Binv, a = P["p"], P["hidden_inv"], P["a"]
    if kind == "evaluate":
        return lambda: norms.evaluate(norm(), d["vec"]), lambda r: r.mag == d["size"]
    if kind == "act":
        return (lambda: norms.act(d["g"], norm()),
                lambda r: r.values == a and _size(r, d["gv"]) == d["size"])
    if kind in ("ball_basis", "ball_basis_open"):
        return (lambda: getattr(norms, kind)(norm(), d["level"]),
                lambda r: _lattice_ok(r.matrix, Binv, d["exps"], p))
    if kind == "chain_period":
        classes = tuple(sorted({frac_part(x) for x in a}))

        def check(r):
            return r.classes == classes and all(
                _lattice_ok(lat.matrix, Binv, _ball_exps(a, c), p) for c, lat in zip(classes, r.lattices)
            )

        return lambda: stabilizer.chain_period(norm()), check
    if kind.startswith("is_stabilizer_element."):
        return lambda: stabilizer.is_stabilizer_element(norm(), d["g"]), lambda r: r is d["expect"]
    if kind == "filtration_level":
        return lambda: stabilizer.filtration_level(norm(), d["g"]), lambda r: str(r) == d["expect"]
    if kind == "graded_ball_dims":
        return lambda: base_change.graded_ball_dims(norm(), d["level"]), lambda r: r == d["expect"]
    raise ValueError(kind)


# ------------------------------------------------------------ far-points


def _far_family(rng, n, p):
    B, Binv, a = _split_family(rng, n, p)
    return {"p": p, "basis": isometric_basis(rng, B, a, p), "a": a, "hidden": B, "hidden_inv": Binv}


def _far_spec(rng, kind, fam):
    p, B, a = fam["p"], fam["hidden"], fam["a"]
    n = len(a)
    d = {"p": p, "basis": fam["basis"], "a": a}
    if kind == "evaluate":
        v, size = combination(rng, B, a, p, n_terms=n, min_val=500, max_val=3000)
        d.update(vec=v, size=size)
    elif kind in ("ball_basis", "ball_basis_open"):
        level = Fraction(-rng.randint(500, 3000)) + frac_part(rng.choice(a))
        d.update(level=level, exps=_ball_exps(a, level, kind == "ball_basis_open"), hidden_inv=fam["hidden_inv"])
    elif kind == "torus_translation":
        ks = tuple(rng.choice((1, -1)) * rng.randint(500, 3000) for _ in range(n))
        d["torus"] = tuple(
            tuple(unit(rng, p) * Fraction(p) ** k if i == j else Fraction(0) for j in range(n))
            for i, k in enumerate(ks)
        )
        d["expect"] = tuple(Fraction(k) for k in ks)
    else:
        raise ValueError(kind)
    return d


def _far_op(kind, d) -> tuple[Callable, Callable]:
    p = d["p"]
    if kind == "evaluate":
        return lambda: norms.evaluate(_norm(p, d["basis"], d["a"]), d["vec"]), lambda r: r.mag == d["size"]
    if kind in ("ball_basis", "ball_basis_open"):
        return (lambda: getattr(norms, kind)(_norm(p, d["basis"], d["a"]), d["level"]),
                lambda r: _lattice_ok(r.matrix, d["hidden_inv"], d["exps"], p))
    if kind == "torus_translation":
        return lambda: building.torus_translation(d["torus"], FieldConfig(p)), lambda r: r == d["expect"]
    raise ValueError(kind)


# -------------------------------------------------------------- cli-docs


def _fmt(x) -> str:
    return str(Fraction(x))


def _mat_arg(m) -> str:
    return ";".join(",".join(_fmt(x) for x in row) for row in m)


def _cols_arg(cols) -> str:
    return ";".join(",".join(_fmt(x) for x in col) for col in cols)


def _doc(p, basis, vals) -> str:
    doc = {
        "basis": [[_fmt(x) for x in col] for col in _cols(basis)],
        "dim": len(vals),
        "prime": p,
        "values": [_fmt(x) for x in vals],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def _line(payload, text):
    return ("line", payload, text)


def _cli_round(rng, r, workdir: Path):
    """One round of CLI variants on a fresh family of documents.

    Returns a list of (argv, expectation) pairs, where an expectation is
    ("line", machine payload, text line) or ("doc", kind, data) checked
    on the parsed document."""
    n = 2 + r % 4
    p = PRIMES[(r // 4) % 3]
    B, Binv, a = _split_family(rng, n, p)

    def write(name, basis, vals):
        path = workdir / f"r{r}-{name}.json"
        path.write_text(_doc(p, basis, vals))
        return str(path)

    FA = isometric_basis(rng, B, a, p)
    A = write("a", FA, a)
    A_eq = write("a-eq", isometric_basis(rng, B, a, p), a)
    a_ne = list(a)
    a_ne[rng.randrange(n)] += Fraction(1, 2)
    A_ne = write("a-ne", isometric_basis(rng, B, a_ne, p), a_ne)
    B2, _, b = _split_family(rng, n, p)
    FB = isometric_basis(rng, B2, b, p)
    Bdoc = write("b", FB, b)
    c = values(rng, n)
    C = write("c", isometric_basis(rng, B, c, p), c)
    std = write("std", tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)), a)
    s = frac_part(rng.choice(a))
    T2, T2inv = invertible_pair(rng, 2)
    t_vals = (s + rng.randint(-2, 2), s + rng.randint(-2, 2))
    T = write("tree", isometric_basis(rng, T2, t_vals, p), t_vals)
    m2 = n * n
    counts = class_counts(a)
    centralizer = sum(m * m for m in counts.values())
    out = []

    v, size = combination(rng, B, a, p)
    size = str(size)
    out.append((["eval", A, "--vector=" + ",".join(_fmt(x) for x in v)], _line({"value": size}, size)))
    va, sa = combination(rng, B, a, p)
    vb, sb = combination(rng, B2, b, p)
    out.append((["tensor", A, Bdoc], ("doc", "tensor", {
        "values": [x + y for x in a for y in b], "vec": tuple(x * y for x in va for y in vb), "size": sa + sb})))
    out.append((["dual", A], ("doc", "dual", {"values": [-x for x in a], "basis": FA})))
    out.append((["sum", A, Bdoc], ("doc", "sum", {"values": list(a) + list(b), "vec": va + vb, "size": max(sa, sb)})))
    span_cols, inside, outside, sizes = _subspace(rng, B, a, p)
    out.append((["restrict", A, "--span=" + _cols_arg(span_cols)],
                ("doc", "restrict", {"inside": inside, "sizes": sizes})))
    out.append((["quotient", A, "--span=" + _cols_arg(span_cols)], ("doc", "quotient", {"outside": outside})))
    g = elementary_product(rng, n, p)
    v, size = combination(rng, B, a, p)
    out.append((["act", A, "--matrix=" + _mat_arg(g)],
                ("doc", "act", {"values": list(a), "vec": _matvec(g, v), "size": size})))
    out.append((["equals", A, A_eq], _line({"result": True}, "true")))
    out.append((["equals", A, A_ne], _line({"result": False}, "false")))
    level = frac_part(rng.choice(a)) + rng.randint(-2, 2)
    out.append((["ball", A, "--at=" + _fmt(level)], ("doc", "ball", {"hidden_inv": Binv, "exps": _ball_exps(a, level)})))
    out.append((["ball", A, "--at=" + _fmt(level), "--open"],
                ("doc", "ball", {"hidden_inv": Binv, "exps": _ball_exps(a, level, True)})))
    out.append((["chain", A], ("doc", "chain", {"hidden_inv": Binv, "a": a})))
    gs = stabilizer_element(rng, B, Binv, a, p)
    out.append((["stab-check", A, "--matrix=" + _mat_arg(gs)], _line({"result": True}, "true")))
    gn = scaling(B, Binv, rng.randrange(n), p)
    out.append((["stab-check", A, "--matrix=" + _mat_arg(gn)], _line({"result": False}, "false")))
    degrees = _degree_counts(a)
    out.append((["graded-dims", A], _line(
        {"classes": [[str(k), m] for k, m in degrees.items()], "total": m2},
        "\n".join(f"{k} {m}" for k, m in degrees.items()))))
    delta = rng.choice(list(degrees) + [Fraction(-1, 7)])
    count = degrees.get(delta, 0)
    out.append((["graded-dims", A, "--delta=" + _fmt(delta)],
                _line({"class": str(delta), "dim": count}, str(count))))
    blocks = sorted(counts.values(), reverse=True)
    out.append((["fiber", A], _line(
        {"levi": blocks, "total": m2, "unipotent": m2 - centralizer},
        f"levi=[{','.join(map(str, blocks))}] unipotent={m2 - centralizer} total={m2}")))
    i, j = rng.sample(range(n), 2)
    k = math.ceil(a[j] - a[i]) + rng.randint(0, 1)
    w = a[j] - a[i] - k
    lvl = str(w) if w > -1 else "-inf"
    gl = shear(B, Binv, i, j, Fraction(p) ** k * unit(rng, p))
    out.append((["level", A, "--matrix=" + _mat_arg(gl)], _line({"level": lvl}, lvl)))
    below = w <= Fraction(-1, 2)  # bottom (w <= -1) is below every delta too
    out.append((["level", A, "--matrix=" + _mat_arg(gl), "--delta=-1/2"],
                _line({"result": below}, "true" if below else "false")))
    out.append((["chi-weights", A], _line(
        {"weights": [[str(k), m] for k, m in counts.items()]},
        "\n".join(f"{k} {m}" for k, m in counts.items()))))
    out.append((["bc-dims", A], _line(
        {"centralizer": centralizer, "kernel": m2 - centralizer, "total": m2},
        f"kernel={m2 - centralizer} centralizer={centralizer} total={m2}")))
    at = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
    table = dict(sorted(((_degree_rep(frac_part(cls - at)), m) for cls, m in counts.items()), reverse=True))
    out.append((["bc-dims", A, "--at=" + _fmt(at)], _line(
        {"at": str(at), "classes": [[str(dd), [m, m]] for dd, m in table.items()]},
        "\n".join(f"{dd} lhs={m} rhs={m}" for dd, m in table.items()))))
    e = rng.randint(2, 6)
    refined = dict(sorted(class_counts([x * e for x in a]).items()))
    refined = {k / e: m for k, m in refined.items()}
    collapse = len(refined) <= 1 and all(k == 0 for k in refined)
    out.append((["bc-dims", A, f"--ram-index={e}"], _line(
        {"classes": [[str(k), m] for k, m in refined.items()], "lattice_norm": collapse, "ram_index": e},
        f"ram_index={e} classes=[{' '.join(f'{k}:{m}' for k, m in refined.items())}]"
        f" lattice_norm={'true' if collapse else 'false'}")))
    out.append((["bc-dims", A, "--ram-index=unbounded"], _line(
        {"classes": [["0", n]], "lattice_norm": True, "ram_index": "unbounded"},
        f"ram_index=unbounded classes=[0:{n}] lattice_norm=true")))
    out.append((["apartment", "--vector=" + ",".join(_fmt(x) for x in a), "--prime", str(p)],
                ("doc", "apartment", {"values": list(a)})))
    perm = rng.sample(range(n), n)
    shifts = [rng.randint(-2, 2) for _ in range(n)]
    frame = _from_cols([tuple(x * Fraction(p) ** kk for x in _cols(B)[ii]) for ii, kk in zip(perm, shifts)])
    coords = [str(a[ii] - kk) for ii, kk in zip(perm, shifts)]
    out.append((["coords", A, "--frame=" + _mat_arg(frame)], _line({"coords": coords}, ",".join(coords))))
    std_coords = [str(x) for x in a]
    out.append((["coords", std], _line({"coords": std_coords}, ",".join(std_coords))))
    ks = [rng.randint(-4, 4) for _ in range(n)]
    torus = [[unit(rng, p) * Fraction(p) ** kk if ii == jj else 0 for jj in range(n)] for ii, kk in enumerate(ks)]
    out.append((["translate", "--matrix=" + _mat_arg(torus), "--prime", str(p)],
                _line({"translation": [str(kk) for kk in ks]}, ",".join(str(kk) for kk in ks))))
    position = [str(x) for x in sorted((y - x for x, y in zip(a, c)), reverse=True)]
    out.append((["cartan", A, C], _line({"position": position}, ",".join(position))))
    kinds = [str(m) for m in counts.values()]
    out.append((["type", A], _line({"type": [int(m) for m in kinds]}, ",".join(kinds))))
    out.append((["tree", T], ("doc", "tree", {"hidden_inv": T2inv, "s": s, "p": p,
                                               "exps": _ball_exps(t_vals, s)})))
    return out


def _doc_check(kind, data, doc, p) -> bool:
    vals = lambda: [Fraction(x) for x in doc["values"]]
    matrix = lambda cols: _from_cols([[Fraction(x) for x in col] for col in cols])
    if kind in ("tensor", "sum", "act"):
        norm = pio.norm_from_doc(doc)
        return vals() == list(data["values"]) and _size(norm, data["vec"]) == data["size"]
    if kind == "dual":
        dual_cols = _cols(matrix(doc["basis"]))
        cols = _cols(data["basis"])
        pairing = [[sum(x * y for x, y in zip(dc, c)) for c in cols] for dc in dual_cols]
        return vals() == data["values"] and all(
            pairing[i][j] == (i == j) for i in range(len(cols)) for j in range(len(cols))
        )
    if kind == "restrict":
        norm = pio.norm_from_doc(doc)
        units = [tuple(Fraction(int(i == j)) for i in range(norm.dim)) for j in range(norm.dim)]
        return (
            class_counts(norm.values) == class_counts(data["inside"])
            and [_size(norm, e) for e in units] == data["sizes"]
        )
    if kind == "quotient":
        return doc["dim"] == len(data["outside"]) and class_counts(vals()) == class_counts(data["outside"])
    if kind == "ball":
        return _lattice_ok(matrix(doc["matrix"]), data["hidden_inv"], data["exps"], p)
    if kind == "chain":
        a = data["a"]
        classes = sorted({frac_part(x) for x in a})
        return doc["classes"] == [str(c) for c in classes] and all(
            _lattice_ok(matrix(cols), data["hidden_inv"], _ball_exps(a, c), p)
            for c, cols in zip(classes, doc["lattices"])
        )
    if kind == "apartment":
        n = len(data["values"])
        return doc == {
            "basis": [[str(int(i == j)) for i in range(n)] for j in range(n)],
            "dim": n,
            "prime": p,
            "values": [str(x) for x in data["values"]],
        }
    if kind == "tree":
        s = str(data["s"])
        neighbors = doc["neighbors"]
        return len(neighbors) == p + 1 and all(
            nb["values"] == [s, s]
            and _lattice_ok(matrix(nb["basis"]), data["hidden_inv"], data["exps"], p, index=1)
            for nb in neighbors
        )
    raise ValueError(kind)


def _cli_op(argv, expect, fmt, p) -> tuple[Callable, Callable]:
    argv = argv + ["--format", fmt]

    def run():
        out, err = StringIO(), StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(r):
        code, out, err = r
        if code != 0 or err:
            return False
        if expect[0] == "line":
            _, payload, text = expect
            if fmt == "machine":
                return out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
            return out == text + "\n"
        doc = json.loads(out)
        if fmt == "machine":
            canonical = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        else:
            canonical = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        return out == canonical and _doc_check(expect[1], expect[2], doc, p)

    return run, check


# ------------------------------------------------------------- registry


@dataclass(frozen=True)
class Workload:
    """A named workload: `generate` turns a seeded rng into rounds of
    (kind, data) specs, `make_ops` turns specs into fresh operations."""

    name: str
    round_seconds: float  # wall time of one round on the reference box
    generate: Callable
    make_ops: Callable
    count_rounds: int = 1  # rounds run by the Fraction counting run
    # The calibration loop that op times are scaled by (see run.py): one
    # that slows like the workload's own work in the host's slow phases.
    calibration: str = "fraction"


def _gen_compare(rng, rounds, workdir):
    return [
        [(f"{kind}/n{n}", _compare_spec(rng, kind, n, PRIMES[(r + i) % 3]))
         for i, (kind, n) in enumerate(_expand(COMPARE_ROUND))]
        for r in range(rounds)
    ]


def _ops_compare(specs):
    return [Op(kind, *_compare_op(kind.split("/")[0], d)) for rnd in specs for kind, d in rnd]


def _gen_query(rng, rounds, workdir):
    pool = [_pool_norm(rng, n, PRIMES[i % 3]) for i, n in enumerate(QUERY_POOL)]
    by_size = {n: [i for i, m in enumerate(QUERY_POOL) if m == n] for n in set(QUERY_POOL)}
    out = []
    for r in range(rounds):
        rnd = []
        for i, (kind, n) in enumerate(_expand(QUERY_ROUND)):
            idx = by_size[n][(r + i) % len(by_size[n])] if n in by_size else None
            rnd.append((f"{kind}/n{n}", _query_spec(rng, kind, pool, idx)))
        out.append(rnd)
    return {"pool": pool, "rounds": out}


def _ops_query(specs):
    pool: dict[int, object] = {}
    return [
        Op(kind, *_query_op(kind.split("/")[0], d, specs["pool"], pool))
        for rnd in specs["rounds"] for kind, d in rnd
    ]


def _gen_far(rng, rounds, workdir):
    out = []
    for r in range(rounds):
        fam = _far_family(rng, 4, PRIMES[r % 3])
        out.append([(kind, _far_spec(rng, kind, fam)) for kind, _ in _expand(FAR_ROUND)])
    return out


def _ops_far(specs):
    return [Op(kind, *_far_op(kind, d)) for rnd in specs for kind, d in rnd]


def _gen_cli(rng, rounds, workdir):
    out = []
    for r in range(rounds):
        p = PRIMES[(r // 4) % 3]
        out.append([(argv[0], (argv, expect, fmt, p))
                    for argv, expect in _cli_round(rng, r, workdir) for fmt in ("text", "machine")])
    return out


def _ops_cli(specs):
    return [Op(f"{kind}/{d[2]}", *_cli_op(*d)) for rnd in specs for kind, d in rnd]


def _expand(table):
    return [(kind, n) for kind, n, count in table for _ in range(count)]


# Round compositions: (kind, n, count).  Counts are chosen so that the
# median op falls inside a broad block of similar ops and the 90th
# percentile inside the block of the slowest kind, never at the gap
# between two size clusters.
COMPARE_ROUND = (
    ("equals.eq", 8, 2),
    ("equals.ne", 8, 2),
    ("common_splitting_basis", 8, 1),
    ("cartan_position", 8, 1),
    ("distance", 8, 1),
    ("restrict", 8, 1),
    ("quotient", 8, 1),
    ("apartment_coords.in", 8, 1),
    ("apartment_coords.out", 8, 1),
    ("homothetic.yes", 8, 1),
    ("homothetic.no", 8, 1),
    ("equals.eq", 12, 1),
    ("common_splitting_basis", 12, 1),
    ("cartan_position", 12, 1),
    ("distance", 12, 1),
)
QUERY_POOL = (8, 8, 8, 8, 16, 16, 16, 16)
QUERY_ROUND = (
    ("evaluate", 8, 13),
    ("ball_basis", 8, 1),
    ("ball_basis_open", 8, 1),
    ("act", 8, 1),
    ("chain_period", 8, 1),
    ("is_stabilizer_element.yes", 8, 1),
    ("is_stabilizer_element.no", 8, 1),
    ("filtration_level", 8, 1),
    ("graded_ball_dims", 8, 1),
    ("evaluate", 16, 20),
    ("ball_basis", 16, 1),
    ("ball_basis_open", 16, 1),
    ("act", 16, 2),
    ("chain_period", 16, 1),
    ("is_stabilizer_element.yes", 16, 3),
    ("filtration_level", 16, 3),
    ("graded_ball_dims", 16, 3),
    ("tensor", 4, 2),
)
FAR_ROUND = (
    ("evaluate", 4, 4),
    ("ball_basis", 4, 1),
    ("ball_basis_open", 4, 1),
    ("torus_translation", 4, 4),
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("cli-docs", 0.53, _gen_cli, _ops_cli, calibration="argparse"),
        Workload("compare", 1.1, _gen_compare, _ops_compare),
        Workload("query", 1.05, _gen_query, _ops_query),
        Workload("far-points", 0.067, _gen_far, _ops_far, count_rounds=10, calibration="bigint"),
    )
}
