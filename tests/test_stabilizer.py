"""The order of a norm, stabilizer membership, gradings, the special
fiber, lattice chains, and the congruence filtration."""

import random
from fractions import Fraction

import pytest

from padicnorm import FieldConfig, LatticeBasis, SplitNorm, linalg, slots
from padicnorm.errors import DimensionMismatchError, PreconditionError, SingularMatrixError
from padicnorm.norms import act, equals, lattice_norm, lattices_equal
from padicnorm.stabilizer import (
    chain_certificates,
    chain_period,
    fiber_structure,
    filtration_level,
    graded_dims,
    hom_norm,
    is_stabilizer_element,
)
from padicnorm.valuation import BOTTOM, pval

import fuzz
import oracles

F = Fraction
CFG2 = FieldConfig(2)
ALPHA0 = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(1, 2)))
BETA = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(0)))


def minus_identity(g):
    n = len(g)
    return tuple(
        tuple(g[i][j] - (1 if i == j else 0) for j in range(n)) for i in range(n)
    )


def test_hom_norm_examples():
    assert hom_norm(ALPHA0, oracles.identity(2)) == 0
    send_1_to_2 = ((0, 0), (1, 0))
    assert hom_norm(ALPHA0, send_1_to_2) == F(1, 2)
    send_2_to_1 = ((0, 1), (0, 0))
    assert hom_norm(ALPHA0, send_2_to_1) == -F(1, 2)
    assert hom_norm(ALPHA0, ((0, 0), (0, 0))).is_bottom


def test_hom_norm_submultiplicative():
    rng = random.Random(71)
    for _ in range(150):
        nrm = fuzz.norm(rng)
        g = fuzz.elementary_product(rng, nrm.dim, nrm.cfg.prime)
        h = fuzz.elementary_product(rng, nrm.dim, nrm.cfg.prime)
        assert hom_norm(nrm, linalg.matmul(g, h)) <= hom_norm(nrm, g) + hom_norm(nrm, h)
        s = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(g, h))
        assert hom_norm(nrm, s) <= max(hom_norm(nrm, g), hom_norm(nrm, h))


def test_stabilizer_examples():
    assert is_stabilizer_element(ALPHA0, oracles.identity(2))
    assert is_stabilizer_element(ALPHA0, ((1, 2), (0, 1)))
    assert not is_stabilizer_element(ALPHA0, ((2, 0), (0, 1)))
    with pytest.raises(SingularMatrixError):
        is_stabilizer_element(ALPHA0, ((1, 1), (1, 1)))


def _two_sided(nrm, g):
    """The definition: g and its inverse both lie in the order."""
    return hom_norm(nrm, g) <= 0 and hom_norm(nrm, linalg.inverse(g)) <= 0


def test_stabilizer_edge_cases():
    for p in fuzz.PRIMES:
        cfg = FieldConfig(p)
        for nrm in (
            SplitNorm(cfg, 2, oracles.identity(2), (F(0), F(0))),
            SplitNorm(cfg, 2, oracles.identity(2), (F(0), F(1, 2))),
        ):
            # dominated, but the determinant p^2 is not a unit
            scalar = ((p, 0), (0, p))
            assert hom_norm(nrm, scalar) <= 0
            assert is_stabilizer_element(nrm, scalar) is _two_sided(nrm, scalar) is False
            # unit determinant, but not dominated
            torus = ((p, 0), (0, F(1, p)))
            assert pval(linalg.det(torus), p) == 0
            assert is_stabilizer_element(nrm, torus) is _two_sided(nrm, torus) is False
        empty = SplitNorm(cfg, 0, (), ())
        assert is_stabilizer_element(empty, ()) is _two_sided(empty, ()) is True


def test_stabilizer_matches_ball_oracle():
    rng = random.Random(72)
    for _ in range(200):
        nrm = fuzz.norm(rng)
        if rng.random() < 0.5:
            g = fuzz.stabilizer_element(rng, nrm)
        else:
            g = fuzz.elementary_product(rng, nrm.dim, nrm.cfg.prime)
        assert is_stabilizer_element(nrm, g) == oracles.preserves_all_balls(nrm, g)


def test_graded_dims_examples():
    assert graded_dims(ALPHA0).class_dims == {F(0): 2, F(-1, 2): 2}
    assert graded_dims(BETA).class_dims == {F(0): 4}
    three = SplitNorm(FieldConfig(3), 3, oracles.identity(3), (F(0), F(1, 3), F(2, 3)))
    assert graded_dims(three).class_dims == {F(0): 3, F(-1, 3): 3, F(-2, 3): 3}
    assert graded_dims(three).total == 9


def test_graded_dims_invariants():
    rng = random.Random(73)
    for _ in range(200):
        nrm = fuzz.norm(rng)
        summary = graded_dims(nrm)
        assert summary.total == nrm.dim * nrm.dim
        assert all(-1 < k <= 0 for k in summary.class_dims)
        assert list(summary.class_dims) == sorted(summary.class_dims, reverse=True)
        fs = fiber_structure(nrm)
        assert summary.class_dims[F(0)] == sum(m * m for m in fs.levi_blocks)
        assert fs.unipotent_dim == sum(v for k, v in summary.class_dims.items() if k < 0)
        g = fuzz.elementary_product(rng, nrm.dim, nrm.cfg.prime)
        assert graded_dims(act(g, nrm)).class_dims == summary.class_dims


def test_fiber_structure_examples():
    fs = fiber_structure(ALPHA0)
    assert fs.levi_blocks == (1, 1)
    assert fs.unipotent_dim == 2
    assert fs.total_dim == 4
    fs = fiber_structure(BETA)
    assert fs.levi_blocks == (2,)
    assert fs.unipotent_dim == 0
    mixed = SplitNorm(CFG2, 3, oracles.identity(3), (F(0), F(0), F(1, 2)))
    fs = fiber_structure(mixed)
    assert fs.levi_blocks == (2, 1)
    assert fs.unipotent_dim == 4
    assert fs.total_dim == 9


def test_fiber_dimension_identity():
    rng = random.Random(74)
    for _ in range(200):
        nrm = fuzz.norm(rng)
        fs = fiber_structure(nrm)
        assert fs.unipotent_dim + sum(m * m for m in fs.levi_blocks) == nrm.dim**2
        assert sum(fs.levi_blocks) == nrm.dim


def test_chain_period_examples():
    period = chain_period(ALPHA0)
    assert period.classes == (F(0), F(1, 2))
    assert lattices_equal(period.lattices[0], LatticeBasis(CFG2, ((1, 0), (0, 2))))
    assert lattices_equal(period.lattices[1], LatticeBasis(CFG2, oracles.identity(2)))
    assert chain_period(BETA).classes == (F(0),)
    l = LatticeBasis(CFG2, ((1, 1), (0, 2)))
    single = chain_period(lattice_norm(l))
    assert len(single.lattices) == 1
    assert lattices_equal(single.lattices[0], l)


def test_chain_certificates():
    rng = random.Random(75)
    for _ in range(100):
        nrm = fuzz.norm(rng)
        p = nrm.cfg.prime
        period = chain_period(nrm)
        for cls, lattice in zip(period.classes, period.lattices):
            assert lattice.matrix == oracles.ball(nrm, cls)
        certs = chain_certificates(period)
        assert len(certs) == len(period.lattices)
        lats = period.lattices
        for k, (cert, small, big) in enumerate(zip(certs, lats, lats[1:] + lats[:1])):
            assert all(oracles.integral(x, p) for row in cert for x in row)
            # big^-1 small in Fractions, the wrap-around one times p
            want = oracles.product(oracles.inverse(big.matrix), small.matrix)
            scale = p if k == len(lats) - 1 else 1
            assert cert == tuple(tuple(scale * x for x in row) for row in want)
        # one period climbs through the whole lattice index p^n
        total = sum(pval(linalg.det(c), p) for c in certs)
        assert total == nrm.dim
    # a 0-dimensional norm has no value class, so its period holds no ball to certify
    assert chain_certificates(chain_period(SplitNorm(CFG2, 0, (), ()))) == ()


def test_chain_certificates_invert_the_norm_once(monkeypatch):
    # every ball B diag(p^k) of the period takes its inverse diag(p^-k) B^-1 from the norm's
    calls = []
    kernel = linalg.inverse_rows
    monkeypatch.setattr(linalg, "inverse_rows", lambda cols: calls.append(cols) or kernel(cols))
    rng = random.Random(76)
    vals = (F(0), F(1, 4), F(1, 2), F(3, 4), F(-3, 2), F(7, 4))  # 4 value classes
    nrm = SplitNorm(FieldConfig(3), 6, fuzz.invertible(rng, 6), vals)
    period = chain_period(nrm)
    assert len(period.lattices) == 4 and calls == []
    certs = chain_certificates(period)
    assert len(calls) == 1
    assert all(oracles.integral(x, 3) for cert in certs for row in cert for x in row)
    assert sum(pval(linalg.det(c), 3) for c in certs) == 6


def test_filtration_level_examples():
    assert filtration_level(ALPHA0, oracles.identity(2)).is_bottom
    assert filtration_level(ALPHA0, ((1, 1), (0, 1))) == -F(1, 2)
    assert filtration_level(ALPHA0, ((1, 0), (2, 1))) == -F(1, 2)
    # deep elements clamp to bottom
    assert filtration_level(ALPHA0, ((5, 0), (0, 5))).is_bottom
    with pytest.raises(PreconditionError):
        filtration_level(ALPHA0, ((2, 0), (0, 1)))


def test_filtration_level_range():
    rng = random.Random(76)
    for _ in range(100):
        nrm = fuzz.norm(rng)
        g = fuzz.stabilizer_element(rng, nrm)
        level = filtration_level(nrm, g)
        assert level.is_bottom or (-1 < level.mag <= 0)


def test_commutator_law():
    rng = random.Random(77)
    for _ in range(120):
        nrm = fuzz.norm(rng)
        g = fuzz.stabilizer_element(rng, nrm)
        h = fuzz.stabilizer_element(rng, nrm)
        comm = linalg.matmul(
            linalg.matmul(g, h), linalg.inverse(linalg.matmul(h, g))
        )
        # bottom absorbs: a bottom bound forces a bottom commutator level
        bound = filtration_level(nrm, g) + filtration_level(nrm, h)
        assert filtration_level(nrm, comm) <= bound


def test_graded_additivity():
    # the product of two augmentation parts drops below both levels
    rng = random.Random(78)
    for _ in range(100):
        nrm = fuzz.norm(rng)
        g = fuzz.stabilizer_element(rng, nrm)
        h = fuzz.stabilizer_element(rng, nrm)
        dg = minus_identity(g)
        dh = minus_identity(h)
        prod = linalg.matmul(dg, dh)
        assert hom_norm(nrm, prod) <= hom_norm(nrm, dg) + hom_norm(nrm, dh)
        gh = minus_identity(linalg.matmul(g, h))
        s = tuple(tuple(x + y for x, y in zip(r1, r2)) for r1, r2 in zip(dg, dh))
        diff = tuple(tuple(x - y for x, y in zip(r1, r2)) for r1, r2 in zip(gh, s))
        assert hom_norm(nrm, diff) <= hom_norm(nrm, dg) + hom_norm(nrm, dh)


def test_stabilizer_fixes_norm():
    rng = random.Random(79)
    for _ in range(80):
        nrm = fuzz.norm(rng)
        g = fuzz.elementary_product(rng, nrm.dim, nrm.cfg.prime)
        assert is_stabilizer_element(nrm, g) == equals(act(g, nrm), nrm)


def _level_by_definition(nrm, g):
    """hom_norm(g - 1), collapsed to bottom at or below -1."""
    level = hom_norm(nrm, minus_identity(g))
    return BOTTOM if level <= -1 else level


def test_conjugation_matches_definitions():
    # membership and the level read one table of B^-1 (g - 1) B; the definitions read g itself
    rng = random.Random(80)
    for n in range(2, 9):
        for p in fuzz.PRIMES:
            nrm = fuzz.norm(rng, n, p)
            member = fuzz.stabilizer_element(rng, nrm)
            other = fuzz.elementary_product(rng, n, p)
            for g in (member, other):
                inside = is_stabilizer_element(nrm, g)
                assert inside is _two_sided(nrm, g)
                if inside:
                    assert filtration_level(nrm, g) == _level_by_definition(nrm, g)
                else:
                    with pytest.raises(PreconditionError):
                        filtration_level(nrm, g)
            assert is_stabilizer_element(nrm, member)


def test_group_element_refusals():
    for verb in (is_stabilizer_element, filtration_level):
        with pytest.raises(SingularMatrixError, match="matrix is singular"):
            verb(ALPHA0, ((1, 1), (1, 1)))
        # the size is checked first: singular, invertible or not square at all
        for g in (((1, 1, 0), (1, 1, 0), (0, 0, 1)), oracles.identity(3), ((1, 0, 0), (0, 1, 0))):
            with pytest.raises(DimensionMismatchError, match="matrix must be 2x2"):
                verb(ALPHA0, g)


def _not_rank_one(g) -> int:
    """0 when g - 1 has rank one, by the oracle, else 1: the count of products and table
    scans that membership and the level take, as a g - 1 of rank one is sized from its two
    factors."""
    return int(oracles.rank(minus_identity(g)) != 1)


def _elements(rng, roots, nrm):
    """A stabilizer element and, for n >= 2, a root-group element drawn from roots."""
    g = fuzz.stabilizer_element(rng, nrm)
    return [g, fuzz.root_element(roots, nrm)] if nrm.dim > 1 else [g]


def test_level_conjugates_once(monkeypatch):
    # one product B^-1 (g - 1) B serves membership and the level, and none when g - 1 has
    # rank one; the norm's inverse is reused
    counts = {"times_cleared": 0, "inverse_rows": 0}
    for name in counts:
        kernel = getattr(linalg, name)

        def counted(*args, name=name, kernel=kernel):
            counts[name] += 1
            return kernel(*args)

        monkeypatch.setattr(linalg, name, counted)
    rng, roots = random.Random(81), random.Random(84)
    products = []
    for _ in range(20):
        nrm = fuzz.norm(rng)
        for g in _elements(rng, roots, nrm):
            nrm.inv_basis  # builds the norm's inverse
            counts.update(times_cleared=0, inverse_rows=0)
            filtration_level(nrm, g)
            products.append(_not_rank_one(g))
            assert counts == {"times_cleared": products[-1], "inverse_rows": 0}
    assert 0 in products and 1 in products


def test_level_scans_one_table(monkeypatch):
    # membership and the level are one scan of the slot table of B^-1 (g - 1) B, and none
    # when g - 1 has rank one
    calls = []
    scan = slots.heaviest
    monkeypatch.setattr(slots, "heaviest", lambda *args: calls.append(args) or scan(*args))
    rng, roots = random.Random(83), random.Random(85)
    scans = []
    for _ in range(20):
        nrm = fuzz.norm(rng)
        for g in _elements(rng, roots, nrm):
            for verb in (is_stabilizer_element, filtration_level):
                calls.clear()
                verb(nrm, g)
                scans.append(_not_rank_one(g))
                assert len(calls) == scans[-1]
    assert 0 in scans and 1 in scans


def test_level_boundary_on_the_standard_lattice():
    # at p = 3: g - 1 = diag(-2, 0) has size exactly 0; diag(1, 3) - 1 has size 0 too, but
    # det 3 refuses it; diag(1, 4) - 1 = diag(0, 3) has size -1, which clips to bottom
    std = SplitNorm(FieldConfig(3), 2, oracles.identity(2), (F(0), F(0)))
    assert is_stabilizer_element(std, ((-1, 0), (0, 1)))
    level = filtration_level(std, ((-1, 0), (0, 1)))
    assert not level.is_bottom and level == 0
    assert hom_norm(std, ((0, 0), (0, 2))) == 0
    assert not is_stabilizer_element(std, ((1, 0), (0, 3)))
    with pytest.raises(PreconditionError, match="requires a stabilizer element"):
        filtration_level(std, ((1, 0), (0, 3)))
    assert is_stabilizer_element(std, ((1, 0), (0, 4)))
    assert filtration_level(std, ((1, 0), (0, 4))).is_bottom


def test_non_unit_determinant_builds_no_product(monkeypatch):
    # g scaling one splitting vector by p has g - 1 of rank one and det g = 1 + phi(u) = p:
    # that one dot product refuses it, no product B^-1 (g - 1) B is built, and the norm's
    # inverse is not read
    rng = random.Random(82)
    cases = []
    for n in range(1, 7):
        for p in fuzz.PRIMES:
            nrm = fuzz.norm(rng, n, p)
            i = rng.randrange(n)
            scale = tuple(tuple(F(p if r == c == i else int(r == c)) for c in range(n)) for r in range(n))
            g = linalg.matmul(nrm.basis, linalg.matmul(scale, linalg.inverse(nrm.basis)))
            assert pval(linalg.det(g), p) == 1
            cases.append((SplitNorm(nrm.cfg, n, nrm.basis, nrm.values), g))
    counts = {"times_cleared": 0, "inverse_rows": 0}
    for name in counts:
        kernel = getattr(linalg, name)

        def counted(*args, name=name, kernel=kernel):
            counts[name] += 1
            return kernel(*args)

        monkeypatch.setattr(linalg, name, counted)
    for nrm, g in cases:
        assert not is_stabilizer_element(nrm, g)
        with pytest.raises(PreconditionError, match="requires a stabilizer element"):
            filtration_level(nrm, g)
    assert counts == {"times_cleared": 0, "inverse_rows": 0}


def test_members_take_no_determinant(monkeypatch):
    # on the special fiber a member needs neither det g nor an inverse: at level < 0 it is a
    # unit, at level 0 its Levi blocks are tested mod p, and for g - 1 = u phi det g is the
    # dot product 1 + phi(u)
    rng, roots = random.Random(87), random.Random(88)
    cases = []
    for p in fuzz.PRIMES:
        nrm = fuzz.norm(rng, 16, p)
        nrm._row_side  # builds the norm's inverse and its row side
        scalar = tuple(tuple(1 + p if i == j else 0 for j in range(16)) for i in range(16))
        cases += [(nrm, g) for g in (*_elements(rng, roots, nrm), scalar)]
    calls = []
    kernel = linalg.inverse_rows
    monkeypatch.setattr(linalg, "inverse_rows", lambda cols: calls.append(cols) or kernel(cols))
    levels = []
    for nrm, g in cases:
        assert is_stabilizer_element(nrm, g)
        levels.append(filtration_level(nrm, g))
    assert calls == []
    # the products of 2n factors reach level 0, and the scalars 1 + p lie at bottom
    assert all(level == 0 for level in levels[::3]) and all(x.is_bottom for x in levels[2::3])
