import random
from fractions import Fraction

import pytest

from padicnorm import FieldConfig, SplitNorm, linalg
from padicnorm.building import (
    apartment_coords,
    cartan_position,
    homothetic,
    norm_from_apartment,
    point_type,
    torus_translation,
    tree_neighbors,
)
from padicnorm.errors import (
    DimensionMismatchError,
    PreconditionError,
    SingularMatrixError,
)
from padicnorm.norms import LatticeBasis, act, dual, equals, evaluate, lattice_norm, op_size, tensor

import fuzz
import oracles

F = Fraction
CFG2 = FieldConfig(2)
ALPHA0 = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(1, 2)))
BETA = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(0)))


def test_norm_from_apartment_examples():
    assert equals(norm_from_apartment((0, 0), CFG2), BETA)
    assert equals(norm_from_apartment((F(0), F(1, 2)), CFG2), ALPHA0)
    two_e1 = lattice_norm(LatticeBasis(CFG2, linalg.transpose([(2, 0), (0, 1)])))
    assert equals(norm_from_apartment((1, 0), CFG2), two_e1)


def test_apartment_coords_examples():
    assert apartment_coords(ALPHA0) == (F(0), F(1, 2))
    lat = lattice_norm(LatticeBasis(CFG2, linalg.transpose([(1, 0), (0, 2)])))
    assert apartment_coords(lat) == (F(0), F(1))
    # a frame that fails to split the norm yields None
    assert apartment_coords(ALPHA0, frame=linalg.transpose([(1, 1), (0, 1)])) is None


def test_apartment_coords_bad_frames():
    with pytest.raises(SingularMatrixError):
        apartment_coords(ALPHA0, frame=((1, 1), (1, 1)))
    with pytest.raises(SingularMatrixError):
        apartment_coords(ALPHA0, frame=((1, 0), (0, 0)))
    with pytest.raises(DimensionMismatchError):
        apartment_coords(ALPHA0, frame=oracles.identity(3))


def test_torus_translation_examples():
    assert torus_translation(oracles.identity(3), CFG2) == (0, 0, 0)
    assert torus_translation(((4, 0), (0, 1)), CFG2) == (F(2), F(0))
    assert torus_translation(((F(1, 2), 0), (0, 1)), CFG2) == (F(-1), F(0))
    assert torus_translation((("3/8", 0, 0), (0, 12, 0), (0, 0, -1)), CFG2) == (-3, 2, 0)
    # rows in order, each checked off the diagonal, then on it
    for t, message in (
        (((1, 1), (0, 1)), "diagonal"),
        (((1, 0), (0, 0)), "invertible"),
        (((0, 0), (1, 1)), "invertible"),
        (((1, 0), (1, 0)), "diagonal"),
    ):
        with pytest.raises(PreconditionError, match=f"torus element must be {message}"):
            torus_translation(t, CFG2)
    with pytest.raises(DimensionMismatchError, match="torus element must be square"):
        torus_translation(((1, 0),), CFG2)


def test_point_type_examples():
    assert point_type(BETA) == (2,)
    assert point_type(ALPHA0) == (1, 1)
    mixed = SplitNorm(CFG2, 3, oracles.identity(3), (F(0), F(0), F(1, 2)))
    assert point_type(mixed) == (2, 1)


def test_point_type_invariance():
    rng = random.Random(91)
    for _ in range(150):
        nrm = fuzz.norm(rng)
        parts = point_type(nrm)
        assert sum(parts) == nrm.dim
        assert all(part > 0 for part in parts)
        g = fuzz.elementary_product(rng, nrm.dim, nrm.cfg.prime)
        assert point_type(act(g, nrm)) == parts


def test_tree_neighbors_frozen():
    nbrs = tree_neighbors(BETA)
    assert len(nbrs) == 3
    expected = [
        lattice_norm(LatticeBasis(CFG2, linalg.transpose([(2, 0), (0, 1)]))),
        lattice_norm(LatticeBasis(CFG2, linalg.transpose([(1, 0), (0, 2)]))),
        lattice_norm(LatticeBasis(CFG2, linalg.transpose([(1, 1), (0, 2)]))),
    ]
    for got, want in zip(nbrs, expected):
        assert equals(got, want)
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1 :]:
            assert not equals(a, b)


def test_tree_neighbors_properties():
    for p in (2, 3, 5):
        origin = SplitNorm(FieldConfig(p), 2, oracles.identity(2), (F(0), F(0)))
        nbrs = tree_neighbors(origin)
        assert len(nbrs) == p + 1
        for i, a in enumerate(nbrs):
            assert cartan_position(origin, a) == (F(1), F(0))
            for b in nbrs[i + 1 :]:
                assert not equals(a, b)
        # stepping back from a neighbor reaches the origin up to homothety
        back = tree_neighbors(nbrs[0])
        assert sum(homothetic(x, origin) for x in back) == 1


def test_tree_neighbors_shifted_vertex():
    vertex = SplitNorm(CFG2, 2, oracles.identity(2), (F(1, 2), F(1, 2)))
    nbrs = tree_neighbors(vertex)
    assert len(nbrs) == 3
    for a in nbrs:
        assert a.value_classes == (F(1, 2),)
        assert cartan_position(vertex, a) == (F(1), F(0))


def test_tree_neighbors_preconditions():
    with pytest.raises(PreconditionError):
        tree_neighbors(ALPHA0)
    with pytest.raises(PreconditionError):
        tree_neighbors(SplitNorm(CFG2, 3, oracles.identity(3), (F(0),) * 3))
    # the library refuses a prime whose p + 1 neighbors it would build, before its other
    # checks: a vertex at p = 1009 would have 1,010 of them
    big = FieldConfig(1009)
    for nrm in (
        SplitNorm(big, 2, oracles.identity(2), (F(0), F(0))),
        SplitNorm(big, 3, oracles.identity(3), (F(0),) * 3),
    ):
        with pytest.raises(PreconditionError, match="tree needs a prime of at most 1000"):
            tree_neighbors(nrm)


def test_homothetic_examples():
    shifted = SplitNorm(CFG2, 2, oracles.identity(2), (F(1), F(1)))
    assert homothetic(BETA, shifted)
    assert homothetic(BETA, BETA)
    assert not homothetic(BETA, ALPHA0)
    half = SplitNorm(CFG2, 2, oracles.identity(2), (F(1, 2), F(1, 2)))
    assert not homothetic(BETA, half)
    # norms over other primes or on other dimensions are never homothetic, in either order
    for other in (SplitNorm(FieldConfig(3), 2, BETA.basis, BETA.values),
                  SplitNorm(CFG2, 3, oracles.identity(3), (F(0),) * 3)):
        assert not homothetic(BETA, other) and not homothetic(other, BETA)


def test_homothetic_on_operation_built_norms():
    """Norms from act, dual and tensor hold only cleared forms, and homothetic reads one
    slot table and its determinant from them; it must agree with the common-basis path: a
    and b are homothetic iff cartan_position(a, b) is one integer repeated, and the two
    operator sizes span the relative position."""
    rng = random.Random(131)
    for p in fuzz.PRIMES:
        for _ in range(8):
            n = rng.randint(1, 3)
            base = fuzz.norm(rng, n=n, p=p)
            g = fuzz.elementary_product(rng, n, p)
            small = fuzz.norm(rng, n=rng.randint(1, 2), p=p)
            i, shift = rng.randrange(n), rng.choice((-2, -1, 1, 2))
            perturbed = tuple(v + fuzz.rational(rng) * (k == i) for k, v in enumerate(base.values))
            for kind, values in (
                ("integer", tuple(v + shift for v in base.values)),
                ("half", tuple(v + F(1, 2) for v in base.values)),
                ("perturbed", perturbed),
            ):
                other = SplitNorm(base.cfg, n, base.basis, values)
                # g and g @ s, with s fixing other, move it to one norm through two bases
                moved = act(linalg.matmul(g, fuzz.stabilizer_element(rng, other)), other)
                for build in (lambda x: x, dual, lambda x: tensor(x, small)):
                    a, b = build(act(g, base)), build(moved)
                    answer = homothetic(a, b)
                    assert "basis" not in vars(a) and "basis" not in vars(b)
                    position = cartan_position(a, b)
                    assert answer == (len(set(position)) == 1 and position[0].denominator == 1)
                    spread = op_size(a, b).mag + op_size(b, a).mag
                    assert spread == max(position) - min(position)
                    if kind != "perturbed":
                        assert answer == (kind == "integer")


def test_apartment_round_trip():
    rng = random.Random(92)
    for _ in range(150):
        n = rng.randint(1, 5)
        cfg = FieldConfig(rng.choice(fuzz.PRIMES))
        x = fuzz.values(rng, n)
        assert apartment_coords(norm_from_apartment(x, cfg)) == x


def test_torus_equivariance():
    rng = random.Random(93)
    for _ in range(150):
        n = rng.randint(1, 4)
        cfg = FieldConfig(rng.choice(fuzz.PRIMES))
        x = fuzz.values(rng, n)
        t = fuzz.diagonal(rng, n, cfg.prime)
        moved = act(t, norm_from_apartment(x, cfg))
        shift = torus_translation(t, cfg)
        assert apartment_coords(moved) == tuple(a + s for a, s in zip(x, shift))


def test_frame_equivariance():
    rng = random.Random(94)
    splits = 0
    for _ in range(100):
        n = rng.randint(1, 4)
        cfg = FieldConfig(rng.choice(fuzz.PRIMES))
        x = fuzz.values(rng, n)
        g = fuzz.invertible(rng, n)
        nrm = act(g, norm_from_apartment(x, cfg))
        assert apartment_coords(nrm, frame=g) == x
        # a random frame mostly does not split the norm: the answer is None exactly when the
        # frame with the sizes of its columns fails the two-sided equality
        frame = fuzz.invertible(rng, n)
        sizes = tuple(evaluate(nrm, c).mag for c in linalg.transpose(frame))
        coords = apartment_coords(nrm, frame=frame)
        assert (coords is None) == (not equals(SplitNorm(cfg, n, frame, sizes), nrm))
        assert coords in (None, sizes)
        splits += coords is not None
    assert 0 < splits < 50
