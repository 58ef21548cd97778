import math
import random
from fractions import Fraction

import pytest

from padicnorm import FieldConfig, SplitNorm
from padicnorm.base_change import (
    VirtualExtension,
    centralizer_dim,
    chi_weights,
    extension_value_classes,
    graded_ball_dims,
    is_lattice_norm_over,
    kernel_dim,
)
from padicnorm.errors import PreconditionError
from padicnorm.norms import act, ball_basis, ball_basis_open
from padicnorm.stabilizer import fiber_structure, graded_dims

import fuzz
import oracles

F = Fraction
CFG2 = FieldConfig(2)
ALPHA0 = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(1, 2)))
BETA = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(0)))


def test_chi_weights_examples():
    assert chi_weights(ALPHA0) == {F(0): 1, F(1, 2): 1}
    assert chi_weights(BETA) == {F(0): 2}
    third = SplitNorm(CFG2, 3, oracles.identity(3), (F(0), F(1, 3), F(1, 3)))
    assert chi_weights(third) == {F(0): 1, F(1, 3): 2}


def test_chi_weights_invariance():
    rng = random.Random(81)
    for _ in range(100):
        nrm = fuzz.norm(rng)
        weights = chi_weights(nrm)
        assert sum(weights.values()) == nrm.dim
        g = fuzz.elementary_product(rng, nrm.dim, nrm.cfg.prime)
        assert chi_weights(act(g, nrm)) == weights
        shifted = SplitNorm(
            nrm.cfg,
            nrm.dim,
            nrm.basis,
            tuple(v + rng.randint(-3, 3) for v in nrm.values),
        )
        assert chi_weights(shifted) == weights


def test_extension_classes_shift_with_the_values():
    # refining by e is a homomorphism Q -> Q/(1/e)Z: shifting every value
    # by c shifts each class by c modulo 1/e and keeps its multiplicity
    rng = random.Random(82)
    for _ in range(100):
        nrm = fuzz.norm(rng)
        e = rng.choice((1, 2, 3))
        c = fuzz.rational(rng)
        shifted = SplitNorm(nrm.cfg, nrm.dim, nrm.basis, tuple(v + c for v in nrm.values))
        moved = {}
        for key, m in extension_value_classes(nrm, VirtualExtension(e)).items():
            k = (key + c) * e
            moved[(k - math.floor(k)) / e] = m
        assert extension_value_classes(shifted, VirtualExtension(e)) == moved


def test_centralizer_examples():
    assert centralizer_dim(ALPHA0) == 2
    assert centralizer_dim(BETA) == 4
    mixed = SplitNorm(CFG2, 3, oracles.identity(3), (F(0), F(0), F(1, 2)))
    assert centralizer_dim(mixed) == 5


def test_kernel_examples():
    assert kernel_dim(ALPHA0) == 2
    assert kernel_dim(ALPHA0) + centralizer_dim(ALPHA0) == 4
    assert kernel_dim(BETA) == 0
    three = SplitNorm(FieldConfig(3), 3, oracles.identity(3), (F(0), F(1, 3), F(2, 3)))
    assert kernel_dim(three) == 6
    assert kernel_dim(three) + centralizer_dim(three) == 9


def test_dimension_identity():
    rng = random.Random(82)
    for _ in range(200):
        nrm = fuzz.norm(rng)
        assert kernel_dim(nrm) + centralizer_dim(nrm) == nrm.dim**2
        assert kernel_dim(nrm) == fiber_structure(nrm).unipotent_dim
        # the strictly negative slot classes, counted slot by slot
        assert kernel_dim(nrm) == sum(v for k, v in graded_dims(nrm).class_dims.items() if k < 0)


def test_graded_ball_dims_examples():
    assert graded_ball_dims(ALPHA0, 0) == {F(0): (1, 1), F(-1, 2): (1, 1)}
    assert graded_ball_dims(BETA, 0) == {F(0): (2, 2)}
    # only the level mod 1 matters, so a far level costs no more than level 0
    assert graded_ball_dims(ALPHA0, -100000) == graded_ball_dims(ALPHA0, 0)
    # the balls scale a column by 2^100000, past the digit guard, but the index is an exponent
    far = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(100000)))
    assert graded_ball_dims(far, 0) == {F(0): (2, 2)}
    assert graded_ball_dims(far, F(1, 2)) == {F(-1, 2): (2, 2)}


def test_graded_ball_dims_agree():
    rng = random.Random(83)
    for _ in range(150):
        nrm = fuzz.norm(rng)
        for g in nrm.value_classes + (fuzz.rational(rng, 3, 4),):
            table = graded_ball_dims(nrm, g)
            assert graded_ball_dims(nrm, g - 7) == table
            assert all(lhs == rhs for lhs, rhs in table.values())
            # lhs against the index of the open ball in the closed one, from the lattices
            for d, (lhs, _) in table.items():
                opened, closed = (
                    oracles.valuation(oracles.det(ball(nrm, g + d).matrix), nrm.cfg.prime)
                    for ball in (ball_basis_open, ball_basis)
                )
                assert lhs == opened - closed
            assert sum(lhs for lhs, _ in table.values()) == nrm.dim
            assert all(-1 < k <= 0 for k in table)


def test_virtual_extension_validation():
    assert VirtualExtension().ram_index is None
    for bad in (0, -1, F(1, 2)):
        with pytest.raises(PreconditionError):
            VirtualExtension(bad)


def test_bool_index_rejected():
    with pytest.raises(PreconditionError):
        VirtualExtension(True)


def test_extension_value_classes():
    # unramified base change leaves everything unchanged
    assert extension_value_classes(ALPHA0, VirtualExtension(1)) == chi_weights(ALPHA0)
    # a surjective value group collapses all classes
    assert extension_value_classes(ALPHA0, VirtualExtension()) == {F(0): 2}
    assert is_lattice_norm_over(ALPHA0, VirtualExtension())
    # index 2 absorbs half-integral values
    assert extension_value_classes(ALPHA0, VirtualExtension(2)) == {F(0): 2}
    assert is_lattice_norm_over(ALPHA0, VirtualExtension(2))
    # index 3 does not
    assert extension_value_classes(ALPHA0, VirtualExtension(3)) == {F(0): 1, F(1, 6): 1}
    assert not is_lattice_norm_over(ALPHA0, VirtualExtension(3))
    assert not is_lattice_norm_over(ALPHA0, VirtualExtension(1))


def test_extension_collapse_property():
    rng = random.Random(84)
    for _ in range(100):
        nrm = fuzz.norm(rng)
        assert extension_value_classes(nrm, VirtualExtension(1)) == chi_weights(nrm)
        if nrm.dim:
            assert extension_value_classes(nrm, VirtualExtension()) == {F(0): nrm.dim}
        assert is_lattice_norm_over(nrm, VirtualExtension())
        # refine by the lcm of the value denominators: always collapses
        e = math.lcm(*(v.denominator for v in nrm.values)) if nrm.dim else 1
        assert is_lattice_norm_over(nrm, VirtualExtension(e))
        classes = extension_value_classes(nrm, VirtualExtension(e))
        assert classes == {F(0): nrm.dim}
