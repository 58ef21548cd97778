"""Acceptance suite.

One test per criterion, named so that ``pytest -v`` shows a single
pass/fail line for each; with ``-s`` (or ``-rP``) every criterion also
prints an ``ACCEPTANCE nn name: PASS`` line.  All checks are exact
rational arithmetic with zero tolerance.
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction

from padicnorm import FieldConfig, SplitNorm, io
from padicnorm.base_change import centralizer_dim, graded_ball_dims, kernel_dim
from padicnorm.building import (
    apartment_coords,
    cartan_position,
    homothetic,
    norm_from_apartment,
    torus_translation,
    tree_neighbors,
)
from padicnorm.cli import main
from padicnorm.norms import (
    act,
    common_splitting_basis,
    equals,
    evaluate,
    tensor,
)
from padicnorm.splittings import norm_from_pair, pair_from_norm, verify_splitting
from padicnorm.stabilizer import (
    fiber_structure,
    graded_dims,
    is_stabilizer_element,
)
from padicnorm.valuation import val

import fuzz
import oracles

F = Fraction


@contextmanager
def criterion(num, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:02d} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {num:02d} {name}: PASS")


def test_criterion_01_norm_axioms_and_tensor():
    with criterion(1, "norm axioms and tensor cross-norm"):
        rng = random.Random(1001)
        for _ in range(500):
            p = rng.choice(fuzz.PRIMES)
            a = fuzz.norm(rng, p=p)
            b = fuzz.norm(rng, p=p)
            for nrm in (a, b):
                v = fuzz.vector(rng, nrm.dim)
                w = fuzz.vector(rng, nrm.dim)
                lam = fuzz.rational(rng)
                while lam == 0:
                    lam = fuzz.rational(rng)
                s = tuple(x + y for x, y in zip(v, w))
                assert evaluate(nrm, s) <= max(evaluate(nrm, v), evaluate(nrm, w))
                scaled = tuple(lam * x for x in v)
                assert evaluate(nrm, scaled) == evaluate(nrm, v) + (-val(lam, nrm.cfg).mag)
            t = tensor(a, b)
            v = fuzz.vector(rng, a.dim)
            w = fuzz.vector(rng, b.dim)
            assert evaluate(t, oracles.kron_vec(v, w)) == evaluate(a, v) + evaluate(b, w)


def test_criterion_02_stabilizer_vs_ball_oracle():
    with criterion(2, "stabilizer membership matches ball preservation"):
        rng = random.Random(1002)
        for k in range(500):
            nrm = fuzz.norm(rng, n=rng.randint(1, 4))
            if k % 2:
                g = fuzz.elementary_product(rng, nrm.dim, nrm.cfg.prime)
            else:
                g = fuzz.stabilizer_element(rng, nrm)
            assert is_stabilizer_element(nrm, g) == oracles.preserves_all_balls(nrm, g)


def test_criterion_03_dimension_counts():
    with criterion(3, "kernel + centralizer and graded totals equal n^2"):
        rng = random.Random(1003)
        for _ in range(1000):
            nrm = fuzz.norm(rng)
            n2 = nrm.dim**2
            assert kernel_dim(nrm) + centralizer_dim(nrm) == n2
            assert graded_dims(nrm).total == n2
            assert sum(graded_dims(nrm).class_dims.values()) == n2


def test_criterion_04_iwahori_cross_check():
    with criterion(4, "Iwahori and hyperspecial fibers"):
        iwahori = SplitNorm(FieldConfig(2), 2, oracles.identity(2), (F(0), F(1, 2)))
        fs = fiber_structure(iwahori)
        assert fs.levi_blocks == (1, 1)
        assert fs.unipotent_dim == 2
        assert fs.total_dim == 4
        for n in range(1, 6):
            fs = fiber_structure(
                SplitNorm(FieldConfig(3), n, oracles.identity(n), (F(0),) * n)
            )
            assert fs.levi_blocks == (n,)
            assert fs.unipotent_dim == 0
            assert fs.total_dim == n * n


def test_criterion_05_common_basis_and_smith():
    with criterion(5, "common splitting basis and elementary divisors"):
        rng = random.Random(1005)
        for k in range(500):
            p = rng.choice(fuzz.PRIMES)
            n = rng.randint(1, 4)
            if k % 2:
                a = fuzz.norm(rng, n=n, p=p)
                b = fuzz.norm(rng, n=n, p=p)
            else:
                a = fuzz.integer_norm(rng, n=n, p=p)
                b = fuzz.integer_norm(rng, n=n, p=p)
            basis, a_vals, b_vals = common_splitting_basis(a, b)
            cfg = a.cfg
            assert equals(SplitNorm(cfg, n, basis, a_vals), a)
            assert equals(SplitNorm(cfg, n, basis, b_vals), b)
            if all(v.denominator == 1 for v in a.values + b.values):
                diffs = tuple(sorted((bv - av for av, bv in zip(a_vals, b_vals)), reverse=True))
                assert diffs == oracles.smith_cartan(a, b)
                assert diffs == cartan_position(a, b)


def test_criterion_06_apartment_round_trip():
    with criterion(6, "apartment round trip and torus equivariance"):
        rng = random.Random(1006)
        for _ in range(500):
            n = rng.randint(1, 5)
            cfg = FieldConfig(rng.choice(fuzz.PRIMES))
            x = fuzz.values(rng, n)
            nrm = norm_from_apartment(x, cfg)
            assert apartment_coords(nrm) == x
            t = fuzz.diagonal(rng, n, cfg.prime)
            shift = torus_translation(t, cfg)
            assert apartment_coords(act(t, nrm)) == tuple(
                a + s for a, s in zip(x, shift)
            )


def test_criterion_07_pair_round_trips():
    with criterion(7, "splitting pair round trips"):
        rng = random.Random(1007)
        for _ in range(1000):
            nrm = fuzz.norm(rng, n=rng.randint(1, 4))
            pair = pair_from_norm(nrm)
            assert verify_splitting(nrm, pair)
            assert equals(norm_from_pair(pair), nrm)
            again = pair_from_norm(norm_from_pair(pair))
            assert equals(norm_from_pair(again), nrm)


def test_criterion_08_graded_ball_dimensions():
    with criterion(8, "graded ball dimensions balance"):
        rng = random.Random(1008)
        for _ in range(500):
            nrm = fuzz.norm(rng)
            for g in nrm.value_classes + (fuzz.rational(rng, 3, 4),):
                table = graded_ball_dims(nrm, g)
                assert all(lhs == rhs for lhs, rhs in table.values())
                assert sum(lhs for lhs, _ in table.values()) == nrm.dim


def test_criterion_09_tree_neighbors():
    with criterion(9, "rank-2 tree neighbor counts and positions"):
        for p in (2, 3, 5):
            origin = SplitNorm(FieldConfig(p), 2, oracles.identity(2), (F(0), F(0)))
            nbrs = tree_neighbors(origin)
            assert len(nbrs) == p + 1
            for i, a in enumerate(nbrs):
                for b in nbrs[i + 1 :]:
                    assert not equals(a, b)
                assert cartan_position(origin, a) == (F(1), F(0))
                back = tree_neighbors(a)
                assert sum(homothetic(x, origin) for x in back) == 1


def _cli_battery(paths, parsed):
    import contextlib
    import io as stringio

    chunks = []

    def run(*argv):
        buf = stringio.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(list(argv))
        assert code == 0, argv
        chunks.append(f"$ {' '.join(argv)}\n{buf.getvalue()}")

    for i, path in enumerate(paths):
        doc = parsed[i]
        ones = ",".join("1" for _ in range(doc["dim"]))
        run("eval", path, "--vector", ones)
        run("ball", path, "--format", "machine")
        run("graded-dims", path)
        run("fiber", path)
        run("chi-weights", path)
        run("bc-dims", path)
        run("bc-dims", path, "--ram-index", "2", "--format", "machine")
        run("type", path)
        run("coords", path)
        run("dual", path, "--format", "machine")
        run("chain", path, "--format", "machine")
        if i + 1 < len(paths):
            nxt = parsed[i + 1]
            if (doc["prime"], doc["dim"]) == (nxt["prime"], nxt["dim"]):
                run("equals", path, paths[i + 1])
                run("cartan", path, paths[i + 1], "--format", "machine")
    return "".join(chunks)


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "CLI determinism over a fixed corpus"):
        rng = random.Random(1010)
        corpus = []
        for p in (2, 3, 5):
            s = fuzz.rational(rng, 2, 4)
            basis = fuzz.invertible(rng, 2)
            corpus.append(SplitNorm(FieldConfig(p), 2, basis, (s, s)))
        while len(corpus) < 20:
            corpus.append(fuzz.norm(rng))
        paths, parsed = [], []
        for i, nrm in enumerate(corpus):
            blob = io.dumps_machine(io.norm_to_doc(nrm))
            path = tmp_path / f"corpus_{i:02d}.json"
            path.write_text(blob, encoding="utf-8")
            paths.append(str(path))
            parsed.append(json.loads(blob))
        first = _cli_battery(paths, parsed)
        second = _cli_battery(paths, parsed)
        assert first == second
        assert len(corpus) == 20
        assert first.count("$ ") >= 20 * 11
