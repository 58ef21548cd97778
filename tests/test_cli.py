import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import padicnorm
from padicnorm import FieldConfig, SplitNorm, building, cli, io, linalg, norms
from padicnorm.cli import main

import oracles

F = Fraction
CFG2 = FieldConfig(2)


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")

    def write(name, norm):
        path = root / name
        path.write_text(io.dumps_machine(io.norm_to_doc(norm)), encoding="utf-8")
        return str(path)

    bad = root / "bad.json"
    bad.write_text('{"prime": 2}', encoding="utf-8")
    paths = {
        "alpha": write(
            "alpha.json", SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(1, 2)))
        ),
        "beta": write("beta.json", SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(0)))),
        "lat": write(
            "lat.json",
            SplitNorm(CFG2, 2, linalg.transpose([(1, 0), (0, 2)]), (F(0), F(0))),
        ),
        "bad": str(bad),
        "three": write(
            "three.json",
            SplitNorm(FieldConfig(3), 3, oracles.identity(3), (F(0), F(0), F(0))),
        ),
    }
    # documents as a shell writes them, one line each: b presents alpha in the basis (1, 0),
    # (2, 1) and c puts b's values on the other columns; std3 is the unit norm at p = 3, q
    # has a basis of determinant 2^61 - 1, singular, repeated and zerocol singular bases
    # (repeated a column of entries 2^61 - 1 twice), far the values 0 and 100000, and zero
    # the 0-dimensional norm
    lines = {
        "b": '{"basis":[["1","2"],["0","1"]],"dim":2,"prime":2,"values":["0","1/2"]}',
        "c": '{"basis":[["1","2"],["0","1"]],"dim":2,"prime":2,"values":["1/2","0"]}',
        "std3": '{"basis":[["1","0"],["0","1"]],"dim":2,"prime":3,"values":["0","0"]}',
        "q": '{"basis":[["2305843009213693951","0"],["0","1"]],"dim":2,"prime":2,'
        '"values":["0","1/2"]}',
        "singular": '{"basis":[["1","2"],["2","4"]],"dim":2,"prime":2,"values":["0","1/2"]}',
        "d3": '{"basis":[["1","0","0"],["0","1","0"],["0","0","1"]],"dim":3,"prime":2,'
        '"values":["0","1/2","1/3"]}',
        "repeated": '{"basis":[["2305843009213693951","0"],["2305843009213693951","0"]],'
        '"dim":2,"prime":2,"values":["0","1/2"]}',
        "zerocol": '{"basis":[["0","0"],["0","1"]],"dim":2,"prime":2,"values":["0","1/2"]}',
        "far": '{"basis":[["1","0"],["0","1"]],"dim":2,"prime":2,"values":["0","100000"]}',
        "zero": '{"basis":[],"dim":0,"prime":2,"values":[]}',
    }
    for name, line in lines.items():
        path = root / f"{name}.json"
        path.write_text(line + "\n", encoding="utf-8")
        paths[name] = str(path)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def resolved(docs, argv):
    """argv with each document named by its key in docs replaced by the document's path."""
    return [docs.get(arg, arg) for arg in argv]


def assert_formats(capsys, argv, text, machine):
    # text is the default format, so it is checked with and without the flag
    for fmt, want in ((), text), (("--format", "text"), text), (("--format", "machine"), machine):
        code, out, err = run(capsys, *argv, *fmt)
        assert (code, err) == (0, ""), (argv, fmt)
        assert out == want, (argv, fmt)


AT_ZERO = "0 lhs=1 rhs=1\n-1/2 lhs=1 rhs=1\n"
TRUE, FALSE = ("true\n", '{"result":true}\n'), ("false\n", '{"result":false}\n')
# (argv, text stdout, machine stdout) for every line verb and mode
LINES = [
    (("eval", "alpha", "--vector", "1,1"), "1/2\n", '{"value":"1/2"}\n'),
    (("eval", "alpha", "--vector", "0,0"), "-inf\n", '{"value":"-inf"}\n'),
    (
        ("graded-dims", "alpha"),
        "0 2\n-1/2 2\n",
        '{"classes":[["0",2],["-1/2",2]],"total":4}\n',
    ),
    (("graded-dims", "alpha", "--delta=-1/2"), "2\n", '{"class":"-1/2","dim":2}\n'),
    (("graded-dims", "alpha", "--delta", "1/4"), "0\n", '{"class":"1/4","dim":0}\n'),
    # the level counts mod 1, and is echoed as given
    (("graded-dims", "alpha", "--delta", "1/2"), "2\n", '{"class":"1/2","dim":2}\n'),
    (("graded-dims", "alpha", "--delta", "1"), "2\n", '{"class":"1","dim":2}\n'),
    (("graded-dims", "alpha", "--delta", "3/2"), "2\n", '{"class":"3/2","dim":2}\n'),
    (("graded-dims", "alpha", "--delta=-3/2"), "2\n", '{"class":"-3/2","dim":2}\n'),
    (("graded-dims", "alpha", "--delta", "7/4"), "0\n", '{"class":"7/4","dim":0}\n'),
    (("graded-dims", "alpha", "--delta=-5"), "2\n", '{"class":"-5","dim":2}\n'),
    (("chi-weights", "alpha"), "0 1\n1/2 1\n", '{"weights":[["0",1],["1/2",1]]}\n'),
    # the class verbs read the one class count of alpha: two classes of one value each give
    # one-dimensional graded pieces, a 2-dimensional kernel and Levi blocks [1,1]
    (
        ("bc-dims", "alpha"),
        "kernel=2 centralizer=2 total=4\n",
        '{"centralizer":2,"kernel":2,"total":4}\n',
    ),
    # index 1 refines no class: alpha's two classes stay apart, and it is no lattice norm
    (
        ("bc-dims", "alpha", "--ram-index", "1"),
        "ram_index=1 classes=[0:1 1/2:1] lattice_norm=false\n",
        '{"classes":[["0",1],["1/2",1]],"lattice_norm":false,"ram_index":1}\n',
    ),
    (
        ("bc-dims", "alpha", "--ram-index", "2"),
        "ram_index=2 classes=[0:2] lattice_norm=true\n",
        '{"classes":[["0",2]],"lattice_norm":true,"ram_index":2}\n',
    ),
    (
        ("bc-dims", "alpha", "--ram-index", "unbounded"),
        "ram_index=unbounded classes=[0:2] lattice_norm=true\n",
        '{"classes":[["0",2]],"lattice_norm":true,"ram_index":"unbounded"}\n',
    ),
    (
        ("bc-dims", "alpha", "--at", "0"),
        AT_ZERO,
        '{"at":"0","classes":[["0",[1,1]],["-1/2",[1,1]]]}\n',
    ),
    (
        ("bc-dims", "alpha", "--at", "5/3"),
        "-1/6 lhs=1 rhs=1\n-2/3 lhs=1 rhs=1\n",
        '{"at":"5/3","classes":[["-1/6",[1,1]],["-2/3",[1,1]]]}\n',
    ),
    # the table depends on the level mod 1 only, and must not build p^100000
    (
        ("bc-dims", "alpha", "--at=-100000"),
        AT_ZERO,
        '{"at":"-100000","classes":[["0",[1,1]],["-1/2",[1,1]]]}\n',
    ),
    (("level", "alpha", "--matrix", "1,1;0,1"), "-1/2\n", '{"level":"-1/2"}\n'),
    (("level", "alpha", "--matrix", "1,1;0,1", "--delta=-1/2"), *TRUE),
    (("level", "alpha", "--matrix", "1,1;0,1", "--delta=-1"), *FALSE),
    (
        ("fiber", "alpha"),
        "levi=[1,1] unipotent=2 total=4\n",
        '{"levi":[1,1],"total":4,"unipotent":2}\n',
    ),
    (
        ("fiber", "beta"),
        "levi=[2] unipotent=0 total=4\n",
        '{"levi":[2],"total":4,"unipotent":0}\n',
    ),
    (("coords", "alpha"), "0,1/2\n", '{"coords":["0","1/2"]}\n'),
    (("coords", "alpha", "--frame", "1,0;1,1"), "none\n", '{"coords":null}\n'),
    (("cartan", "beta", "lat"), "1,0\n", '{"position":["1","0"]}\n'),
    (("cartan", "beta", "alpha"), "1/2,0\n", '{"position":["1/2","0"]}\n'),
    (("type", "alpha"), "1,1\n", '{"type":[1,1]}\n'),
    (("type", "beta"), "2\n", '{"type":[2]}\n'),
    (
        ("translate", "--matrix", "4,0;0,1", "--prime", "2"),
        "2,0\n",
        '{"translation":["2","0"]}\n',
    ),
    (
        ("translate", "--matrix", "1/2,0;0,1", "--prime", "2"),
        "-1,0\n",
        '{"translation":["-1","0"]}\n',
    ),
    (("stab-check", "alpha", "--matrix", "1,2;0,1"), *TRUE),
    (("stab-check", "alpha", "--matrix", "2,0;0,1"), *FALSE),
    (("equals", "alpha", "beta"), *FALSE),
    (("equals", "alpha", "alpha"), *TRUE),
]


def test_frozen_lines(docs, capsys):
    for argv, text, machine in LINES:
        assert_formats(capsys, resolved(docs, argv), text, machine)


IDENTITY4 = '"basis":[["1","0","0","0"],["0","1","0","0"],["0","0","1","0"],["0","0","0","1"]]'
# (argv, machine stdout); the text form is the same document indented by two
DOCUMENTS = [
    (("ball", "alpha"), '{"dim":2,"matrix":[["1","0"],["0","2"]],"prime":2}\n'),
    (("ball", "alpha", "--open"), '{"dim":2,"matrix":[["2","0"],["0","2"]],"prime":2}\n'),
    (
        ("ball", "alpha", "--at", "3/2"),
        '{"dim":2,"matrix":[["1/2","0"],["0","1/2"]],"prime":2}\n',
    ),
    (
        ("apartment", "--vector", "0,1/2", "--prime", "2"),
        '{"basis":[["1","0"],["0","1"]],"dim":2,"prime":2,"values":["0","1/2"]}\n',
    ),
    (
        ("dual", "alpha"),
        '{"basis":[["1","0"],["0","1"]],"dim":2,"prime":2,"values":["0","-1/2"]}\n',
    ),
    (
        ("act", "beta", "--matrix", "2,0;0,1"),
        '{"basis":[["2","0"],["0","1"]],"dim":2,"prime":2,"values":["0","0"]}\n',
    ),
    (
        ("restrict", "alpha", "--span", "1,0"),
        '{"basis":[["1"]],"dim":1,"prime":2,"values":["0"]}\n',
    ),
    (
        ("quotient", "alpha", "--span", "1,0"),
        '{"basis":[["1"]],"dim":1,"prime":2,"values":["1/2"]}\n',
    ),
    (
        ("chain", "alpha"),
        '{"classes":["0","1/2"],"dim":2,'
        '"lattices":[[["1","0"],["0","2"]],[["1","0"],["0","1"]]],"prime":2}\n',
    ),
    (
        ("tensor", "alpha", "beta"),
        "{" + IDENTITY4 + ',"dim":4,"prime":2,"values":["0","0","1/2","1/2"]}\n',
    ),
    (
        ("sum", "alpha", "beta"),
        "{" + IDENTITY4 + ',"dim":4,"prime":2,"values":["0","1/2","0","0"]}\n',
    ),
    (
        ("tree", "beta"),
        '{"neighbors":['
        '{"basis":[["2","0"],["0","1"]],"dim":2,"prime":2,"values":["0","0"]},'
        '{"basis":[["1","0"],["0","2"]],"dim":2,"prime":2,"values":["0","0"]},'
        '{"basis":[["1","1"],["0","2"]],"dim":2,"prime":2,"values":["0","0"]}]}\n',
    ),
]


def test_frozen_documents(docs, capsys):
    for argv, machine in DOCUMENTS:
        text = json.dumps(json.loads(machine), sort_keys=True, indent=2) + "\n"
        assert_formats(capsys, resolved(docs, argv), text, machine)


SINGULAR = "error: matrix is singular\n"
OUTSIDE = "error: filtration level requires a stabilizer element\n"
SIZE = "matrix must be 2x2"
RAGGED = "error: ragged matrix\n"
ROWS = "span matrix must have 2 rows, got"
TOO_MANY = "more spanning columns than the dimension allows"
EMPTY = '"basis":[],"dim":0,"prime":2,"values":[]'
Q = "2305843009213693951"  # 2^61 - 1, the prime linalg.invertible reads determinants modulo
# LINES, DOCUMENTS and RUNS are the CLI's contract, error exits included: every in-process
# run whose bytes carry no temporary path and no interpreter-dependent text is a row.  What
# stays outside them: missing or unreadable files and argparse usage errors, whose messages
# carry a path or the interpreter's text, the runs in a child process, the refusals held to
# a time limit (test_cli_fuzz.py) and the tests that count calls.  test_tree_output,
# test_machine_payloads, test_determinism, test_module_entry_point and
# test_output_beyond_digit_limit re-check runs that these tables or test_cli_fuzz.py also pin.
# (argv, exit code, stdout, stderr) of one run each, a document named by its key in docs; a
# run another test makes with the same argv and bytes is named in a comment instead
RUNS = [
    # equals decides the norm, not the presentation: alpha and b present one norm in two
    # bases, c puts the values of b on the other columns; norms over two primes exit 2
    (("equals", "alpha", "b"), 0, "true\n", ""),
    (("equals", "alpha", "c"), 0, "false\n", ""),
    (("equals", "alpha", "three"), 2, "", "error: prime mismatch: 2 vs 3\n"),
    # coords asks the same splitting test of a frame: b's basis splits alpha at the sizes of
    # its columns, while the frame (1, 1), (0, 1) does not split alpha (test_frozen_lines)
    (("coords", "alpha", "--frame", "1,2;0,1"), 0, "0,1/2\n", ""),
    # the splitting test reads leading residues mod p, class by class: on beta, the unit
    # norm at p = 2 with one class of two values, (1, 1), (1, -1) are independent but agree
    # mod 2, (1, 0), (1, 1) split it, and a singular frame exits 2 with one error line
    (("coords", "beta", "--frame", "1,1;1,-1"), 0, "none\n", ""),
    (("coords", "beta", "--frame", "1,1;0,1"), 0, "0,0\n", ""),
    (("coords", "beta", "--frame", "1,1;1,1"), 2, "", SINGULAR),
    # cartan inverts only the first document and forms no common basis: both of its checks
    # read column operations on unit rows; act proves g invertible modulo a prime and
    # inverts nothing, yet a singular g still exits 2 with one error line
    (("cartan", "alpha", "c"), 0, "1/2,-1/2\n", ""),
    (("act", "alpha", "--matrix", "1,2;2,4"), 2, "", SINGULAR),
    # every verb taking a group element refuses a 3x3 matrix on a 2-dim norm by its size
    # first: before the determinant 2, not a 2-adic unit, could answer false, and before a
    # singular one could be refused
    (("stab-check", "alpha", "--matrix", "2,0,0;0,1,0;0,0,1"), 2, "", f"error: {SIZE}\n"),
    (("level", "alpha", "--matrix", "2,0,0;0,1,0;0,0,1"), 2, "", f"error: {SIZE}\n"),
    (("stab-check", "alpha", "--matrix", "1,1,0;1,1,0;0,0,1"), 2, "", f"error: {SIZE}\n"),
    (("level", "alpha", "--matrix", "1,1,0;1,1,0;0,0,1"), 2, "", f"error: {SIZE}\n"),
    (("act", "alpha", "--matrix", "1,1,0;1,1,0;0,0,1"), 2, "", f"error: acting {SIZE}\n"),
    # membership and the level read one table of B^-1 (g - 1) B: members at levels -1/2 and
    # bottom, a --delta check, two non-members (size 1/2 and det 2), and a level of a
    # non-member exits 2 with one error line
    (("stab-check", "alpha", "--matrix", "1,0;2,1"), 0, "true\n", ""),
    (("level", "alpha", "--matrix", "1,0;2,1"), 0, "-1/2\n", ""),
    (("level", "alpha", "--matrix", "1,2;0,1"), 0, "-inf\n", ""),
    (("level", "alpha", "--matrix", "1,0;2,1", "--delta=-1/2"), 0, "true\n", ""),
    (("stab-check", "alpha", "--matrix", "1,0;1,1"), 0, "false\n", ""),
    (("stab-check", "alpha", "--matrix", "1,0;0,2"), 0, "false\n", ""),
    (("level", "alpha", "--matrix", "1,0;1,1"), 2, "", OUTSIDE),
    # every g - 1 above has rank one and is sized from its two factors; these have rank two
    # and take the one table of B^-1 (g - 1) B: a member at level -1/2, the scalar 3 at
    # bottom, a member of determinant 17, and a non-member of unit determinant whose level
    # exits 2 with one error line.  On beta, the unit norm at p = 2, a g of level 0 is a
    # member exactly when its Levi block g mod 2 is nonsingular: (1, 1), (1, 0) is, at level
    # 0, and (1, 1), (1, 3) of det 2 is not; 1 + 2 (E_12 + E_21) lies at bottom, and the
    # singular (2, 2), (2, 2) exits 2 with one error line
    (("stab-check", "alpha", "--matrix", "3,0;2,3"), 0, "true\n", ""),
    (("level", "alpha", "--matrix", "3,0;2,3"), 0, "-1/2\n", ""),
    (("level", "alpha", "--matrix", "3,0;0,3"), 0, "-inf\n", ""),
    (("level", "alpha", "--matrix", "5,4;2,5"), 0, "-1/2\n", ""),
    (("stab-check", "alpha", "--matrix", "1,1;1,2"), 0, "false\n", ""),
    (("stab-check", "beta", "--matrix", "1,1;1,0"), 0, "true\n", ""),
    (("level", "beta", "--matrix", "1,1;1,0"), 0, "0\n", ""),
    (("stab-check", "beta", "--matrix", "1,1;1,3"), 0, "false\n", ""),
    (("level", "beta", "--matrix", "1,2;2,1"), 0, "-inf\n", ""),
    (("level", "alpha", "--matrix", "1,1;1,2"), 2, "", OUTSIDE),
    (("stab-check", "beta", "--matrix", "2,2;2,2"), 2, "", SINGULAR),
    # eval reads the heaviest coordinates first and stops at the first row that cannot win:
    # sizes on either row, on both, and at the zero vector (test_frozen_lines); a short
    # vector exits 2 with one error line
    (("eval", "alpha", "--vector", "1,0"), 0, "0\n", ""),
    (("eval", "alpha", "--vector", "0,4"), 0, "-3/2\n", ""),
    (("eval", "alpha", "--vector", "2,1"), 0, "1/2\n", ""),
    (("eval", "alpha", "--vector", "1"), 2, "", "error: vector has length 1, norm has dim 2\n"),
    # restrict and quotient read the span in one pass and quotient presents the image in
    # unit columns, also with two span columns, non-trivial column operations and a row
    # never pivoted; translate reads the torus element's diagonal off its cleared columns,
    # and a matrix that is not diagonal exits 2 with one error line
    (
        ("restrict", "alpha", "--span", "1,1", "--format", "machine"),
        0,
        '{"basis":[["1"]],"dim":1,"prime":2,"values":["1/2"]}\n',
        "",
    ),
    (
        ("quotient", "alpha", "--span", "1,1", "--format", "machine"),
        0,
        '{"basis":[["1"]],"dim":1,"prime":2,"values":["0"]}\n',
        "",
    ),
    (
        ("restrict", "d3", "--span", "1,1,0;0,2,1", "--format", "machine"),
        0,
        '{"basis":[["1","0"],["-2","1"]],"dim":2,"prime":2,"values":["1/2","1/3"]}\n',
        "",
    ),
    (
        ("quotient", "d3", "--span", "1,1,0;0,2,1", "--format", "machine"),
        0,
        '{"basis":[["1"]],"dim":1,"prime":2,"values":["0"]}\n',
        "",
    ),
    (("translate", "--matrix", "4,0;0,1/3", "--prime", "2"), 0, "2,0\n", ""),
    (
        ("translate", "--matrix", "4,0;0,1/3", "--prime", "2", "--format", "machine"),
        0,
        '{"translation":["2","0"]}\n',
        "",
    ),
    (
        ("translate", "--matrix", "4,1;0,1", "--prime", "2"),
        2,
        "",
        "error: torus element must be diagonal\n",
    ),
    # an empty span restricts to the 0-dimensional norm and quotients by nothing, also on
    # the 0-dimensional norm itself, whose position relative to itself is the empty line
    (("restrict", "alpha", "--span", "", "--format", "machine"), 0, f"{{{EMPTY}}}\n", ""),
    (
        ("quotient", "alpha", "--span", "", "--format", "machine"),
        0,
        '{"basis":[["1","0"],["0","1"]],"dim":2,"prime":2,"values":["0","1/2"]}\n',
        "",
    ),
    (
        ("quotient", "lat", "--span", "", "--format", "machine"),
        0,
        '{"basis":[["1","0"],["0","1"]],"dim":2,"prime":2,"values":["0","0"]}\n',
        "",
    ),
    (("restrict", "zero", "--span", "", "--format", "machine"), 0, f"{{{EMPTY}}}\n", ""),
    (("quotient", "zero", "--span", "", "--format", "machine"), 0, f"{{{EMPTY}}}\n", ""),
    (("cartan", "zero", "zero"), 0, "\n", ""),
    # span columns of the wrong length, or more of them than the dimension, exit 2
    (("restrict", "alpha", "--span", "1,0,0"), 2, "", f"error: {ROWS} 3\n"),
    (("quotient", "alpha", "--span", "1,0,0"), 2, "", f"error: {ROWS} 3\n"),
    (("restrict", "alpha", "--span", "1;0"), 2, "", f"error: {ROWS} 1\n"),
    (("quotient", "alpha", "--span", "1;0"), 2, "", f"error: {ROWS} 1\n"),
    (("restrict", "alpha", "--span", "1,0;0,1;1,1"), 2, "", f"error: {TOO_MANY}\n"),
    (("quotient", "alpha", "--span", "1,0;0,1;1,1"), 2, "", f"error: {TOO_MANY}\n"),
    # every matrix flag is only split in the CLI and read by the library, which refuses a
    # ragged matrix with one error line
    (("act", "alpha", "--matrix", "1,0;1"), 2, "", RAGGED),
    (("stab-check", "alpha", "--matrix", "1,0;1"), 2, "", RAGGED),
    (("level", "alpha", "--matrix", "1,0;1"), 2, "", RAGGED),
    (("translate", "--prime", "2", "--matrix", "1,0;1"), 2, "", RAGGED),
    (("coords", "alpha", "--frame", "1,0;1"), 2, "", RAGGED),
    (("restrict", "alpha", "--span", "1,0;1"), 2, "", RAGGED),
    (("quotient", "alpha", "--span", "1,0;1"), 2, "", RAGGED),
    # values 0 and 100000 scale a ball by 2^100000, but the ball index and the relative
    # position are small numbers: only chain, which prints the balls, is refused
    (("bc-dims", "far", "--at", "0"), 0, "0 lhs=2 rhs=2\n", ""),
    (("cartan", "far", "beta"), 0, "0,-100000\n", ""),
    (("chain", "far"), 2, "", "error: result has a rational too large to print\n"),
    # the --at and --ram-index tables of bc-dims together, and tree on a vertex of two value
    # classes, exit 2; a document missing its fields exits 1
    (
        ("bc-dims", "alpha", "--at", "0", "--ram-index", "2"),
        2,
        "",
        "error: --at and --ram-index cannot be combined\n",
    ),
    (("tree", "alpha"), 2, "", "error: tree vertices carry a single value class\n"),
    (("eval", "bad", "--vector", "1,1"), 1, "", "error: dim must be a nonnegative integer\n"),
    # a load proves the basis invertible modulo the prime 2^61 - 1 and asks the exact
    # inverse only when that determinant is 0: diag(2^61 - 1, 1) is invertible there, and a
    # singular basis exits 1 with one error line, whether its determinant vanishes modulo
    # 2^61 - 1 by chance or because a column repeats or is zero
    (("type", "q"), 0, "1,1\n", ""),
    (("type", "singular"), 1, "", SINGULAR),
    (("type", "repeated"), 1, "", SINGULAR),
    (("type", "zerocol"), 1, "", SINGULAR),
    # stab-check, level and coords prove invertibility the same way, by linalg.invertible:
    # each of these has a determinant that 2^61 - 1 divides, so the exact inverse decides.
    # On std3, the unit norm at p = 3, diag(2^61 - 1, 3) lies at level 0 with the singular
    # Levi block diag(1, 0) mod 3, so it is no member and its level exits 2 with one error
    # line; on beta, the frame (1, 1), (1, 1 + 2 (2^61 - 1)) of det 2 (2^61 - 1) splits
    # nothing
    (("stab-check", "std3", "--matrix", f"{Q},0;0,3"), 0, "false\n", ""),
    (("coords", "beta", "--frame", "1,1;1,4611686018427387903"), 0, "none\n", ""),
    (("level", "std3", "--matrix", f"{Q},0;0,3"), 2, "", OUTSIDE),
]


@pytest.mark.parametrize(
    "argv, code, out, err", RUNS, ids=[" ".join(argv) for argv, *_ in RUNS]
)
def test_frozen_runs(docs, capsys, argv, code, out, err):
    # aim 3 is a property of the table: a row that exits 1 or 2 expects no stdout and one line
    # of stderr, its error line
    if code:
        assert code in (1, 2) and out == "", argv
        assert err.startswith("error: ") and err.index("\n") == len(err) - 1, argv
    assert run(capsys, *resolved(docs, argv)) == (code, out, err)


def test_every_verb_has_frozen_rows():
    # each verb of the parser is pinned in text and in machine form: assert_formats runs a
    # row of LINES or DOCUMENTS in both, and a row of RUNS in the one it asks for
    (verbs,) = (a.choices for a in cli.build_parser()._actions if a.dest == "verb")
    both = {argv[0] for argv, *_ in LINES + DOCUMENTS}
    text = {argv[0] for argv, code, *_ in RUNS if code == 0 and "machine" not in argv}
    machine = {argv[0] for argv, code, *_ in RUNS if code == 0 and "machine" in argv}
    assert both | text == both | machine == set(verbs)


def test_tree_output(docs, capsys):
    code, out, _ = run(capsys, "tree", docs["beta"], "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert [n["basis"] for n in doc["neighbors"]] == [
        [["2", "0"], ["0", "1"]],
        [["1", "0"], ["0", "2"]],
        [["1", "1"], ["0", "2"]],
    ]


def test_machine_payloads(docs, capsys):
    alpha = docs["alpha"]
    code, out, _ = run(capsys, "eval", alpha, "--vector", "1,1", "--format", "machine")
    assert code == 0 and json.loads(out) == {"value": "1/2"}
    code, out, _ = run(capsys, "fiber", alpha, "--format", "machine")
    assert code == 0 and json.loads(out) == {"levi": [1, 1], "total": 4, "unipotent": 2}
    code, out, _ = run(capsys, "equals", alpha, alpha, "--format", "machine")
    assert code == 0 and json.loads(out) == {"result": True}
    code, out, _ = run(capsys, "coords", alpha, "--format", "machine")
    assert code == 0 and json.loads(out) == {"coords": ["0", "1/2"]}
    code, out, _ = run(capsys, "graded-dims", alpha, "--format", "machine")
    assert code == 0 and json.loads(out) == {
        "classes": [["0", 2], ["-1/2", 2]],
        "total": 4,
    }


THIRDS, SEVENTHS = f"1/{3 ** 8000}", f"1/{7 ** 5000}"  # 3,817- and 4,226-digit denominators


@pytest.mark.parametrize(
    "values, argv",
    [
        # the ball lattice would hold 2^100001, past Python's int-to-str digit limit
        (["0", "200001/2"], ["chain"]),
        # class keys and levels are differences of the values, with 8,043-digit denominators
        ([THIRDS, SEVENTHS], ["graded-dims"]),
        ([THIRDS, SEVENTHS], ["level", "--matrix", "1,2;0,1"]),
        ([THIRDS, "0"], ["bc-dims", "--at", SEVENTHS]),
        ([THIRDS, "0"], ["bc-dims", "--ram-index", str(7 ** 5000)]),
    ],
    ids=["chain", "graded-dims", "level", "bc-dims-at", "bc-dims-ram-index"],
)
def test_output_beyond_digit_limit(capsys, tmp_path, values, argv):
    doc = tmp_path / "huge.json"
    content = {"prime": 2, "dim": 2, "basis": [["1", "0"], ["0", "1"]], "values": values}
    doc.write_text(json.dumps(content), encoding="utf-8")
    code, out, err = run(capsys, argv[0], str(doc), *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "content",
    [
        ('{"prime":2,"dim":1,"basis":[["1"]],"values":["0"],"label":' + "9" * 5000 + "}").encode(),
        b"[" * 200_000 + b"]" * 200_000,
        b"\xff\xfe\xfa",
        None,
    ],
    ids=["long-integer", "deep-nesting", "not-utf8", "missing"],
)
def test_unreadable_documents(capsys, tmp_path, content):
    # the error line names the file or quotes the interpreter's own message, so these runs
    # are no rows of RUNS; None writes no file
    doc = tmp_path / "doc.json"
    if content is not None:
        doc.write_bytes(content)
    code, out, err = run(capsys, "chain", str(doc))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_usage_errors(docs):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb", docs["alpha"]])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", docs["alpha"]])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bc-dims", docs["alpha"], "--ram-index", "0"])
    assert exc.value.code == 2


def test_document_pipeline(docs, capsys, tmp_path):
    code, out, _ = run(capsys, "dual", docs["alpha"], "--format", "machine")
    assert code == 0
    once = tmp_path / "dual.json"
    once.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "dual", str(once), "--format", "machine")
    assert code == 0
    assert out == Path(docs["alpha"]).read_text(encoding="utf-8")


def test_determinism(docs, capsys):
    for argv in (
        ("graded-dims", docs["alpha"]),
        ("chain", docs["alpha"], "--format", "machine"),
        ("tree", docs["beta"], "--format", "machine"),
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def run_module(*argv, **env):
    """Run `python -m padicnorm` in a child that imports the same package as this test."""
    package_root = str(Path(padicnorm.__file__).parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "padicnorm", *argv],
        capture_output=True,
        encoding="utf-8",
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def test_module_entry_point(docs):
    proc = run_module("eval", docs["alpha"], "--vector", "1,1")
    assert proc.returncode == 0
    assert proc.stdout == "1/2\n"
    assert proc.stderr == ""


def test_utf8_document_in_c_locale(tmp_path):
    # documents are UTF-8 whatever the locale's encoding
    doc = tmp_path / "cafe.json"
    content = '{"basis":[["1"]],"dim":1,"label":"café","prime":2,"values":["0"]}'
    doc.write_text(content, encoding="utf-8")
    proc = run_module("eval", str(doc), "--vector", "1", LC_ALL="C", PYTHONUTF8="0")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_reused_parser_is_stateless(docs, capsys):
    # main reuses one parser: a flag, default or error of one call must not reach the next
    assert cli.build_parser() is cli.build_parser()
    alpha, matrix = docs["alpha"], ("--matrix", "1,1;0,1")
    pairs = [
        (("ball", alpha, "--at", "3/2", "--open"), ("ball", alpha, "--at", "3/2")),
        (("bc-dims", alpha, "--ram-index", "2"), ("bc-dims", alpha)),
        (("level", alpha, *matrix, "--delta=-1/2"), ("level", alpha, *matrix)),
        (("fiber", alpha, "--format", "machine"), ("fiber", alpha)),
        (("eval", alpha), ("eval", alpha, "--vector", "1,1")),
    ]
    for first, second in pairs:
        try:
            run(capsys, *first)
        except SystemExit as exc:  # `eval` without --vector is a usage error
            assert exc.code == 2, first
        capsys.readouterr()
        proc = run_module(*second)
        assert run(capsys, *second) == (proc.returncode, proc.stdout, proc.stderr), (first, second)


def test_handlers_resolve_package_functions_per_call(docs, capsys, monkeypatch):
    # a handler that captured a function object would hide a later rebinding for good
    run(capsys, "type", docs["alpha"])
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(norms, "equals", counting(norms.equals))
    monkeypatch.setattr(building, "cartan_position", counting(building.cartan_position))
    assert run(capsys, "equals", docs["alpha"], docs["beta"]) == (0, "false\n", "")
    assert calls == ["equals"]
    calls.clear()
    assert run(capsys, "cartan", docs["beta"], docs["lat"]) == (0, "1,0\n", "")
    assert calls[0] == "cartan_position"  # its self-checks call equals after it


def test_span_crosses_the_boundary_once(docs, capsys, monkeypatch):
    # the span's entries are read by the flag's parser alone: restrict and quotient hand the
    # library its transpose in Fractions, which the library reads without the gate
    reads = []
    gate = linalg.to_fraction

    def counting(x):
        if isinstance(x, str):
            reads.append(x)
        return gate(x)

    monkeypatch.setattr(linalg, "to_fraction", counting)
    for verb, value in ("restrict", "1/2"), ("quotient", "0"):
        machine = f'{{"basis":[["1"]],"dim":1,"prime":2,"values":["{value}"]}}\n'
        argv = (verb, docs["alpha"], "--span", "2,1/3", "--format", "machine")
        reads.clear()
        assert run(capsys, *argv) == (0, machine, "")
        assert reads == ["2", "1/3"]
