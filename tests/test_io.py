import json
import random
from fractions import Fraction

import pytest

from padicnorm import FieldConfig, SplitNorm, io, linalg
from padicnorm.errors import DocumentError, PreconditionError
from padicnorm.norms import LatticeBasis, act, ball_basis, dual, equals, tensor
from padicnorm.splittings import SplittingPair
from padicnorm.valuation import BOTTOM, Value, val

import fuzz
import oracles

F = Fraction
CFG2 = FieldConfig(2)
ALPHA0 = SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(1, 2)))

ALPHA0_MACHINE = '{"basis":[["1","0"],["0","1"]],"dim":2,"prime":2,"values":["0","1/2"]}\n'


def test_rational_strings():
    assert io.rational_str(F(3, 4)) == "3/4"
    assert io.rational_str(F(-1, 2)) == "-1/2"
    assert io.rational_str(F(5)) == "5"
    assert io._num_den("3/4") == (3, 4)
    assert io._num_den("-7") == (-7, 1)
    assert io._num_den("0") == (0, 1)
    # only the exact strings rational_str writes; an exponent must not be expanded
    for bad in (3, None, 0.5, "abc", "1/0", "", "2/4", " 3 ", "1e-3", "1_000", "+1", "-0",
                "3/1", "1e1000000000"):
        with pytest.raises(DocumentError):
            io._num_den(bad)


# signs, leading zeros, lowest terms, zero and negative denominators, what Fraction accepts
# besides the canonical form (signs, spaces, underscores, non-ASCII digits such as Arabic-
# Indic one), and numerators and denominators at and past the int-to-str digit limit
EDGE_RATIONALS = [
    "0", "-1", "3/4", "-3/4", "10/3", "1/10", "-0", "00", "01", "-01", "0/5", "-0/3", "0/1",
    "1/1", "2/4", "6/-4", "1/0", "1/00", "1/02", "1/-2", "+1", " 1", "1 ", "1_0", "1/1_0",
    "\u0661", "1/\u0662", "", "-", "/", "1/", "/2", "--1", "1//2", "1/2/3", "9" * 4300,
    "-" + "9" * 4300, "1/" + "9" * 4300, "9" * 4301, "1/" + "9" * 4301,
]


def test_parser_agrees_with_fraction():
    # a string is read exactly when str(Fraction(s)) == s, and then as that rational
    rng = random.Random(61)
    fuzzed = ["".join(rng.choices("-/0123456789", k=rng.randint(1, 8))) for _ in range(20000)]
    accepted = 0
    for s in EDGE_RATIONALS + fuzzed:
        want = oracles.canonical_rational(s)
        if want is None:
            with pytest.raises(DocumentError, match="^not a canonical rational: "):
                io._num_den(s)
        else:
            assert io._num_den(s) == want.as_integer_ratio(), s
            accepted += 1
    assert accepted > 5000


def test_documents_written_from_cleared_columns():
    # every entry of a written matrix is the rational_str of the Fraction view's entry, on
    # frames whose cleared columns come from a document, a product, a tensor, an inverse
    # and a scaled ball
    rng = random.Random(62)
    for _ in range(40):
        nrm = fuzz.norm(rng, n=rng.randint(1, 4))
        g = fuzz.elementary_product(rng, nrm.dim, nrm.cfg.prime)
        read = io.norm_from_doc(io.norm_to_doc(nrm))
        ball = ball_basis(read, 0)
        written = [(io.lattice_to_doc(ball)["matrix"], ball.matrix)]
        for x in (read, act(g, nrm), tensor(nrm, read), dual(read)):
            written.append((io.norm_to_doc(x)["basis"], x.basis))
        for cols, view in written:
            assert cols == [[io.rational_str(x) for x in col] for col in linalg.transpose(view)]


def test_value_strings():
    assert io.value_str(val(8, CFG2)) == "3"
    assert io.value_str(val(F(3, 4), CFG2)) == "-2"
    assert io.value_str(BOTTOM) == "-inf"
    # the same digit-limit guard as rational_str: an 8,043-digit denominator is refused
    with pytest.raises(PreconditionError):
        io.value_str(Value(F(1, 3**8000 * 7**5000)))


def test_norm_doc_frozen():
    assert io.dumps_machine(io.norm_to_doc(ALPHA0)) == ALPHA0_MACHINE
    doc = io.norm_to_doc(ALPHA0, label="alpha0")
    assert doc["label"] == "alpha0"
    assert sorted(doc) == ["basis", "dim", "label", "prime", "values"]


def test_norm_doc_round_trip_bytes():
    parsed = io.norm_from_doc(io.loads_document(ALPHA0_MACHINE))
    assert equals(parsed, ALPHA0)
    assert io.dumps_machine(io.norm_to_doc(parsed)) == ALPHA0_MACHINE


def test_text_and_machine_agree():
    doc = io.norm_to_doc(ALPHA0, label="a")
    text = io.dumps_text(doc)
    machine = io.dumps_machine(doc)
    assert text.endswith("\n") and machine.endswith("\n")
    assert json.loads(text) == json.loads(machine) == doc
    assert "\n  " in text and "\n" not in machine[:-1]


def test_zero_dim_doc():
    empty = SplitNorm(CFG2, 0, (), ())
    blob = io.dumps_machine(io.norm_to_doc(empty))
    assert blob == '{"basis":[],"dim":0,"prime":2,"values":[]}\n'
    again = io.norm_from_doc(io.loads_document(blob))
    assert again.dim == 0


def test_malformed_norm_docs():
    good = io.norm_to_doc(ALPHA0)

    def broken(**changes):
        doc = {**good, **{k: v for k, v in changes.items() if v is not ...}}
        for k, v in changes.items():
            if v is ...:
                del doc[k]
        return doc

    cases = [
        [1, 2],
        "{}",
        broken(prime=...),
        broken(prime="2"),
        broken(prime=True),
        broken(prime=4),
        broken(dim=-1),
        broken(dim=True),
        broken(dim="2"),
        broken(values=...),
        broken(values=["0"]),
        broken(values=["0", 3]),
        broken(values=["0", "1/0"]),
        broken(values="0,1/2"),
        broken(basis=...),
        broken(basis=[["1", "0"]]),
        broken(basis=[["1", "0"], ["0"]]),
        broken(basis=[["1", "0"], ["0", 1]]),
        broken(basis=[["1", "1"], ["1", "1"]]),
        broken(label=7),
        broken(extra="x"),
    ]
    for doc in cases:
        with pytest.raises(DocumentError):
            io.norm_from_doc(doc)


def test_norm_doc_check_order():
    # with two faults, the one checked first is reported: header, unknown fields, label,
    # the values array, basis columns, values rationals, then invertibility
    good = io.norm_to_doc(ALPHA0)
    singular, untyped = [["1", "1"], ["1", "1"]], [["1", "1"], ["1", 1]]
    cases = [
        ({"label": 7, "values": ["0"]}, "label must be a string"),
        ({"extra": 1, "values": ["0"]}, "unknown document fields: ['extra']"),
        ({"extra": 1, "prime": 4}, "prime must be a prime number, got 4"),
        ({"basis": singular, "values": ["0", "2/4"]}, "not a canonical rational: '2/4'"),
        ({"basis": untyped, "values": ["0", 2]}, "rational entries must be strings, got 1"),
        ({"basis": [["1", "1"]], "values": "0"}, "values must be an array of 2 rationals"),
    ]
    # a prime that is no int is refused by the document reader, before FieldConfig reads it
    cases += [({"prime": prime}, "prime must be an integer") for prime in ("3", True, 3.0, None)]
    for changes, message in cases:
        with pytest.raises(DocumentError) as exc:
            io.norm_from_doc({**good, **changes})
        assert str(exc.value) == message


def test_invalid_json():
    with pytest.raises(DocumentError):
        io.loads_document("{not json")


def test_lattice_doc():
    lat = LatticeBasis(CFG2, linalg.transpose([(1, 1), (0, 2)]))
    blob = io.dumps_machine(io.lattice_to_doc(lat))
    assert blob == '{"dim":2,"matrix":[["1","1"],["0","2"]],"prime":2}\n'
    again = io.lattice_from_doc(io.loads_document(blob))
    assert again.matrix == lat.matrix
    with pytest.raises(DocumentError):
        io.lattice_from_doc({"prime": 2, "dim": 2, "matrix": [["1", "1"], ["1", "1"]]})
    with pytest.raises(DocumentError):
        io.lattice_from_doc({"prime": 2, "dim": 2, "matrix": [["1", "0"]]})
    with pytest.raises(DocumentError, match="unknown document fields"):
        io.lattice_from_doc({**json.loads(blob), "junk": 1})


def test_pair_doc():
    pair = SplittingPair(LatticeBasis(CFG2, oracles.identity(2)), (F(0), F(1, 2)))
    blob = io.dumps_machine(io.pair_to_doc(pair))
    assert (
        blob
        == '{"dim":2,"lattice":[["1","0"],["0","1"]],"prime":2,"weights":["0","1/2"]}\n'
    )
    again = io.pair_from_doc(io.loads_document(blob))
    assert again.lattice.matrix == pair.lattice.matrix
    assert again.weights == pair.weights
    with pytest.raises(DocumentError):
        io.pair_from_doc({"prime": 2, "dim": 2, "lattice": [["1", "0"], ["0", "1"]], "weights": ["0"]})
    for junk in ({"junk": 1}, {"label": 5}, {"label": "a"}):  # labels belong to norm documents
        with pytest.raises(DocumentError, match="unknown document fields"):
            io.pair_from_doc({**json.loads(blob), **junk})


def test_round_trip_fuzz():
    rng = random.Random(95)
    for _ in range(200):
        nrm = fuzz.norm(rng)
        doc = io.norm_to_doc(nrm)
        again = io.norm_from_doc(json.loads(io.dumps_machine(doc)))
        assert again.basis == nrm.basis
        assert again.values == nrm.values
        assert again.cfg == nrm.cfg
        assert io.dumps_machine(io.norm_to_doc(again)) == io.dumps_machine(doc)
