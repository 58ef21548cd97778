"""Canonical document serialization.

Norm, lattice and pair documents are JSON objects with sorted keys: a
prime, a dimension, a matrix as an array of columns and, for norms and
pairs, one rational per column, in lowest terms ("num/den", plain "num"
for integers, "-inf" for the bottom value).  Serialization is
byte-stable: serializing a parsed canonical document reproduces it
exactly, and parsing rejects any rational string that serialization
would not write and any field the kind of document does not have.

A matrix is read straight into cleared columns, each entry split into
integers by one anchored pattern and each column put over the lcm of
its denominators, and written back from them, one gcd per entry; no
Fraction is built per entry either way.  Loading proves the matrix
invertible as every frame made from outside is (norms.proven): by a
determinant modulo a fixed prime, leaving the inverse to be made on
first read; only a determinant that vanishes there, as every singular
one does, is decided by the exact inverse, which is kept.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction

from . import linalg
from .errors import DocumentError, DomainError, PreconditionError
from .norms import LatticeBasis, SplitNorm, frame_on, on_lattice, proven
from .splittings import SplittingPair, pair_on
from .valuation import TOO_LARGE, FieldConfig, Value

# what rational_str writes, up to lowest terms: ASCII digits with no leading zero, no sign on
# zero and a denominator above 1; nothing else, so no exponent is ever expanded
_RATIONAL = re.compile(r"(0|-?[1-9][0-9]*)(?:/((?!1\Z)[1-9][0-9]*))?")


def _ratio_str(num: int, den: int) -> str:
    """num / den written in lowest terms, as str(Fraction(num, den)) writes it."""
    g = math.gcd(num, den)
    try:
        return str(num // g) if g == den else f"{num // g}/{den // g}"
    except ValueError as exc:  # beyond the interpreter's int-to-str digit limit
        raise PreconditionError(TOO_LARGE) from exc


def rational_str(x: Fraction) -> str:
    return _ratio_str(*linalg.to_fraction(x).as_integer_ratio())


def value_str(v: Value) -> str:
    return "-inf" if v.is_bottom else rational_str(v.mag)


def _num_den(s) -> tuple[int, int]:
    """(num, den) of a rational written exactly as rational_str writes it."""
    if not isinstance(s, str):
        raise DocumentError(f"rational entries must be strings, got {s!r}")
    m = _RATIONAL.fullmatch(s)
    if m:
        try:
            num, den = int(m[1]), int(m[2] or 1)
        except ValueError:  # past the int-to-str digit limit
            m = None
    if m is None or math.gcd(num, den) != 1:
        raise DocumentError(f"not a canonical rational: {s!r}")
    return num, den


def _parse_columns(entry, n: int, what: str) -> linalg.Cleared:
    """The cleared columns of a document's matrix, each by the one rule linalg.clear."""
    if not isinstance(entry, list) or len(entry) != n:
        raise DocumentError(f"{what} must be an array of {n} columns")
    cols = []
    for col in entry:
        if not isinstance(col, list) or len(col) != n:
            raise DocumentError(f"each {what} column must have {n} entries")
        cols.append(linalg.clear([_num_den(x) for x in col]))
    return cols


def _doc(frame, matrix_key: str, weights_key=None, weights=None) -> dict:
    """The document of a frame's columns, with one weight per column under weights_key, the
    weights cleared as (ints, den)."""
    cols = [[_ratio_str(x, d) for x in ints] for ints, d in frame._cols]
    doc = {"dim": len(cols), matrix_key: cols, "prime": frame.cfg.prime}
    if weights_key is not None:
        ints, den = weights
        doc[weights_key] = [_ratio_str(x, den) for x in ints]
    return doc


def _read(doc, matrix_key: str, weights_key=None, optional=()):
    """(lattice, weights) of a document of any kind, the weights cleared as (ints, den) by
    linalg.clear, checked in one order: header, unknown fields, label, weights array, matrix
    columns, weight rationals, and invertibility.  A DomainError on the way (bad prime,
    singular matrix) is a DocumentError."""
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    prime, dim = doc.get("prime"), doc.get("dim")
    if not isinstance(prime, int) or isinstance(prime, bool):
        raise DocumentError("prime must be an integer")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise DocumentError("dim must be a nonnegative integer")
    try:
        cfg = FieldConfig(prime)
        extra = set(doc) - {"dim", "prime", matrix_key, weights_key, *optional}
        if extra:
            raise DocumentError(f"unknown document fields: {sorted(extra)}")
        if not isinstance(doc.get("label", ""), str):
            raise DocumentError("label must be a string")
        weights = doc.get(weights_key) if weights_key else []
        if weights_key and (not isinstance(weights, list) or len(weights) != dim):
            raise DocumentError(f"{weights_key} must be an array of {dim} rationals")
        cols = _parse_columns(doc.get(matrix_key), dim, matrix_key)
        weights = linalg.clear([_num_den(w) for w in weights])
        return proven(frame_on(LatticeBasis, cfg, cols)), weights
    except DomainError as exc:
        raise DocumentError(str(exc)) from exc


def norm_to_doc(norm: SplitNorm, label: str | None = None) -> dict:
    doc = _doc(norm, "basis", "values", norm._vals)
    if label is not None:
        doc["label"] = label
    return doc


def norm_from_doc(doc) -> SplitNorm:
    return on_lattice(*_read(doc, "basis", "values", optional=("label",)))


def lattice_to_doc(lattice: LatticeBasis) -> dict:
    return _doc(lattice, "matrix")


def lattice_from_doc(doc) -> LatticeBasis:
    return _read(doc, "matrix")[0]


def pair_to_doc(pair: SplittingPair) -> dict:
    return _doc(pair.lattice, "lattice", "weights", pair._vals)


def pair_from_doc(doc) -> SplittingPair:
    return pair_on(*_read(doc, "lattice", "weights"))


def dumps_machine(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def dumps_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def loads_document(text: str):
    try:
        return json.loads(text)
    # JSONDecodeError is a ValueError, as is an integer past the int-to-str digit limit
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
