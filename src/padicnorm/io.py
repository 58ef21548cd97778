"""Canonical document serialization.

Norm, lattice and pair documents are JSON objects with sorted keys: a
prime, a dimension, a matrix as an array of columns and, for norms and
pairs, one rational per column, in lowest terms ("num/den", plain "num"
for integers, "-inf" for the bottom value).  Serialization is
byte-stable: serializing a parsed canonical document reproduces it
exactly, and parsing rejects any rational string that serialization
would not write and any field the kind of document does not have.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from . import linalg
from .errors import DocumentError, DomainError, PreconditionError
from .norms import LatticeBasis, SplitNorm, _on_lattice
from .splittings import SplittingPair
from .valuation import TOO_LARGE, FieldConfig, Value

_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def rational_str(x: Fraction) -> str:
    try:
        return str(Fraction(x))
    except ValueError as exc:  # beyond the interpreter's int-to-str digit limit
        raise PreconditionError(TOO_LARGE) from exc


def value_str(v: Value) -> str:
    return "-inf" if v.is_bottom else rational_str(v.mag)


def parse_rational(s) -> Fraction:
    """Read a rational written exactly as rational_str writes it."""
    if not isinstance(s, str):
        raise DocumentError(f"rational entries must be strings, got {s!r}")
    try:
        # the pattern rules out exponents, which Fraction would expand in full
        x = Fraction(s) if _RATIONAL.fullmatch(s) else None
    except (ValueError, ZeroDivisionError):  # "1/0", or past the int-to-str digit limit
        x = None
    if x is None or str(x) != s:
        raise DocumentError(f"not a canonical rational: {s!r}")
    return x


def _parse_columns(entry, n: int, what: str) -> linalg.Matrix:
    if not isinstance(entry, list) or len(entry) != n:
        raise DocumentError(f"{what} must be an array of {n} columns")
    cols = []
    for col in entry:
        if not isinstance(col, list) or len(col) != n:
            raise DocumentError(f"each {what} column must have {n} entries")
        cols.append([parse_rational(x) for x in col])
    return linalg.from_columns(cols) if cols else ()


def _doc(cfg: FieldConfig, matrix_key: str, matrix, weights_key=None, weights=()) -> dict:
    """The document of a column matrix, with one weight per column under weights_key."""
    cols = [[rational_str(x) for x in col] for col in linalg.columns(matrix)]
    doc = {"dim": len(matrix), matrix_key: cols, "prime": cfg.prime}
    if weights_key is not None:
        doc[weights_key] = [rational_str(w) for w in weights]
    return doc


def _read(doc, matrix_key: str, weights_key=None, optional=()):
    """(lattice with its inverse, weights) of a document of any kind, checked in one order:
    header, unknown fields, label, weights array, matrix columns, weight rationals, and
    invertibility.  A DomainError on the way (bad prime, singular matrix) is a DocumentError."""
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
        lattice = LatticeBasis(cfg, _parse_columns(doc.get(matrix_key), dim, matrix_key))
        weights = tuple(parse_rational(w) for w in weights)
        lattice._inv_rows  # a singular matrix fails here; the inverse stays cached on the lattice
        return lattice, weights
    except DomainError as exc:
        raise DocumentError(str(exc)) from exc


def norm_to_doc(norm: SplitNorm, label: str | None = None) -> dict:
    doc = _doc(norm.cfg, "basis", norm.basis, "values", norm.values)
    if label is not None:
        doc["label"] = label
    return doc


def norm_from_doc(doc) -> SplitNorm:
    return _on_lattice(*_read(doc, "basis", "values", optional=("label",)))


def lattice_to_doc(lattice: LatticeBasis) -> dict:
    return _doc(lattice.cfg, "matrix", lattice.matrix)


def lattice_from_doc(doc) -> LatticeBasis:
    return _read(doc, "matrix")[0]


def pair_to_doc(pair: SplittingPair) -> dict:
    return _doc(pair.lattice.cfg, "lattice", pair.lattice.matrix, "weights", pair.weights)


def pair_from_doc(doc) -> SplittingPair:
    return SplittingPair(*_read(doc, "lattice", "weights"))


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
