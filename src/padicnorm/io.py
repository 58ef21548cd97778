"""Canonical document serialization.

Documents are JSON objects with sorted keys; rationals are strings in
lowest terms ("num/den", plain "num" for integers, "-inf" for the
bottom value) and basis/lattice matrices are arrays of column arrays.
Serialization is byte-stable: serializing a parsed canonical document
reproduces it exactly, and parsing rejects any rational string that
serialization would not write.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from . import linalg
from .errors import DocumentError, DomainError, PreconditionError
from .norms import LatticeBasis, SplitNorm
from .splittings import SplittingPair
from .valuation import FieldConfig, Value

_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def rational_str(x: Fraction) -> str:
    try:
        return str(Fraction(x))
    except ValueError as exc:  # beyond the interpreter's int-to-str digit limit
        raise PreconditionError("result has a rational too large to print") from exc


def value_str(v: Value) -> str:
    return str(v)


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


def _columns_out(m: linalg.Matrix) -> list[list[str]]:
    return [[rational_str(x) for x in col] for col in linalg.columns(m)]


def _parse_header(doc) -> tuple[FieldConfig, int]:
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    prime = doc.get("prime")
    dim = doc.get("dim")
    if not isinstance(prime, int) or isinstance(prime, bool):
        raise DocumentError("prime must be an integer")
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 0:
        raise DocumentError("dim must be a nonnegative integer")
    try:
        cfg = FieldConfig(prime)
    except DomainError as exc:
        raise DocumentError(str(exc)) from exc
    return cfg, dim


def norm_to_doc(norm: SplitNorm, label: str | None = None) -> dict:
    doc = {
        "basis": _columns_out(norm.basis),
        "dim": norm.dim,
        "prime": norm.cfg.prime,
        "values": [rational_str(a) for a in norm.values],
    }
    if label is not None:
        doc["label"] = label
    return doc


def norm_from_doc(doc) -> SplitNorm:
    cfg, dim = _parse_header(doc)
    allowed = {"basis", "dim", "label", "prime", "values"}
    extra = set(doc) - allowed
    if extra:
        raise DocumentError(f"unknown document fields: {sorted(extra)}")
    if "label" in doc and not isinstance(doc["label"], str):
        raise DocumentError("label must be a string")
    values = doc.get("values")
    if not isinstance(values, list) or len(values) != dim:
        raise DocumentError(f"values must be an array of {dim} rationals")
    basis = _parse_columns(doc.get("basis"), dim, "basis")
    try:
        norm = SplitNorm(cfg, dim, basis, [parse_rational(x) for x in values])
        norm.inv_basis
    except DomainError as exc:
        raise DocumentError(str(exc)) from exc
    return norm


def lattice_to_doc(lattice: LatticeBasis) -> dict:
    return {
        "dim": lattice.dim,
        "matrix": _columns_out(lattice.matrix),
        "prime": lattice.cfg.prime,
    }


def lattice_from_doc(doc) -> LatticeBasis:
    cfg, dim = _parse_header(doc)
    matrix = _parse_columns(doc.get("matrix"), dim, "matrix")
    try:
        lattice = LatticeBasis(cfg, matrix)
        lattice.inv
    except DomainError as exc:
        raise DocumentError(str(exc)) from exc
    return lattice


def pair_to_doc(pair: SplittingPair) -> dict:
    return {
        "dim": pair.dim,
        "lattice": _columns_out(pair.lattice.matrix),
        "prime": pair.lattice.cfg.prime,
        "weights": [rational_str(w) for w in pair.weights],
    }


def pair_from_doc(doc) -> SplittingPair:
    cfg, dim = _parse_header(doc)
    weights = doc.get("weights")
    if not isinstance(weights, list) or len(weights) != dim:
        raise DocumentError(f"weights must be an array of {dim} rationals")
    matrix = _parse_columns(doc.get("lattice"), dim, "lattice")
    try:
        lattice = LatticeBasis(cfg, matrix)
        lattice.inv
        return SplittingPair(lattice, [parse_rational(w) for w in weights])
    except DomainError as exc:
        raise DocumentError(str(exc)) from exc


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
