"""Command-line interface.

Every verb reads norm documents (JSON, see io.py) and writes a
deterministic result to stdout.  Exit codes: 0 on success, 1 for a
malformed document, 2 when a precondition is violated; diagnostics go
to stderr as a single `error:` line.

A verb is one `add(...)` line in `build_parser`: its handler, the
positional arguments that are norm documents, and its flags.  A flag is
only split here, at `,` and `;`: `linalg.to_fraction` reads each entry,
and the library refuses a ragged matrix.  `main` loads the declared
documents and passes the norms to the handler after the parsed
arguments.  A handler returns either a document dict or a `(text line,
machine payload)` pair, and `_render` applies `--format` to it once.

The parser is built once per process and reused, so `main(argv)` may
be called repeatedly in-process; `build_parser` says why that is safe.
"""

from __future__ import annotations

import argparse
import functools
import sys
from fractions import Fraction
from pathlib import Path

from . import base_change, building, io, linalg, norms, stabilizer
from .errors import DocumentError, DomainError, PreconditionError
from .valuation import FieldConfig, degree_rep, frac_part


def _frac(s: str) -> Fraction:
    try:
        return linalg.to_fraction(s)
    except PreconditionError as exc:  # argparse calls this outside main's try
        raise argparse.ArgumentTypeError(str(exc)) from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {s!r}") from exc


def _vector(s: str) -> tuple[Fraction, ...]:
    return tuple(_frac(x) for x in s.split(",")) if s.strip() else ()


def _matrix(s: str) -> linalg.Matrix:
    return tuple(_vector(r) for r in s.split(";")) if s.strip() else ()


def _ram_index(s: str):
    if s == "unbounded":
        return s
    try:
        value = int(s)
    except ValueError as exc:
        msg = f"ram index must be a positive int or 'unbounded', got {s!r}"
        raise argparse.ArgumentTypeError(msg) from exc
    if value < 1:
        raise argparse.ArgumentTypeError("ram index must be at least 1")
    return value


def _load_norm(path: str) -> norms.SplitNorm:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return io.norm_from_doc(io.loads_document(text))


def _render(result, fmt: str) -> str:
    """stdout for a handler's result: a document, or a (text line, machine payload) pair."""
    if isinstance(result, tuple):
        line, result = result
        if fmt == "text":
            return line + "\n"
    return io.dumps_machine(result) if fmt == "machine" else io.dumps_text(result)


def _truth(flag: bool) -> tuple[str, dict]:
    return str(flag).lower(), {"result": flag}


def _rationals(key: str, xs) -> tuple[str, dict]:
    strs = [io.rational_str(x) for x in xs]
    return ",".join(strs), {key: strs}


def _classes(key: str, counts: dict, **extra) -> tuple[str, dict]:
    """One `class count` line per entry; the payload lists [class, count] pairs under key."""
    pairs = [[io.rational_str(k), v] for k, v in counts.items()]
    return "\n".join(f"{k} {v}" for k, v in pairs), {key: pairs, **extra}


def _cmd_eval(args, norm):
    size = io.value_str(norms.evaluate(norm, args.vector))
    return size, {"value": size}


def _cmd_span(fn, args, norm):
    span = linalg.transpose(args.span) if args.span else tuple(() for _ in range(norm.dim))
    return io.norm_to_doc(fn(norm, span))


def _cmd_ball(args, norm):
    fn = norms.ball_basis_open if args.open else norms.ball_basis
    return io.lattice_to_doc(fn(norm, args.at))


def _cmd_chain(args, norm):
    period = stabilizer.chain_period(norm)
    return {
        "classes": [io.rational_str(c) for c in period.classes],
        "dim": norm.dim,
        "lattices": [io.lattice_to_doc(l)["matrix"] for l in period.lattices],
        "prime": norm.cfg.prime,
    }


def _cmd_graded_dims(args, norm):
    summary = stabilizer.graded_dims(norm)
    if args.delta is not None:
        count = summary.class_dims.get(degree_rep(frac_part(args.delta)), 0)
        return str(count), {"class": io.rational_str(args.delta), "dim": count}
    return _classes("classes", summary.class_dims, total=summary.total)


def _cmd_fiber(args, norm):
    fs = stabilizer.fiber_structure(norm)
    levi = list(fs.levi_blocks)
    line = f"levi=[{','.join(map(str, levi))}] unipotent={fs.unipotent_dim} total={fs.total_dim}"
    return line, {"levi": levi, "total": fs.total_dim, "unipotent": fs.unipotent_dim}


def _cmd_level(args, norm):
    level = stabilizer.filtration_level(norm, args.matrix)
    if args.delta is not None:
        return _truth(level <= args.delta)
    text = io.value_str(level)
    return text, {"level": text}


def _cmd_bc_dims(args, norm):
    if args.at is not None and args.ram_index is not None:
        raise PreconditionError("--at and --ram-index cannot be combined")
    if args.at is not None:
        table = base_change.graded_ball_dims(norm, args.at)
        pairs = [[io.rational_str(k), [lhs, rhs]] for k, (lhs, rhs) in table.items()]
        lines = "\n".join(f"{k} lhs={lhs} rhs={rhs}" for k, (lhs, rhs) in pairs)
        return lines, {"at": io.rational_str(args.at), "classes": pairs}
    if args.ram_index is not None:
        index = args.ram_index
        ext = base_change.VirtualExtension(None if index == "unbounded" else index)
        classes = base_change.extension_value_classes(norm, ext)
        collapse = base_change.is_lattice_norm_over(norm, ext)
        pairs = [[io.rational_str(k), v] for k, v in classes.items()]
        listed = " ".join(f"{k}:{v}" for k, v in pairs)
        line = f"ram_index={index} classes=[{listed}] lattice_norm={str(collapse).lower()}"
        return line, {"classes": pairs, "lattice_norm": collapse, "ram_index": index}
    centralizer = base_change.centralizer_dim(norm)
    kernel = base_change.kernel_dim(norm)
    total = norm.dim * norm.dim
    line = f"kernel={kernel} centralizer={centralizer} total={total}"
    return line, {"centralizer": centralizer, "kernel": kernel, "total": total}


def _cmd_apartment(args):
    return io.norm_to_doc(building.norm_from_apartment(args.vector, FieldConfig(args.prime)))


def _cmd_coords(args, norm):
    coords = building.apartment_coords(norm, args.frame)
    return ("none", {"coords": None}) if coords is None else _rationals("coords", coords)


def _cmd_translate(args):
    vec = building.torus_translation(args.matrix, FieldConfig(args.prime))
    return _rationals("translation", vec)


def _cmd_type(args, norm):
    t = building.point_type(norm)
    return ",".join(str(x) for x in t), {"type": list(t)}


def _cmd_tree(args, norm):
    return {"neighbors": [io.norm_to_doc(x) for x in building.tree_neighbors(norm)]}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The verb table, built on the first call and reused by every later one.

    Parsing does not mutate it: each call gets a fresh namespace and every default is
    immutable.  Handlers look package functions up when they run, not when they are
    declared, so a function rebound after the first call is still the one called."""
    parser = argparse.ArgumentParser(
        prog="padicnorm",
        description="Exact computations with split non-archimedean norms on Q^n.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, handler, files=("file",), **flags):
        """Declare a verb; the `files` positionals are norm documents that main loads."""
        p = sub.add_parser(name)
        for f in files:
            p.add_argument(f)
        for flag, kwargs in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), **kwargs)
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.set_defaults(handler=handler, files=files)

    two = ("a", "b")
    vector = dict(type=_vector, required=True)
    matrix = dict(type=_matrix, required=True)
    prime = dict(type=int, required=True)
    rational = dict(type=_frac, default=None)
    add("eval", _cmd_eval, vector=vector)
    add("tensor", lambda _, a, b: io.norm_to_doc(norms.tensor(a, b)), files=two)
    add("dual", lambda _, n: io.norm_to_doc(norms.dual(n)))
    add("sum", lambda _, a, b: io.norm_to_doc(norms.direct_sum(a, b)), files=two)
    add("restrict", lambda args, n: _cmd_span(norms.restrict, args, n), span=matrix)
    add("quotient", lambda args, n: _cmd_span(norms.quotient, args, n), span=matrix)
    add("act", lambda args, n: io.norm_to_doc(norms.act(args.matrix, n)), matrix=matrix)
    add("equals", lambda _, a, b: _truth(norms.equals(a, b)), files=two)
    add("ball", _cmd_ball, at={**rational, "default": Fraction(0)}, open=dict(action="store_true"))
    add("chain", _cmd_chain)
    add(
        "stab-check",
        lambda args, n: _truth(stabilizer.is_stabilizer_element(n, args.matrix)),
        matrix=matrix,
    )
    add("graded-dims", _cmd_graded_dims, delta=rational)
    add("fiber", _cmd_fiber)
    add("level", _cmd_level, matrix=matrix, delta=rational)
    add("chi-weights", lambda _, n: _classes("weights", base_change.chi_weights(n)))
    add("bc-dims", _cmd_bc_dims, at=rational, ram_index=dict(type=_ram_index))
    add("apartment", _cmd_apartment, files=(), vector=vector, prime=prime)
    add("coords", _cmd_coords, frame=dict(type=_matrix, default=None))
    add("translate", _cmd_translate, files=(), matrix=matrix, prime=prime)
    add("cartan", lambda _, a, b: _rationals("position", building.cartan_position(a, b)), files=two)
    add("type", _cmd_type)
    add("tree", _cmd_tree)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = args.handler(args, *(_load_norm(getattr(args, f)) for f in args.files))
    except (DocumentError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DocumentError) else 2
    sys.stdout.write(_render(result, args.format))
    return 0
