"""Command-line interface.

Every verb reads norm documents (JSON, see io.py) and writes a
deterministic result to stdout.  Exit codes: 0 on success, 1 for a
malformed document, 2 when a precondition is violated; diagnostics go
to stderr as a single `error:` line.

A verb is one `add(...)` line in `_table`: its handler, the positional
arguments that are norm documents, and its flags with their argparse
keyword arguments.  A flag is only split here, at `,` and `;`:
`linalg.to_fraction` reads each entry, and the library refuses a ragged
matrix.  `main` loads the declared documents and passes the norms to the
handler after the parsed arguments.  A handler returns either a document
dict or a `(text line, machine payload)` pair, and `_render` applies
`--format` to it once.

`main` reads a plain call off that table, with the flags' own type
functions and choices, into the namespace argparse would give it, the
verb's name included, and looks the verb's handler and documents up in
the table by that name.  The table reads a repeated flag as argparse
does, the last value winning (`_read_call` says which forms it reads).
argparse is imported, and its parser built from the same table, only for
help, usage errors and the forms the reader leaves to it: a split
negative value, a `--` separator and an abbreviated flag.  argparse
reads a value written `--` as an empty list, which no flag type and no
document gives, so `main` refuses a namespace that holds one as a usage
error.  The parser is built once per process and reused, so `main(argv)`
may be called repeatedly in-process, and `build_parser` says why that is
safe.  Documents are read as UTF-8 bytes under text mode's newline rule:
CRLF and a lone CR read as LF.
"""

from __future__ import annotations

import functools
import sys
from fractions import Fraction
from types import SimpleNamespace

from . import base_change, building, io, linalg, norms, stabilizer
from .errors import DocumentError, DomainError, PreconditionError
from .valuation import FieldConfig, degree_rep


def _argparse():
    """argparse, imported on first use: a call that `_read_call` reads never needs it."""
    import argparse

    return argparse


def _frac(s: str) -> Fraction:
    try:
        return linalg.to_fraction(s)
    except PreconditionError as exc:  # argparse calls this outside main's try
        raise _argparse().ArgumentTypeError(str(exc)) from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise _argparse().ArgumentTypeError(f"not a rational: {s!r}") from exc


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
        raise _argparse().ArgumentTypeError(msg) from exc
    if value < 1:
        raise _argparse().ArgumentTypeError("ram index must be at least 1")
    return value


def _load_norm(path: str) -> norms.SplitNorm:
    try:
        with open(path, "rb", buffering=0) as f:
            text = f.read().decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    if "\r" in text:  # text mode's newline rule, so a JSON error names the same char
        text = text.replace("\r\n", "\n").replace("\r", "\n")
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
        count = summary.class_dims.get(degree_rep(args.delta), 0)
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


def _table():
    """Each verb's entry by name: its handler, the positionals that are norm documents main
    loads, and its flags by option name with their argparse keyword arguments, `--format`
    last.  Handlers look package functions up when they run, not when they are declared, so
    a function rebound later is still the one called."""
    verbs = {}
    fmt = dict(choices=("text", "machine"), default="text")

    def add(name, handler, files=("file",), **flags):
        options = {flag.replace("_", "-"): kwargs for flag, kwargs in flags.items()}
        verbs[name] = handler, files, {**options, "format": fmt}

    two = ("a", "b")
    vector = dict(type=_vector, required=True)
    matrix = dict(type=_matrix, required=True)
    prime = dict(type=int, required=True)
    rational = dict(type=_frac, default=None)
    switch = dict(action="store_true", default=False)
    add("eval", _cmd_eval, vector=vector)
    add("tensor", lambda _, a, b: io.norm_to_doc(norms.tensor(a, b)), files=two)
    add("dual", lambda _, n: io.norm_to_doc(norms.dual(n)))
    add("sum", lambda _, a, b: io.norm_to_doc(norms.direct_sum(a, b)), files=two)
    add("restrict", lambda args, n: _cmd_span(norms.restrict, args, n), span=matrix)
    add("quotient", lambda args, n: _cmd_span(norms.quotient, args, n), span=matrix)
    add("act", lambda args, n: io.norm_to_doc(norms.act(args.matrix, n)), matrix=matrix)
    add("equals", lambda _, a, b: _truth(norms.equals(a, b)), files=two)
    add("ball", _cmd_ball, at={**rational, "default": Fraction(0)}, open=switch)
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
    return verbs


VERBS = _table()


@functools.cache
def build_parser():
    """argparse's parser of VERBS, built on the first call and reused by every later one.

    Parsing does not mutate it: each call gets a fresh namespace and every default is
    immutable."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="padicnorm",
        description="Exact computations with split non-archimedean norms on Q^n.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (_, files, flags) in VERBS.items():
        p = sub.add_parser(name)
        for f in files:
            p.add_argument(f)
        for flag, kwargs in flags.items():
            p.add_argument("--" + flag, **kwargs)
    return parser


def _read_call(argv):
    """The namespace the top-level argparse parser gives argv, `verb` included, read off
    VERBS, or None.

    It reads argv when argv[0] is a verb, the tokens that do not start with `-` are exactly
    the verb's documents, each flag is written whole, as `--flag=value`, as `--flag value`
    with a value that does not start with `-`, or bare for a store_true flag, every required
    flag is there, and every value passes the flag's type and choices.  A repeated flag is
    read as argparse reads it: each value is checked and the last one wins.  On None,
    argparse reads argv (a split negative value `--at -1`, a `--` separator, an abbreviated
    flag) or prints help or a usage error."""
    if not argv or argv[0] not in VERBS:
        return None
    _, files, flags = VERBS[argv[0]]
    docs, given = [], {}
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            docs.append(token)
            continue
        name, eq, value = token[2:].partition("=")
        kwargs = flags.get(name) if token.startswith("--") else None
        if kwargs is None or eq and "action" in kwargs:
            return None
        if "action" in kwargs:  # store_true, written bare
            value = True
        elif not eq:
            value = next(tokens, "-")  # "-" when the flag ends argv
            if value.startswith("-"):
                return None
        if "type" in kwargs:
            try:
                value = kwargs["type"](value)
            except (TypeError, ValueError, _argparse().ArgumentTypeError):
                return None  # argparse runs the type again and words its error
        if "choices" in kwargs and value not in kwargs["choices"]:
            return None
        given[name] = value
    missing = [f for f, kw in flags.items() if kw.get("required") and f not in given]
    if missing or len(docs) != len(files):
        return None
    values = {f.replace("-", "_"): given.get(f, kw.get("default")) for f, kw in flags.items()}
    return SimpleNamespace(verb=argv[0], **dict(zip(files, docs)), **values)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_call(argv) or build_parser().parse_args(argv)
    if any(isinstance(v, list) for v in vars(args).values()):  # argparse's reading of `--`
        build_parser().error("'--' is not a value")
    handler, files, _ = VERBS[args.verb]
    try:
        result = handler(args, *(_load_norm(getattr(args, f)) for f in files))
    except (DocumentError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, DocumentError) else 2
    sys.stdout.write(_render(result, args.format))
    return 0
