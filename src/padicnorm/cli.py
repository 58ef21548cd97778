"""Command-line interface.

Every verb reads norm documents (JSON, see io.py) and writes a
deterministic result to stdout.  Exit codes: 0 on success, 1 for a
malformed document, 2 when a precondition is violated; diagnostics go
to stderr as a single line.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from . import base_change, building, io, linalg, norms, stabilizer
from .errors import DocumentError, DomainError
from .valuation import FieldConfig


def _frac(s: str) -> Fraction:
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {s!r}") from exc


def _vector(s: str) -> tuple[Fraction, ...]:
    if s.strip() == "":
        return ()
    return tuple(_frac(x) for x in s.split(","))


def _matrix(s: str) -> linalg.Matrix:
    rows = [_vector(r) for r in s.split(";")] if s.strip() else []
    if rows and any(len(r) != len(rows[0]) for r in rows):
        raise argparse.ArgumentTypeError("ragged matrix")
    return tuple(rows)


def _span(s: str) -> list[tuple[Fraction, ...]]:
    if s.strip() == "":
        return []
    return [_vector(part) for part in s.split(";")]


_ABSENT = object()


def _ram_index(s: str):
    if s == "unbounded":
        return None
    try:
        value = int(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"ram index must be a positive int or 'unbounded', got {s!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError("ram index must be at least 1")
    return value


def _load_norm(path: str) -> norms.SplitNorm:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    return io.norm_from_doc(io.loads_document(text))


def _emit_doc(doc: dict, fmt: str) -> str:
    return io.dumps_machine(doc) if fmt == "machine" else io.dumps_text(doc)


def _emit_line(line: str, payload: dict, fmt: str) -> str:
    return io.dumps_machine(payload) if fmt == "machine" else line + "\n"


def _bool_out(flag: bool, fmt: str) -> str:
    return _emit_line("true" if flag else "false", {"result": flag}, fmt)


def _rational_list(xs) -> list[str]:
    return [io.rational_str(x) for x in xs]


def _cmd_eval(args) -> str:
    norm = _load_norm(args.file)
    size = norms.evaluate(norm, args.vector)
    return _emit_line(str(size), {"value": str(size)}, args.format)


def _cmd_tensor(args) -> str:
    result = norms.tensor(_load_norm(args.a), _load_norm(args.b))
    return _emit_doc(io.norm_to_doc(result), args.format)


def _cmd_dual(args) -> str:
    return _emit_doc(io.norm_to_doc(norms.dual(_load_norm(args.file))), args.format)


def _cmd_sum(args) -> str:
    result = norms.direct_sum(_load_norm(args.a), _load_norm(args.b))
    return _emit_doc(io.norm_to_doc(result), args.format)


def _cmd_restrict(args) -> str:
    norm = _load_norm(args.file)
    span = linalg.from_columns(args.span) if args.span else tuple(() for _ in range(norm.dim))
    return _emit_doc(io.norm_to_doc(norms.restrict(norm, span)), args.format)


def _cmd_quotient(args) -> str:
    norm = _load_norm(args.file)
    span = linalg.from_columns(args.span) if args.span else tuple(() for _ in range(norm.dim))
    return _emit_doc(io.norm_to_doc(norms.quotient(norm, span)), args.format)


def _cmd_act(args) -> str:
    result = norms.act(args.matrix, _load_norm(args.file))
    return _emit_doc(io.norm_to_doc(result), args.format)


def _cmd_equals(args) -> str:
    return _bool_out(norms.equals(_load_norm(args.a), _load_norm(args.b)), args.format)


def _cmd_ball(args) -> str:
    norm = _load_norm(args.file)
    fn = norms.ball_basis_open if args.open else norms.ball_basis
    return _emit_doc(io.lattice_to_doc(fn(norm, args.at)), args.format)


def _cmd_chain(args) -> str:
    norm = _load_norm(args.file)
    period = stabilizer.chain_period(norm)
    doc = {
        "classes": _rational_list(period.classes),
        "dim": norm.dim,
        "lattices": [io.lattice_to_doc(l)["matrix"] for l in period.lattices],
        "prime": norm.cfg.prime,
    }
    return _emit_doc(doc, args.format)


def _cmd_stab_check(args) -> str:
    norm = _load_norm(args.file)
    return _bool_out(stabilizer.is_stabilizer_element(norm, args.matrix), args.format)


def _cmd_graded_dims(args) -> str:
    summary = stabilizer.graded_dims(_load_norm(args.file))
    if args.delta is not None:
        count = summary.class_dims.get(args.delta, 0)
        return _emit_line(str(count), {"class": str(args.delta), "dim": count}, args.format)
    pairs = [[str(k), v] for k, v in summary.class_dims.items()]
    lines = "\n".join(f"{k} {v}" for k, v in summary.class_dims.items())
    return _emit_line(lines, {"classes": pairs, "total": summary.total}, args.format)


def _cmd_fiber(args) -> str:
    fs = stabilizer.fiber_structure(_load_norm(args.file))
    line = (
        f"levi=[{','.join(str(b) for b in fs.levi_blocks)}]"
        f" unipotent={fs.unipotent_dim} total={fs.total_dim}"
    )
    payload = {
        "levi": list(fs.levi_blocks),
        "total": fs.total_dim,
        "unipotent": fs.unipotent_dim,
    }
    return _emit_line(line, payload, args.format)


def _cmd_level(args) -> str:
    norm = _load_norm(args.file)
    level = stabilizer.filtration_level(norm, args.matrix)
    if args.delta is not None:
        return _bool_out(level <= args.delta, args.format)
    return _emit_line(str(level), {"level": str(level)}, args.format)


def _cmd_chi_weights(args) -> str:
    weights = base_change.chi_weights(_load_norm(args.file))
    pairs = [[str(k), v] for k, v in weights.items()]
    lines = "\n".join(f"{k} {v}" for k, v in weights.items())
    return _emit_line(lines, {"weights": pairs}, args.format)


def _cmd_bc_dims(args) -> str:
    norm = _load_norm(args.file)
    if args.at is not None:
        table = base_change.graded_ball_dims(norm, args.at)
        pairs = [[str(k), [lhs, rhs]] for k, (lhs, rhs) in table.items()]
        lines = "\n".join(f"{k} lhs={lhs} rhs={rhs}" for k, (lhs, rhs) in table.items())
        return _emit_line(lines, {"at": str(args.at), "classes": pairs}, args.format)
    if args.ram_index is not _ABSENT:
        ext = base_change.VirtualExtension(args.ram_index)
        classes = base_change.extension_value_classes(norm, ext)
        collapse = base_change.is_lattice_norm_over(norm, ext)
        pairs = [[str(k), v] for k, v in classes.items()]
        index_out = "unbounded" if args.ram_index is None else args.ram_index
        line = (
            f"ram_index={index_out}"
            f" classes=[{' '.join(f'{k}:{v}' for k, v in classes.items())}]"
            f" lattice_norm={'true' if collapse else 'false'}"
        )
        payload = {"classes": pairs, "lattice_norm": collapse, "ram_index": index_out}
        return _emit_line(line, payload, args.format)
    centralizer = base_change.centralizer_dim(norm)
    kernel = base_change.kernel_dim(norm)
    total = norm.dim * norm.dim
    line = f"kernel={kernel} centralizer={centralizer} total={total}"
    payload = {"centralizer": centralizer, "kernel": kernel, "total": total}
    return _emit_line(line, payload, args.format)


def _cmd_apartment(args) -> str:
    norm = building.norm_from_apartment(args.vector, FieldConfig(args.prime))
    return _emit_doc(io.norm_to_doc(norm), args.format)


def _cmd_coords(args) -> str:
    norm = _load_norm(args.file)
    frame = args.frame if args.frame is not None else None
    coords = building.apartment_coords(norm, frame)
    if coords is None:
        return _emit_line("none", {"coords": None}, args.format)
    return _emit_line(",".join(_rational_list(coords)), {"coords": _rational_list(coords)}, args.format)


def _cmd_translate(args) -> str:
    vec = building.torus_translation(args.matrix, FieldConfig(args.prime))
    return _emit_line(",".join(_rational_list(vec)), {"translation": _rational_list(vec)}, args.format)


def _cmd_cartan(args) -> str:
    position = building.cartan_position(_load_norm(args.a), _load_norm(args.b))
    return _emit_line(
        ",".join(_rational_list(position)), {"position": _rational_list(position)}, args.format
    )


def _cmd_type(args) -> str:
    t = building.point_type(_load_norm(args.file))
    return _emit_line(",".join(str(x) for x in t), {"type": list(t)}, args.format)


def _cmd_tree(args) -> str:
    neighbors = building.tree_neighbors(_load_norm(args.file))
    doc = {"neighbors": [io.norm_to_doc(n) for n in neighbors]}
    return _emit_doc(doc, args.format)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="padicnorm",
        description="Exact computations with split non-archimedean norms on Q^n.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add(name, handler, files=("file",), **flags):
        p = sub.add_parser(name)
        for f in files:
            p.add_argument(f)
        for flag, kwargs in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), **kwargs)
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.set_defaults(handler=handler)
        return p

    add("eval", _cmd_eval, vector=dict(type=_vector, required=True))
    add("tensor", _cmd_tensor, files=("a", "b"))
    add("dual", _cmd_dual)
    add("sum", _cmd_sum, files=("a", "b"))
    add("restrict", _cmd_restrict, span=dict(type=_span, required=True))
    add("quotient", _cmd_quotient, span=dict(type=_span, required=True))
    add("act", _cmd_act, matrix=dict(type=_matrix, required=True))
    add("equals", _cmd_equals, files=("a", "b"))
    add("ball", _cmd_ball, at=dict(type=_frac, default=Fraction(0)), open=dict(action="store_true"))
    add("chain", _cmd_chain)
    add("stab-check", _cmd_stab_check, matrix=dict(type=_matrix, required=True))
    add("graded-dims", _cmd_graded_dims, delta=dict(type=_frac, default=None))
    add("fiber", _cmd_fiber)
    add("level", _cmd_level, matrix=dict(type=_matrix, required=True), delta=dict(type=_frac, default=None))
    add("chi-weights", _cmd_chi_weights)
    add(
        "bc-dims",
        _cmd_bc_dims,
        at=dict(type=_frac, default=None),
        ram_index=dict(type=_ram_index, default=_ABSENT),
    )
    add("apartment", _cmd_apartment, files=(), vector=dict(type=_vector, required=True), prime=dict(type=int, required=True))
    add("coords", _cmd_coords, frame=dict(type=_matrix, default=None))
    add("translate", _cmd_translate, files=(), matrix=dict(type=_matrix, required=True), prime=dict(type=int, required=True))
    add("cartan", _cmd_cartan, files=("a", "b"))
    add("type", _cmd_type)
    add("tree", _cmd_tree)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        output = args.handler(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
