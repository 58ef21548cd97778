"""Outside-in per-layer tracing and Fraction call counting.

The tracer wraps the public entry points of every padicnorm module,
plus the two private steps of the common-basis and subspace code
(`_monomialize`, `_split_subspace`), and replaces *every* binding of
each original in the package -- `from .norms import equals` in
building.py is a second binding of the same function -- so no call
slips past.  Nothing under src/ changes; `uninstall` puts every
original back.

Spans are aggregated as they close rather than stored: a compare run
makes tens of thousands of `pval` calls.  For each name the tracer
keeps calls, inclusive time and self time (inclusive time minus the time
its child spans cover), and for each parent -> child edge the calls and
time, so shares such as "equals inside the self-checks" are measured
where they happen.  Helpers that are not wrapped (`linalg.vec`,
`lattices_equal`, ...) count towards their caller's self time.

The counting run is separate: a `sys.setprofile` hook counts calls into
fractions.py, which repeats exactly for the same inputs.
"""

from __future__ import annotations

import fractions
import importlib
import sys
from time import perf_counter_ns

LAYERS = {
    "cli": ("build_parser", "main"),
    "io": (
        "loads_document", "norm_from_doc", "lattice_from_doc", "pair_from_doc",
        "norm_to_doc", "lattice_to_doc", "pair_to_doc", "dumps_machine", "dumps_text",
    ),
    "norms": (
        "evaluate", "equals", "ball_basis", "ball_basis_open", "act", "tensor", "dual",
        "direct_sum", "restrict", "quotient", "common_splitting_basis", "distance",
        "lattice_norm", "_monomialize", "_split_subspace",
    ),
    "linalg": ("matmul", "inverse", "det", "matvec", "kron"),
    "valuation": ("pval", "val"),
    "stabilizer": (
        "hom_norm", "is_stabilizer_element", "graded_dims", "fiber_structure",
        "chain_period", "chain_certificates", "filtration_level",
    ),
    "building": (
        "norm_from_apartment", "apartment_coords", "torus_translation", "cartan_position",
        "point_type", "tree_neighbors", "homothetic",
    ),
    "base_change": (
        "chi_weights", "extension_value_classes", "is_lattice_norm_over",
        "centralizer_dim", "kernel_dim", "graded_ball_dims",
    ),
    "splittings": ("norm_from_pair", "pair_from_norm", "translate_pair", "verify_splitting"),
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list[int]] = {}  # name -> [calls, inclusive ns, self ns]
        self.edges: dict[tuple[str, str], list[int]] = {}  # (parent, child) -> [calls, ns]
        self.top_ns = 0  # time covered by spans with no parent span
        self.emit_bytes = 0
        self.pval_steps = 0
        self.inv_lookups = 0
        self.inv_hits = 0
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, on_result=None):
        stack, stats, edges = self._stack, self.stats, self.edges
        stats.setdefault(name, [0, 0, 0])

        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = perf_counter_ns() - t0
                stack.pop()
                s = stats[name]
                s[0] += 1
                s[1] += dur
                s[2] += dur - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dur
                    e = edges.setdefault((parent[0], name), [0, 0])
                    e[0] += 1
                    e[1] += dur
                else:
                    self.top_ns += dur
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_bytes(self, text):
        self.emit_bytes += len(text)

    def _count_steps(self, v):
        self.pval_steps += abs(v)

    def install(self) -> None:
        hooks = {
            "io.dumps_machine": self._count_bytes,
            "io.dumps_text": self._count_bytes,
            "valuation.pval": self._count_steps,
        }
        wrappers = {}
        for layer, names in LAYERS.items():
            module = importlib.import_module(f"padicnorm.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if callable(fn):
                    key = f"{layer}.{name}"
                    wrappers[id(fn)] = (fn, self._wrap(key, fn, hooks.get(key)))
        for modname, module in list(sys.modules.items()):
            if modname != "padicnorm" and not modname.startswith("padicnorm."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, value))
        split_norm = importlib.import_module("padicnorm.norms").SplitNorm
        prop = split_norm.__dict__["inv_basis"]

        def inv_basis(norm):
            self.inv_lookups += 1
            self.inv_hits += "_inv" in vars(norm)
            return prop.fget(norm)

        split_norm.inv_basis = property(inv_basis, doc=prop.__doc__)
        self._restore.append((split_norm, "inv_basis", prop))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # ---- aggregates

    def calls(self, name) -> int:
        return self.stats.get(name, [0, 0, 0])[0]

    def incl_ns(self, name) -> int:
        return self.stats.get(name, [0, 0, 0])[1]

    def self_ns(self, name) -> int:
        return self.stats.get(name, [0, 0, 0])[2]

    def edge(self, parent, child) -> list[int]:
        return self.edges.get((parent, child), [0, 0])

    def layer_self_ns(self, layer) -> int:
        return sum(s[2] for name, s in self.stats.items() if name.split(".")[0] == layer)


def count_fraction_calls(run):
    """Run `run()` under a profile hook counting calls into fractions.py
    by function name; returns (counts, result)."""
    target = fractions.__file__
    counts: dict[str, int] = {}

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename == target:
                counts[code.co_name] = counts.get(code.co_name, 0) + 1

    sys.setprofile(profile)
    try:
        result = run()
    finally:
        sys.setprofile(None)
    return counts, result
