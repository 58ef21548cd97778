"""Every name the benchmark tracer wraps exists: the tracer skips a name it cannot find,
so a rename under src/ would only zero a per-layer metric without this check.  The
Fraction views of linalg stay only while the benchmark reads them, and every public name
of the package has a reader outside the tests.  Each exported name is declared once, in
its home module's __all__.  The modules of the package import no private name of one
another, the slot kernel imports no frame, every import is read, and every import is of the
standard library."""

import ast
import importlib
import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

from padicnorm import FieldConfig, SplitNorm, norms

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "padicnorm"
TESTS = ROOT / "tests"
TRACING = ROOT / "perfbench" / "tracing.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
VIEWS = ("matmul", "matvec", "kron", "det", "inverse")
EXPORTING = ("valuation", "norms", "splittings", "stabilizer", "base_change", "building")


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_name_is_a_callable():
    tracing = _tracing()
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"padicnorm.{layer}"), name, None))
    ]
    assert tracing.LAYERS and missing == []


def test_tracer_counts_inverse_views_and_restores_the_package():
    # the tracer wraps the fget of the inv_basis property and reads a hit off the planted
    # "_inv" view, so inv_basis must stay a property in the class dict backed by that view
    evaluate, prop = norms.evaluate, SplitNorm.__dict__["inv_basis"]
    nrm = SplitNorm(FieldConfig(2), 2, ((1, 2), (0, 1)), (Fraction(0), Fraction(1, 2)))
    tracer = _tracing().Tracer()
    tracer.install()
    try:
        assert norms.evaluate is not evaluate
        assert nrm.inv_basis == nrm.inv_basis == ((1, -2), (0, 1))
        assert (tracer.inv_lookups, tracer.inv_hits) == (2, 1)
    finally:
        tracer.uninstall()
    assert norms.evaluate is evaluate and SplitNorm.__dict__["inv_basis"] is prop


def _called(path: Path) -> set[str]:
    """The name of everything a module calls: a bare name, or an attribute's last part."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    calls = (node.func for node in ast.walk(tree) if isinstance(node, ast.Call))
    return {f.id if isinstance(f, ast.Name) else getattr(f, "attr", "") for f in calls}


def _views_read(path: Path):
    """Each Fraction view of linalg a module reads, as linalg.<view> or by a from-import."""
    nodes = list(ast.walk(ast.parse(path.read_text(encoding="utf-8"))))
    read = [
        node.attr
        for node in nodes
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "linalg"
    ]
    read += [
        alias.name
        for node in nodes
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("linalg")
        for alias in node.names
    ]
    return [name for name in read if name in VIEWS]


def test_the_fraction_views_stay_only_for_the_benchmark():
    # no module of the package calls linalg's Fraction views, and of the tests only their
    # contract tests in test_linalg.py read them; each stays while the tracer wraps it or a
    # workload calls it, and may leave when neither does
    package = set().union(*map(_called, SRC.glob("*.py")))
    assert package.isdisjoint(VIEWS)
    tests = [
        f"{path.name}: linalg.{name}"
        for path in sorted(TESTS.glob("*.py"))
        if path.name != "test_linalg.py"
        for name in _views_read(path)
    ]
    assert tests == []
    read = set(_tracing().LAYERS["linalg"]) | _called(WORKLOADS)
    assert [name for name in VIEWS if name not in read] == []


def _defined(path: Path) -> set[str]:
    """The names a module's top level binds itself: each def, class and assignment target."""
    defined = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(target.id for target in node.targets if isinstance(target, ast.Name))
    return defined


def test_each_exported_name_is_declared_once():
    # each exporting module lists its share of the exports in one __all__ of names it
    # defines itself, and the package re-exports their concatenation by star imports, so
    # no name is written twice and none is imported or listed by name in __init__
    lists = [importlib.import_module(f"padicnorm.{module}").__all__ for module in EXPORTING]
    for module, names in zip(EXPORTING, lists):
        assert len(set(names)) == len(names), module
        assert not [name for name in names if name.startswith("_")], module
        assert set(names) - _defined(SRC / f"{module}.py") == set(), module
    exported = [name for names in lists for name in names]
    assert len(set(exported)) == len(exported)
    assert importlib.import_module("padicnorm").__all__ == exported
    init = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    starred = []
    for node in ast.walk(init):
        if isinstance(node, ast.Import):
            raise AssertionError(f"__init__ imports {[alias.name for alias in node.names]}")
        if isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
            assert node.level == 1 and (names == ["*"] if node.module else set(names) <= {*EXPORTING})
            starred += [node.module] if node.module else []
    assert starred == list(EXPORTING)
    constants = {node.value for node in ast.walk(init) if isinstance(node, ast.Constant)}
    assert constants.isdisjoint(exported)


def _referenced(path: Path) -> set[str]:
    """Every name a module reads: a bare name, or an attribute's last part."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }


def test_every_public_name_has_a_reader():
    # a module-level def or class without a leading underscore is read by a module of the
    # package, exported, wrapped by the tracer or read by the benchmark; a name only the
    # tests read is a second implementation that nothing else uses
    read = set().union(*map(_referenced, [*SRC.glob("*.py"), *(ROOT / "perfbench").glob("*.py")]))
    read |= set(importlib.import_module("padicnorm").__all__)
    layers = _tracing().LAYERS
    unread = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name[0] == "_":
                continue
            if node.name in read or node.name in layers.get(path.stem, ()):
                continue
            unread.append(f"{path.stem}.{node.name}")
    assert unread == []


def _imports(path: Path):
    """(source, name, bound) for each name a module imports, __future__ aside: source is the
    package module it comes from, "" for one outside the package, and bound the name it is
    bound to in the module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield "", alias.name, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if not node.level:
                    source = ""
                elif node.module is None:  # from . import linalg
                    source = alias.name
                else:
                    source = node.module
                yield source, alias.name, alias.asname or alias.name


def test_no_module_imports_a_private_name_of_another():
    # a name one module of the package reads from another is part of that module's
    # interface and carries no leading underscore, though it stays out of __all__
    private = [
        f"{path.stem} imports {source}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for source, name, _ in _imports(path)
        if source and name.startswith("_")
    ]
    assert private == []


def test_the_slot_kernel_knows_no_frame():
    # slots reads integers only: of the package it imports linalg and valuation
    sources = {source for source, _, _ in _imports(SRC / "slots.py")}
    assert sources - {""} <= {"linalg", "valuation"}


def test_every_imported_name_is_read():
    # an import a module no longer reads is left behind by a move; __init__ imports to export
    unread = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = (node for node in ast.walk(tree) if isinstance(node, ast.Name))
        loaded = {node.id for node in names if isinstance(node.ctx, ast.Load)}
        unread += [f"{path.stem}.{bound}" for _, _, bound in _imports(path) if bound not in loaded]
    assert unread == []


def test_every_import_is_of_the_standard_library():
    # the package is stdlib-only: every import statement, at module level or inside a
    # function, is relative, __future__ or of a module of sys.stdlib_module_names, so no verb
    # needs a module outside the standard library when it runs
    stdlib, outside = sys.stdlib_module_names, []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            top = {name.partition(".")[0] for name in names}
            outside += [f"{path.stem} imports {name}" for name in sorted(top - stdlib)]
    assert outside == []
