"""Every name the benchmark tracer wraps exists: the tracer skips a name it cannot find,
so a rename under src/ would only zero a per-layer metric without this check.  The
Fraction views of linalg stay only while the benchmark reads them."""

import ast
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from padicnorm import FieldConfig, SplitNorm, norms

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"
VIEWS = ("matmul", "matvec", "kron", "det", "inverse")


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


def test_the_fraction_views_stay_only_for_the_benchmark():
    # no module of the package calls linalg's Fraction views; each stays while the tracer
    # wraps it or a workload calls it, and may leave when neither does
    package = set().union(*map(_called, (ROOT / "src" / "padicnorm").glob("*.py")))
    assert package.isdisjoint(VIEWS)
    read = set(_tracing().LAYERS["linalg"]) | _called(WORKLOADS)
    assert [name for name in VIEWS if name not in read] == []
