"""Every name the benchmark tracer wraps exists: the tracer skips a name it cannot find,
so a rename under src/ would only zero a per-layer metric without this check."""

import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

from padicnorm import FieldConfig, SplitNorm, norms

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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
