"""Every name the benchmark tracer wraps exists: the tracer skips a name it cannot find,
so a rename under src/ would only zero a per-layer metric without this check."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_is_a_callable():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{layer}.{name}"
        for layer, names in tracing.LAYERS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"padicnorm.{layer}"), name, None))
    ]
    assert tracing.LAYERS and missing == []
