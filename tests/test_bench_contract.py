"""The names the benchmark's tracer wraps exist in nlosid.

bench/tracing.py looks up every layer function it lists with getattr, so a
renamed or deleted one makes every traced benchmark pass fail.  The module
uses only the standard library, so it is loaded here from its path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_traced_layer_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}"
               for module, names in tracing.LAYER_FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"nlosid.{module}"), name, None))]
    assert tracing.LAYER_FUNCTIONS and not missing
