import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "benchmark" / "tracing.py"


def test_every_traced_name_is_bound():
    # the traced benchmark run wraps these names in place; a refactor that
    # drops one would crash it, so fail here instead
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # standard library only
    missing = [f"{module}.{attr}" for module, attr, _ in
               tracing.ENTRY_POINTS + tracing.CLI_ENTRY_POINTS
               if not hasattr(importlib.import_module(f"mumimo.{module}"),
                              attr)]
    assert not missing
