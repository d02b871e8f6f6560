import ast
import importlib
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "benchmark" / "tracing.py"


def _traced_names():
    """(module, attr) of every name the traced benchmark run wraps."""
    spec = importlib.util.spec_from_file_location("tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # standard library only
    return [(module, attr) for module, attr, _ in
            tracing.ENTRY_POINTS + tracing.CLI_ENTRY_POINTS]


def test_every_traced_name_is_bound():
    # the traced benchmark run wraps these names in place; a refactor that
    # drops one would crash it, so fail here instead
    missing = [f"{module}.{attr}" for module, attr in _traced_names()
               if not hasattr(importlib.import_module(f"mumimo.{module}"),
                              attr)]
    assert not missing


def test_every_tracer_only_import_is_traced():
    # `# noqa: F401` marks a name bound only for the traced run; once its
    # tracer entry goes, this names the import to delete with it
    traced = set(_traced_names())
    untraced = []
    for path in sorted((ROOT / "src" / "mumimo").glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, (ast.Import, ast.ImportFrom))
                    and "# noqa: F401" in lines[node.end_lineno - 1]):
                names = [alias.asname or alias.name for alias in node.names]
                untraced += [f"{path.stem}.{name}" for name in names
                             if (path.stem, name) not in traced]
    assert not untraced
