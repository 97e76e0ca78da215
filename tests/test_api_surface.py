"""The public surface: each module's ``__all__`` and the package re-exports."""
import ast
import importlib
import pkgutil
from pathlib import Path

import jetlag


def test_all_names_resolve_and_reexports_are_public():
    for info in pkgutil.iter_modules(jetlag.__path__):
        mod = importlib.import_module(f"jetlag.{info.name}")
        missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
        assert not missing, (info.name, missing)
    # a module without __all__ exports its names without a leading underscore
    tree = ast.parse(Path(jetlag.__file__).read_text())
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            mod = importlib.import_module(f"jetlag.{node.module}")
            public = getattr(mod, "__all__", None)
            for alias in node.names:
                if public is None:
                    assert not alias.name.startswith("_"), alias.name
                    assert hasattr(mod, alias.name), alias.name
                else:
                    assert alias.name in public, (node.module, alias.name)
