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


def _unused_imports(tree) -> list:
    """The names that an import statement of ``tree`` binds and that the
    module neither reads nor lists in its ``__all__``; ``from __future__``
    imports left out."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return sorted(bound - used)


def test_every_imported_name_is_used():
    # the package's __init__ imports only to re-export, which the test
    # above checks
    found = {}
    for path in sorted(Path(jetlag.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        unused = _unused_imports(ast.parse(path.read_text()))
        if unused:
            found[path.stem] = unused
    assert not found, found
