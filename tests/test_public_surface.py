"""The package's public surface is declared where it is defined.

Every module lists its public names in ``__all__``, each listed name
resolves, and ``rimlab`` re-exports only names that some module lists.
"""

import importlib
import pkgutil
import types

import rimlab


def test_package_exports_only_listed_names():
    listed = set()
    for info in pkgutil.iter_modules(rimlab.__path__):
        if info.name.startswith("_"):
            continue  # __main__ runs the CLI on import
        module = importlib.import_module(f"rimlab.{info.name}")
        unresolved = [name for name in module.__all__ if not hasattr(module, name)]
        assert unresolved == [], info.name
        listed |= set(module.__all__)
    exported = {
        name
        for name, obj in vars(rimlab).items()
        if not name.startswith("_") and not isinstance(obj, types.ModuleType)
    }
    assert sorted(exported - listed) == []
