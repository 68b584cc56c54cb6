"""The package's public surface is declared where it is defined.

Every module lists its public names in ``__all__``, each listed name
resolves, ``rimlab`` re-exports only names that some module lists, and
every listed name, and every public member of a listed class, is used by
the library itself, not only by tests.
"""

import ast
import dataclasses
import importlib
import pkgutil
import types
from pathlib import Path

import rimlab
from conftest import load_perfbench

TRACER = load_perfbench("tracer")


def test_package_exports_only_listed_names():
    listed = set()
    for info in pkgutil.iter_modules(rimlab.__path__):
        if info.name.startswith("_"):
            continue  # __main__, the process entry, lists no public names
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


def test_one_error_class_per_exit_outcome():
    # cli.main tells four outcomes apart, so errors.py defines four classes
    errors = rimlab.errors
    classes = [n for n, obj in vars(errors).items() if isinstance(obj, type)]
    assert errors.__all__ == ["RimlabError", "ConfigError", "CertificateError", "InstabilityError"]
    assert classes == errors.__all__


def _public_members(cls: type) -> list:
    """The public methods, properties and classmethods a class defines, less
    its dataclass fields and the methods the benchmark's tracer wraps or
    counts by name (so they must exist even where the library never calls
    them)."""
    fields = {f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls) else set()
    hooked = {(c, m) for _, c, m in TRACER.METHODS + TRACER.COUNTED}
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_")
        and name not in fields
        and (cls.__name__, name) not in hooked
        and isinstance(value, (types.FunctionType, property, classmethod, staticmethod))
    ]


def test_every_listed_name_is_used_in_the_library():
    # A name counts as used when some module other than the package's
    # re-export list loads it as a name or an attribute, and so does each
    # public member of a listed class: no constructor, method or property
    # is kept for tests alone.
    listed, loaded = set(), set()
    for path in sorted(Path(rimlab.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                loaded.add(node.attr)
        module = importlib.import_module(f"rimlab.{path.stem}")
        for name in getattr(module, "__all__", ()):
            listed.add(name)
            obj = getattr(module, name)
            if isinstance(obj, type):
                listed |= {f"{name}.{member}" for member in _public_members(obj)}
    assert sorted(name for name in listed if name.rpartition(".")[2] not in loaded) == []


def test_spectral_mode_loop_is_the_only_norm():
    # Every D(A^alpha) norm goes through spectral._node_norms, so a state, a
    # batch and a history get their norms from one summation order.
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(Path(rimlab.__file__).parent.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if "linalg.norm" in line or "einsum" in line
    ]
    assert found == []


def test_spectral_filter_is_the_only_recurrence():
    # Every time-stepping recursion and every decay e^{-At} y goes through
    # spectral._filter_modes, so scipy's lfilter and the subnormal flush
    # (_flush_tail, _decay_steps) are named in spectral.py alone.
    names = ("lfilter", "_flush_tail", "_decay_steps")
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(Path(rimlab.__file__).parent.glob("*.py"))
        if path.name != "spectral.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if any(name in line for name in names)
    ]
    assert found == []
