"""Every function, method and class defined in src/hilbfock is used there.

A definition that nothing in the package refers to by name is either dead
or serves only the tests; either way it does not belong in the library.
"""

import ast
from pathlib import Path

import hilbfock

SRC = Path(hilbfock.__file__).resolve().parent


def _trees():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _is_function_cache(decorator):
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else \
        getattr(target, "id", None)
    return name in ("cache", "lru_cache")


def test_no_function_cache_on_methods():
    """functools.cache on a method keys on self in one class-level table,
    which keeps every engine alive for the life of the process; methods use
    linalg.memoized, whose table lives on the object."""
    offenders = []
    for fname, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    and node.args.args and node.args.args[0].arg == "self" \
                    and any(map(_is_function_cache, node.decorator_list)):
                offenders.append(f"{node.name} ({fname}:{node.lineno})")
    assert not offenders, "functools cache on a method: " + ", ".join(offenders)


def test_every_definition_is_referenced_in_src():
    defined = {}
    used = set()
    for fname, tree in _trees().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defined.setdefault(node.name, f"{fname}:{node.lineno}")
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    exempt = {"main"} | set(hilbfock.__all__)
    unused = sorted(f"{name} ({where})" for name, where in defined.items()
                    if name not in used and name not in exempt
                    and not (name.startswith("__") and name.endswith("__")))
    assert not unused, "defined in src/hilbfock but referenced nowhere there: " \
        + ", ".join(unused)


def _package_imports(tree):
    """The hilbfock modules a module imports, at any depth of its tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:  # from .fock import ..., or from . import cache
                out.update([node.module.split(".")[0]] if node.module
                           else (alias.name for alias in node.names))
            elif (node.module or "").startswith("hilbfock."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("hilbfock."))
    return out


def test_module_layers():
    """The layers import downward only: the scalars, the linear algebra,
    the partitions and the surface model know nothing of the Fock space or
    what is built on it; the Fock space knows neither the operators nor the
    ring, and the operators do not know the ring."""
    above = {
        "rational.py": {"fock", "vertex", "ring", "cli"},
        "linalg.py": {"fock", "vertex", "ring", "cli"},
        "partitions.py": {"fock", "vertex", "ring", "cli"},
        "surface.py": {"fock", "vertex", "ring", "cli"},
        "fock.py": {"vertex", "ring"},
        "vertex.py": {"ring"},
    }
    trees = _trees()
    wrong = {name: sorted(_package_imports(trees[name]) & banned)
             for name, banned in above.items()}
    assert not any(wrong.values()), f"imports against the layering: {wrong}"
    # the probe sees the imports that are allowed
    assert {"fock", "linalg", "partitions", "rational"} <= _package_imports(trees["vertex.py"])
