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


def test_no_module_reads_the_environment():
    """Every output depends only on argv and the model: no module reads
    os.environ or os.getenv, which would make a variable a hidden option."""
    names = {"environ", "environb", "getenv", "getenvb"}
    offenders = [f"{fname}:{node.lineno}" for fname, tree in _trees().items()
                 for node in ast.walk(tree)
                 if (getattr(node, "attr", None) in names
                     or getattr(node, "id", None) in names
                     or isinstance(node, ast.ImportFrom) and node.module == "os"
                     and any(alias.name in names for alias in node.names))]
    assert not offenders, "reads the environment: " + ", ".join(offenders)


def _is_empty_dict(value):
    if isinstance(value, ast.Dict):
        return not value.keys
    return isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict" \
        and not value.args and not value.keywords


def _reaches_into_dict(node):
    """node reads or writes an object's attribute table: x.__dict__ or vars(x)."""
    if isinstance(node, ast.Attribute):
        return node.attr == "__dict__"
    return isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars"


def test_no_hand_written_memo():
    """Every engine memo is linalg.memoized.  An __init__ that sets a
    private attribute to an empty dict starts a memo by hand; a public
    one, such as Echelon.rows, holds the object's data.  Any other code
    that reaches into an object's __dict__, say through
    self.__dict__.setdefault(...), starts one lazily: only memoized may."""
    offenders = []
    for fname, tree in _trees().items():
        allowed = set()
        if fname == "linalg.py":
            memo = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                        and node.name == "memoized")
            allowed = {id(node) for node in ast.walk(memo)}
        offenders += [f"__dict__ ({fname}:{node.lineno})" for node in ast.walk(tree)
                      if _reaches_into_dict(node) and id(node) not in allowed]
        for init in ast.walk(tree):
            if not (isinstance(init, ast.FunctionDef) and init.name == "__init__"):
                continue
            for node in ast.walk(init):
                if isinstance(node, ast.Assign) and _is_empty_dict(node.value):
                    offenders += [f"self.{t.attr} ({fname}:{node.lineno})"
                                  for t in node.targets
                                  if isinstance(t, ast.Attribute)
                                  and getattr(t.value, "id", None) == "self"
                                  and t.attr.startswith("_")]
    assert not offenders, "hand-written memo: " + ", ".join(offenders)


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


def test_raw_operators_have_one_dispatch():
    """Inside the package only FockSpace.raw names create_raw or
    annihilate_raw: every other caller names a raw operator by its signed
    index through raw, so the dispatch and any count of raw calls have one
    home."""
    raw_names = {"create_raw", "annihilate_raw"}
    trees = _trees()
    space = next(node for node in trees["fock.py"].body
                 if isinstance(node, ast.ClassDef) and node.name == "FockSpace")
    allowed = {id(node) for method in space.body if isinstance(method, ast.FunctionDef)
               and method.name == "raw" for node in ast.walk(method)}
    offenders = [f"{fname}:{node.lineno}" for fname, tree in trees.items()
                 for node in ast.walk(tree)
                 if (getattr(node, "attr", None) in raw_names
                     or getattr(node, "id", None) in raw_names)
                 and id(node) not in allowed]
    assert not offenders, "raw operator named outside FockSpace.raw: " \
        + ", ".join(offenders)


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


def test_one_product_method_combines_word_images():
    """RingEngine.product_row is the one product: no other function both
    reads word images (word_on_basis, word_images, word_columns) and sums
    them, with combine, _apply or row_add_scaled, or over the words of
    express.  express itself reads one image, its leading word's on
    b_empty, and sums the expressions of lower classes; generator_on applies
    the one-letter images of its generator to a vector.  A second product
    loop, say in structure_constants or multiply, would be found here."""
    readers = {"word_on_basis", "word_images", "word_columns"}
    summers = {"express", "combine", "_apply", "row_add_scaled"}
    found = set()
    for tree in _trees().values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {getattr(sub, "id", None) or getattr(sub, "attr", None)
                         for sub in ast.walk(node) if sub is not node}
                if names & readers and names & summers:
                    found.add(node.name)
    assert found == {"product_row", "express", "generator_on"}, \
        "word images combined outside product_row: " + ", ".join(sorted(found))


def _callers(tree, callee):
    """The top-level functions and methods (Class.method) of a module whose
    bodies call callee(...), a nested closure counted with its outer
    function and a call outside every def as '<module>'."""
    found = set()
    for top in tree.body:
        for node in (top.body if isinstance(top, ast.ClassDef) else [top]):
            name = getattr(node, "name", "<module>")
            if node is not top:
                name = f"{top.name}.{name}"
            if any(isinstance(sub, ast.Call) and getattr(sub.func, "id", None) == callee
                   for sub in ast.walk(node)):
                found.add(name)
    return found


def test_single_ring_verifiers_take_their_engine():
    """A verifier that reads one ring is handed its RingEngine: inside
    ring.py only the verifiers that derive a ring from the model or compare
    two rings build an engine, and only the engine and the ambient ideal
    suite, whose operators must not pass the engine's gate, build a Fock
    space."""
    tree = _trees()["ring.py"]
    assert _callers(tree, "RingEngine") == {
        "verify_mod_h4_independence", "verify_ring_isomorphism",
        "verify_affine_plane_quotient"}
    assert _callers(tree, "FockSpace") == {"RingEngine.__init__", "verify_ideal_suite"}
