"""No module imports a name it never uses, the library defines nothing
that it and the benchmark never use, and each defaulted parameter of
the library is passed by some call in the library, the tests or the
benchmark.

Scans the syntax trees of the library modules (except ``__init__.py``,
which imports names to re-export them), of the test modules and of the
benchmark's modules and tests.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "pprlog"
FILES = sorted([p for p in (ROOT / "src" / "pprlog").glob("*.py")
                if p.name != "__init__.py"]
               + list((ROOT / "tests").glob("*.py"))
               + list((ROOT / "perfbench").glob("*.py"))
               + list((ROOT / "perfbench" / "tests").glob("*.py")))


def unused_imports(path: Path) -> list[str]:
    """``file:line name`` for each imported name the file never uses."""
    tree = ast.parse(path.read_text(), str(path))
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    rel = path.relative_to(ROOT)
    return [f"{rel}:{line} {name}" for name, line in imported.items()
            if name not in used]


def test_no_unused_imports():
    unused = [entry for path in FILES for entry in unused_imports(path)]
    assert not unused, "unused imports:\n" + "\n".join(unused)


def referenced_names() -> set[str]:
    """Every name that a ``Name``, an ``Attribute`` or an import in the
    library or the benchmark refers to."""
    names: set[str] = set()
    for path in [*SRC.glob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    names.update(alias.name.split("."))
    return names


def unused_definitions() -> list[str]:
    """``file:line name`` for each module-level function or class of the
    library, public or private, and each public method, that nothing in
    the library or the benchmark refers to.  A method that overrides one
    of a base class is used through it."""
    used = referenced_names()
    unused = []
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module(
            "pprlog" if path.stem == "__init__" else f"pprlog.{path.stem}")
        rel = path.relative_to(ROOT)
        for node in ast.parse(path.read_text(), str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("__") and node.name not in used:
                unused.append(f"{rel}:{node.lineno} {node.name}")
            if isinstance(node, ast.ClassDef):
                bases = getattr(module, node.name).__mro__[1:]
                unused += [f"{rel}:{item.lineno} {node.name}.{item.name}"
                           for item in node.body
                           if isinstance(item, ast.FunctionDef)
                           and not item.name.startswith("_")
                           and item.name not in used
                           and not any(item.name in vars(base)
                                       for base in bases)]
    return unused


def test_library_defines_only_what_it_or_the_benchmark_uses():
    unused = unused_definitions()
    assert not unused, "unused definitions:\n" + "\n".join(unused)


def passed_arguments() -> dict[str, list[tuple[float, set]]]:
    """Each name called in the library, the tests or the benchmark ->
    (positional arguments, keywords) of each call.  A ``*`` argument
    passes every positional parameter, and a ``**`` one (keyword None)
    every keyword."""
    calls: dict[str, list[tuple[float, set]]] = {}
    for path in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"),
                 *(ROOT / "perfbench").rglob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", getattr(func, "attr", None))
                positional = (float("inf") if any(
                    isinstance(a, ast.Starred) for a in node.args)
                    else len(node.args))
                calls.setdefault(name, []).append(
                    (positional, {k.arg for k in node.keywords}))
    return calls


def unpassed_defaults() -> list[str]:
    """``file:line function(parameter=)`` for each defaulted parameter of
    a module-level function, or of a method of a module-level class, of
    the library that no call of a function of that name passes, by
    keyword or by position.  A class's ``__init__`` is called by the
    class's name, and a method's calls do not pass ``self``."""
    calls = passed_arguments()
    unpassed = []
    for path in sorted(SRC.glob("*.py")):
        rel = path.relative_to(ROOT)
        for node in ast.parse(path.read_text(), str(path)).body:
            if isinstance(node, ast.FunctionDef):
                functions = [(node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                functions = [
                    (node.name if item.name == "__init__" else item.name,
                     item, 0 if any(getattr(d, "id", None) == "staticmethod"
                                    for d in item.decorator_list) else 1)
                    for item in node.body
                    if isinstance(item, ast.FunctionDef)]
            else:
                continue
            for name, fn, bound in functions:
                a = fn.args
                params = a.posonlyargs + a.args
                first = len(params) - len(a.defaults)
                defaulted = [(p.arg, i - bound) for i, p in
                             enumerate(params[first:], first)]
                defaulted += [(p.arg, float("inf")) for p, d in
                              zip(a.kwonlyargs, a.kw_defaults)
                              if d is not None]
                unpassed += [
                    f"{rel}:{fn.lineno} {name}({param}=)"
                    for param, i in defaulted
                    if not any(positional > i or param in keywords
                               or None in keywords
                               for positional, keywords
                               in calls.get(name, ()))]
    return unpassed


def test_every_defaulted_parameter_is_passed_somewhere():
    # a default that no call overrides is a constant in disguise
    unpassed = unpassed_defaults()
    assert not unpassed, ("defaulted parameters that no call passes:\n"
                          + "\n".join(unpassed))
