"""No module imports a name it never uses, and the library defines
nothing that it and the benchmark never use.

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
