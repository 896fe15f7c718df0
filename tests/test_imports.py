"""No module imports a name it never uses.

Scans the syntax trees of the library modules (except ``__init__.py``,
which imports names to re-export them), of the test modules and of the
benchmark's modules and tests.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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
