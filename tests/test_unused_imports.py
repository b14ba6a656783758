"""Every imported name in the package and the tests is read somewhere.

A name counts as read when the module loads it (a bare name, or the base
of an attribute chain) or lists it in `__all__`.  The package's
`__init__.py` only re-exports, so it is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    [p for p in (ROOT / "src" / "chromhom").glob("*.py") if p.name != "__init__.py"]
    + list((ROOT / "tests").glob("*.py"))
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(
                elt.value for elt in ast.walk(node.value)
                if isinstance(elt, ast.Constant) and isinstance(elt.value, str)
            )
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in read]


def test_detector_sees_unused_and_exported_names():
    assert unused_imports("import os\nfrom a import b as c\nc()\n") == [
        "line 1: os"
    ]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("import os.path\nos.sep\n") == []


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): unused
        for path in FILES
        if (unused := unused_imports(path.read_text(encoding="utf-8")))
    }
    assert not found, found
