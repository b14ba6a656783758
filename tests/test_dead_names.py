"""Every top-level name the package defines is used outside the tests.

A def, class or assignment at the top of a `src/chromhom` module passes
when `src/` reads it (a loaded bare name, or an attribute of that name
anywhere), when `chromhom._EXPORTS` exports it from that module, or when
the benchmark tracer wraps it (`perfbench/tracer.py`, loaded as in
`test_tracer_names.py`).  Dunder names are read by the interpreter and
are exempt.  A name that only tests read belongs in `tests/oracles.py`.
"""

import ast
from pathlib import Path

import chromhom
from test_tracer_names import NAMES

SRC = Path(__file__).resolve().parent.parent / "src" / "chromhom"


def unused_names(sources: dict, exported: dict, wrapped: set) -> list[str]:
    """`module.name` of each top-level definition in `sources` ({module:
    source}) that no source reads, `exported` ({name: module}) does not
    export from its module and `wrapped` ({(module, name)}) does not hold."""
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append((module, node.name))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.extend((module, n.id) for target in targets
                               for n in ast.walk(target) if isinstance(n, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    return [f"{module}.{name}" for module, name in defined
            if not (name.startswith("__") and name.endswith("__"))
            and name not in read and exported.get(name) != module
            and (module, name) not in wrapped]


def test_detector_sees_unread_exported_and_wrapped_names():
    sources = {"a": "def f(): pass\ndef g(): pass\nclass C: pass\nX: int = 1\n"
                    "Y = Z = 2\n__all__ = []\n",
               "b": "from .a import f\nimport a\nf(a.Y)\n"}
    assert unused_names(sources, {}, set()) == ["a.g", "a.C", "a.X", "a.Z"]
    assert unused_names(sources, {"g": "b"}, set()) == ["a.g", "a.C", "a.X", "a.Z"]
    assert unused_names(sources, {"g": "a", "Z": "a"}, {("a", "C"), ("a", "X")}) == []


def test_every_top_level_name_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    wrapped = {(module, path.split(".")[0]) for module, path in NAMES}
    assert unused_names(sources, chromhom._EXPORTS, wrapped) == []
