"""Every top-level name the package defines is used outside the tests.

A def, class or assignment at the top of a `src/chromhom` module passes
when `src/` reads it (a loaded bare name, or an attribute of that name
anywhere), when `chromhom._EXPORTS` exports it from that module, or when
the benchmark tracer wraps it (`perfbench/tracer.py`, loaded as in
`test_tracer_names.py`).  Dunder names are read by the interpreter and
are exempt.  A name that only tests read belongs in `tests/oracles.py`.

So is every member of a top-level class: a method, a property or a
`self.` attribute set in `__init__` passes when `src/` or the benchmark
(`perfbench/*.py` but its tests) reads it as an attribute, or when the
tracer wraps it as `Class.member`.  A member can be read only as an
attribute, so a bare name does not count, nor does an attribute that is
only stored.  Dunder members are exempt.  An attribute of another type
with the same name, such as `list.index`, still counts as a read.  A
field, an annotation in a class body such as a `NamedTuple`'s, also passes
when its module reads `_asdict`, which reads every field: the receiver's
class is not known statically, so the read counts for each class of the
module that reads it.
"""

import ast
from pathlib import Path

import chromhom
from test_tracer_names import NAMES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "chromhom"


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
            if not _dunder(name) and name not in read and exported.get(name) != module
            and (module, name) not in wrapped]


def _dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _loaded_attributes(source: str) -> set:
    return {n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def unused_members(sources: dict, readers: list, wrapped: set) -> list[str]:
    """`module.Class.member` of each method, property, `self.` attribute
    set in `__init__` and field of a top-level class in `sources` ({module:
    source}) that no source in `sources` or `readers` loads as an attribute
    and `wrapped` ({(module, "Class.member")}) does not hold.  A field also
    passes when its module loads `_asdict`."""
    defined, read = {}, set()  # defined: (module, path) -> is a field
    for module, source in sources.items():
        for cls in ast.parse(source).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for node in cls.body:
                if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                    defined[(module, f"{cls.name}.{node.target.id}")] = True
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    defined[(module, f"{cls.name}.{node.name}")] = False
                    if node.name == "__init__":
                        defined.update(((module, f"{cls.name}.{n.attr}"), False)
                                       for n in ast.walk(node)
                                       if isinstance(n, ast.Attribute)
                                       and isinstance(n.ctx, ast.Store)
                                       and isinstance(n.value, ast.Name)
                                       and n.value.id == "self")
    as_dicts = {module for module, source in sources.items()
                if "_asdict" in _loaded_attributes(source)}
    for source in [*sources.values(), *readers]:
        read |= _loaded_attributes(source)
    return [f"{module}.{path}" for (module, path), field in defined.items()
            if not _dunder(member := path.split(".")[1])
            and member not in read and (module, path) not in wrapped
            and not (field and module in as_dicts)]


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


def test_member_detector_sees_unread_and_wrapped_members():
    sources = {"a": "class C:\n"
                    "    def __init__(self):\n"
                    "        self.x = self.y = 1\n"
                    "        self.z = 2\n"
                    "    def f(self): return self.x\n"
                    "    @property\n"
                    "    def g(self): return 0\n"
                    "    def h(self): pass\n"
                    "    def __eq__(self, other): return True\n"
                    "def k(c): return c.f, h\n"}
    assert unused_members(sources, [], set()) == ["a.C.y", "a.C.z", "a.C.g", "a.C.h"]
    assert unused_members(sources, ["c.g.z"], {("a", "C.h")}) == ["a.C.y"]


def test_member_detector_sees_unread_fields():
    tuples = ("from typing import NamedTuple\n"
              "class T(NamedTuple):\n"
              "    u: int\n"
              "    v: int = 0\n"
              "    w = 1\n")
    assert unused_members({"a": tuples}, ["t.u"], set()) == ["a.T.v"]
    assert unused_members({"a": tuples + "def f(t): return t._asdict()\n"}, [], set()) == []
    assert unused_members({"a": tuples, "b": "def f(t): return t._asdict()\n"},
                          [], set()) == ["a.T.u", "a.T.v"]


def test_every_class_member_is_used():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    readers = [path.read_text(encoding="utf-8")
               for path in sorted((ROOT / "perfbench").glob("*.py"))
               if not path.name.startswith("test_")]
    assert unused_members(sources, readers, set(NAMES)) == []
