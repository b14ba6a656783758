"""Only `complexes` reads the layout of a chain level.

A level's basis is its states' offsets and shapes (`ChainLevel.offsets`
and `ChainLevel.shapes`), and `complexes.block_matrix` is the one writer
of a map between two levels.  So no other `src/chromhom` module reads
either attribute: the differentials, the SES maps and the connecting map
are all placed by that one function.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chromhom"
LAYOUT = {"offsets", "shapes"}
OWNER = "complexes"


def layout_readers(sources: dict) -> list[str]:
    """`module.attribute` of each layout attribute that a module of
    `sources` ({module: source}) other than the owner reads."""
    return sorted({f"{module}.{node.attr}" for module, source in sources.items()
                   if module != OWNER for node in ast.walk(ast.parse(source))
                   if isinstance(node, ast.Attribute) and node.attr in LAYOUT})


def test_detector_sees_layout_reads_outside_the_owner():
    sources = {"complexes": "level.offsets[j]\nlevel.shapes[mask]\n",
               "a": "for m, o in lv.offsets.get(j, {}).items(): pass\n",
               "b": "x = cx.levels[i].shapes\ny = level.runs(j)\n",
               "c": "offsets = shapes = 1\n"}
    assert layout_readers(sources) == ["a.offsets", "b.shapes"]


def test_only_complexes_reads_the_level_layout():
    sources = {path.stem: path.read_text(encoding="utf-8")
               for path in sorted(SRC.glob("*.py"))}
    assert OWNER in sources
    assert layout_readers(sources) == []
