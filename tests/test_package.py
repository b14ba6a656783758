"""The package loads each engine module on first use.

`chromhom.__all__` names every export, and `chromhom.X` imports X's module
when it is first read; `chromhom.cli` imports the engine modules a command
runs inside that command, so a process loads only what it uses.  The
records are `NamedTuple`s, so no process loads `dataclasses` and the
`inspect` it imports, and `symfunc` stays off the `homology` and `les`
paths.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import chromhom

SRC = os.path.dirname(os.path.dirname(chromhom.__file__))
SEGMENT_DOC = {
    "vertices": [{"id": "a", "weight": 1}, {"id": "b", "weight": 2}],
    "edges": [["a", "b"]],
}
MODULES = ["characters", "complexes", "graphs", "homology", "lescheck",
           "linalg", "partitions", "repn", "symfunc"]


@pytest.mark.parametrize("name", chromhom.__all__)
def test_export_is_the_defining_modules_object(name):
    value = getattr(chromhom, name)
    assert value.__module__.startswith("chromhom.")
    assert getattr(sys.modules[value.__module__], name) is value
    assert name in dir(chromhom)


@pytest.mark.parametrize("name", MODULES)
def test_from_import_reaches_each_module(name):
    namespace: dict = {}
    exec(f"from chromhom import {name}", namespace)
    assert namespace[name] is importlib.import_module(f"chromhom.{name}")


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        chromhom.no_such_name
    assert not hasattr(chromhom, "homology_payload")


WATCHED = ("chromhom", "dataclasses", "inspect")


def loaded_modules(code: str, *argv: str) -> set[str]:
    """The `chromhom` modules, and `dataclasses` and `inspect` if loaded, of
    a fresh interpreter after `code`."""
    proc = subprocess.run(
        [sys.executable, "-c", code + "\nimport json, sys\nprint(json.dumps(sorted("
         f"m for m in sys.modules if m.split('.')[0] in {WATCHED})))", *argv],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": SRC},
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_importing_the_cli_loads_only_graphs():
    assert loaded_modules("import chromhom.cli") == {
        "chromhom", "chromhom.cli", "chromhom.graphs"}


CLI_CODE = "import sys\nfrom chromhom import cli\nassert cli.main(sys.argv[1:]) == 0"


def test_homology_loads_no_les_check_and_a_hit_no_engine(tmp_path):
    graph = tmp_path / "segment.json"
    graph.write_text(json.dumps(SEGMENT_DOC))
    argv = ["homology", str(graph), "--cache-dir", str(tmp_path / "cache")]
    cold = loaded_modules(CLI_CODE, *argv)
    assert "chromhom.homology" in cold
    assert not cold & {"chromhom.lescheck", "chromhom.symfunc", "dataclasses", "inspect"}
    assert loaded_modules(CLI_CODE, *argv) == {
        "chromhom", "chromhom.cli", "chromhom.graphs"}


def test_les_loads_no_symfunc_and_no_dataclasses(tmp_path):
    graph = tmp_path / "segment.json"
    graph.write_text(json.dumps(SEGMENT_DOC))
    loaded = loaded_modules(CLI_CODE, "les", str(graph), "--edge", "0")
    assert "chromhom.lescheck" in loaded
    assert not loaded & {"chromhom.symfunc", "dataclasses", "inspect"}
