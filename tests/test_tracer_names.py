"""Every engine name the benchmark tracer wraps must still resolve, and a
traced run must record the spans of the layers it runs.

`perfbench/tracer.py` looks up its spans and counts by module and attribute
path; a renamed or deleted engine function breaks `perfbench/run.py
--trace 1`, which the Tier-1 suite does not otherwise run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()
NAMES = [
    *tracer.SPANS.values(),
    *tracer.COUNTS.values(),
    ("complexes", "ChainComplex.__init__"),
]


@pytest.mark.parametrize("module,path", NAMES,
                         ids=[f"{m}.{p}" for m, p in NAMES])
def test_traced_name_resolves(module, path):
    owner, attr = tracer._resolve(module, path)
    assert callable(getattr(owner, attr))


SEGMENT_DOC = {
    "vertices": [{"id": "a", "weight": 1}, {"id": "b", "weight": 2}],
    "edges": [["a", "b"]],
}
COMPLEX_SPANS = {"cli.main", "cli.load", "complexes.levels",
                 "complexes.assemble", "complexes.per_edge_map",
                 "complexes.dsquared", "complexes.equivariance",
                 "homology.table", "repn.image_characters",
                 "linalg.rank_forward", "characters.table"}


@pytest.mark.parametrize("argv,spans", [
    (["homology"], COMPLEX_SPANS | {"cli.payload"}),
    (["les", "--edge", "0"], COMPLEX_SPANS | {
        "lescheck.ses_maps", "lescheck.homology_basis",
        "lescheck.verify_les", "linalg.kernel_basis", "linalg.matmul"}),
    (["verify"], COMPLEX_SPANS | {"lescheck.tables"}),
], ids=["homology", "les", "verify"])
def test_traced_run_records_its_layers(tmp_path, argv, spans):
    graph, trace = tmp_path / "segment.json", tmp_path / "spans.json"
    graph.write_text(json.dumps(SEGMENT_DOC))
    proc = subprocess.run(
        [sys.executable, str(TRACER), "--spans", str(trace), "--",
         *argv, str(graph)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(trace.read_text())
    assert spans <= {span[0] for span in doc["spans"]}
    assert doc["counts"]["complexes.dim_total"] > 0
    assert doc["counts"]["complexes.nnz_total"] > 0
