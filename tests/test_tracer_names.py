"""Every engine name the benchmark tracer wraps must still resolve.

`perfbench/tracer.py` looks up its spans and counts by module and attribute
path; a renamed or deleted engine function breaks `perfbench/run.py
--trace 1`, which the Tier-1 suite does not otherwise run.
"""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


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
