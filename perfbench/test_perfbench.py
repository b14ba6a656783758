"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench -q``.

They use graphs small enough that every test takes a few seconds.
"""

import json
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import run
import tracer
import workloads

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_GRAPHS = {
    "K2(1,2)": workloads.graph_doc([1, 2], [(0, 1)]),
    "P3(1,1,1)": workloads.graph_doc([1, 1, 1], [(0, 1), (1, 2)]),
}


def tiny_workload() -> workloads.Workload:
    job = workloads.Job("homology tiny", "homology", list(TINY_GRAPHS),
                        workers=2, cached=True)
    return workloads.Workload("tiny", dict(TINY_GRAPHS), [job])


def tiny_runner(tmp_path: Path) -> run.Runner:
    return run.Runner(tiny_workload(), tmp_path, run.Pool())


def units(specs: list[dict]) -> dict:
    return {spec["name"]: spec["unit"] for spec in specs}


def test_tiny_pass_emits_every_metric(tmp_path):
    runner = tiny_runner(tmp_path / "timed")
    metrics, _ = run.timed_run(runner, seconds=0)
    assert sum(out.cold is None for out in runner.outputs) == 1  # one turn
    assert {k: unit for k, (_, unit) in metrics.items()} == units(
        BENCHMARK["end_to_end"])
    assert all(value > 0 for value, _ in metrics.values())

    traced = tiny_runner(tmp_path / "traced")
    layer, _ = run.traced_run(traced)
    assert {k: unit for k, (_, unit) in layer.items()} == units(
        BENCHMARK["per_layer"])
    # the tiny homology jobs call every layer but lescheck and kernel_basis,
    # so any other zero is a metric name the tracer does not produce
    zero = {k for k, (value, _) in layer.items() if not value}
    assert zero == {"linalg.kernel_basis_s", "lescheck.ses_maps_s",
                    "lescheck.homology_basis_s", "lescheck.tables_s",
                    "lescheck.verify_les_self_s"}
    assert layer["cli.cache_hit_ratio"][0] == 0.5  # cold misses, re-run hits

    checker = workloads.Checker(tiny_workload(), golden={})
    assert runner.gate(checker) == (len(runner.outputs) * 2, 0)
    assert traced.gate(checker) == (len(traced.outputs) * 2, 0)


def test_corrupted_output_counts_as_failed(tmp_path):
    runner = tiny_runner(tmp_path)
    runner.sequential_pass(runner.new_dir("cache"))
    checker = workloads.Checker(tiny_workload(), golden={})
    assert runner.gate(checker) == (2, 0)

    job, out_path = runner.outputs[0].job, runner.outputs[0].path
    doc = json.loads(out_path.read_bytes())
    cell = doc["results"][1]["table"]["homology"][0]
    cell["irreducibles"][0][1] += 1
    out_path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    assert runner.gate(checker) == (2, 1)

    # a job with a golden digest fails as a whole on any changed byte
    golden = workloads.Checker(tiny_workload(), golden={job.key: "0" * 64})
    assert runner.gate(golden) == (2, 2)


def test_rerun_must_reproduce_the_cold_pass(tmp_path):
    runner = tiny_runner(tmp_path)
    cache = runner.new_dir("cache")
    cold = runner.sequential_pass(cache)
    again = runner.sequential_pass(cache, cold)
    checker = workloads.Checker(tiny_workload(), golden={})
    assert runner.gate(checker) == (4, 0)
    path = again[0].path
    path.write_bytes(path.read_bytes().replace(b'"results"', b'"results" '))
    assert runner.gate(checker) == (4, 2)


def test_traced_self_times_fit_in_their_parents(tmp_path):
    graph = tmp_path / "p3.json"
    graph.write_text(json.dumps(TINY_GRAPHS["P3(1,1,1)"]))
    argv = ["les", "--format", "json", "--edge", "0", str(graph)]
    plain = tmp_path / "plain.out"
    commands = [
        ([sys.executable, "-m", "chromhom.cli", *argv], plain),
        ([sys.executable, str(run.BENCH_DIR / "tracer.py"),
          "--spans", str(tmp_path / "spans.json"), "--", *argv],
         tmp_path / "traced.out"),
    ]
    pool = run.Pool()
    assert [pool.run(argv, out).code for argv, out in commands] == [0, 0]
    assert (tmp_path / "traced.out").read_bytes() == plain.read_bytes()

    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    names = {span[0] for span in spans}
    assert {"cli.main", "lescheck.verify_les", "lescheck.ses_maps",
            "lescheck.homology_basis", "complexes.per_edge_map"} <= names
    roots = [span for span in spans if span[3] == -1]
    assert [span[0] for span in roots] == ["cli.main"]
    own = tracer.self_times(spans)
    eps = 1e-9
    assert all(t >= -eps for t in own)
    for k, (_, start, end, parent, _) in enumerate(spans):
        if parent >= 0:
            assert spans[parent][1] <= start <= end <= spans[parent][2]
    root = roots[0]
    assert sum(own) <= root[2] - root[1] + eps


def test_seed_fixes_the_inputs():
    for name, make in workloads.WORKLOADS.items():
        assert make(7) == make(7), name
    batch = workloads.batch_small(7)
    assert len(batch.graphs) == 44
    assert batch != workloads.batch_small(8)
    for doc in batch.graphs.values():
        assert sum(v["weight"] for v in doc["vertices"]) <= 5
        assert len(doc["vertices"]) <= 4
    assert sorted(workloads.les_c4(7).jobs[k].extra[1] for k in range(4)) == [
        "0", "1", "2", "3"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "les-c4",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""


def test_stop_kills_stragglers(tmp_path):
    sleeper = [sys.executable, "-c", "import time; time.sleep(60)"]
    pool = run.Pool()
    procs = {}

    def slot(k):
        while not pool.stopped:
            procs.setdefault(k, []).append(
                pool.run(sleeper, tmp_path / f"{k}.out"))

    threads = [threading.Thread(target=slot, args=(k,)) for k in range(2)]
    began = time.perf_counter()
    for thread in threads:
        thread.start()
    time.sleep(0.5)
    pool.stop()
    for thread in threads:
        thread.join()
    assert time.perf_counter() - began < 10
    assert [p.code for k in range(2) for p in procs[k]] == [None, None]
    assert pool.run(sleeper, tmp_path / "late.out").code is None


def test_makespan():
    assert run.makespan([16.0, 10.0], 2) == 16.0
    assert run.makespan([9.0, 8.0, 9.0, 7.0], 2) == 17.0
    assert run.makespan([7.0], 1) == 7.0


def test_slowdown_reads_the_probes_of_the_pinned_cpus():
    probes = run.Probes([0, 1], Path("."))
    ref = run.PROBE_REF_S
    probes.chunks = {
        0: ([1.0, 2.0, 3.0, 9.0], [ref, 2 * ref, 2 * ref, 5 * ref]),
        1: ([2.5], [4 * ref]),
    }
    proc = run.Proc(0, 1.0, 1.0, 1.0, start=1.8, cpus=frozenset({0}))
    assert abs(probes.slowdown(proc) - 2.0) < 1e-9  # chunks ending at 2 and 3
    both = run.Proc(0, 1.0, 1.0, 1.0, start=1.8, cpus=frozenset({0, 1}))
    assert abs(probes.slowdown(both) - 8 / 3) < 1e-9
