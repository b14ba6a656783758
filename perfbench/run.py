"""Benchmark of the chromhom CLI: time to solution, set-up and a traced run.

    python3 perfbench/run.py --workload homology-w6 --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the jobs of the workload run as users run them, one cold
``chromhom`` process per invocation, at most two at a time, each pinned to
its own CPU.  The jobs are taken round-robin in the seeded order, and a
slot that frees takes the next one: one turn of the list, then more while
the next job is expected to end within ``--seconds``.  After each cold run
of a job that uses the result cache (``homology --cache-dir``), the same
invocation re-runs ``RERUNS`` times from the cache it filled; a job
without a cache (``les``) re-runs cold, so there its re-runs are its cold
runs.  The end-to-end metrics come from per-job medians over the run, so
every sample counts.

The host's CPUs change speed by up to 1.6x within seconds, each on its
own, as other tenants load the cores they share.  A probe on each CPU
(``probe.py``) times a fixed chunk of work every 40 ms, and every time an
invocation reports is scaled by the probe chunks of its CPUs that ran
beside it, to the speed at which a chunk takes ``PROBE_REF_S``.  A time in
the metrics is thus in seconds of a quiet reference host; the header line
gives the unscaled ``wall_s`` and the median slowdown next to it.

With ``--trace 1`` every invocation runs instead inside
``perfbench/tracer.py`` with ``--jobs 1``, one at a time, once unwrapped
and once traced; the per-module metrics come from the traced pass and the
tracing overhead from comparing the two.  These are not scaled.

Every output is checked after the timed window (see ``workloads.Checker``).
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import bisect
import contextlib
import itertools
import json
import os
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import tracer
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SLOTS = 2  # engine processes at a time, one per CPU of the reference machine
SETUP_REPS = 15
RERUNS = 8  # re-runs from the cache after each cold run of a cached job
RUN_LIMIT_S = 165.0  # kill what still runs after this; a run must end by 180 s
PROBE_REF_S = 0.002  # CPU time of the probe's chunk on a quiet reference host
PROBE_PAD_S = 0.5  # probe chunks this close to an invocation count for it
SETUP_CODE = (
    "import sys\n"
    "from chromhom.cli import load_graph_document\n"
    "for path in sys.argv[1:]:\n"
    "    load_graph_document(path)\n"
)


@dataclass
class Proc:
    """Outcome of one child process."""

    code: int | None  # exit code; None when killed or never started
    wall: float
    cpu: float  # user + sys of the process and the children it waited for
    rss_mb: float  # peak resident set of the largest of those
    start: float = 0.0  # CLOCK_MONOTONIC, as the probe prints it
    cpus: frozenset = frozenset()  # the CPUs it was pinned to; empty if none


@dataclass
class Output:
    """One invocation of a job, kept for the correctness gate."""

    job: workloads.Job
    path: Path  # its stdout; stderr is beside it
    proc: Proc
    cold: Path | None  # stdout of the run whose bytes it must reproduce
    spans: Path | None = None  # where the tracer wrote its spans, if it did


class Pool:
    """Starts child processes and kills those still running on `stop`.

    Each child gets its own session, so killing its process group kills its
    workers too.  The caller waits for the child with wait4, which yields
    its rusage.
    """

    def __init__(self):
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), self.env.get("PYTHONPATH")) if p
        )
        self._lock = threading.Lock()
        self._running: set = set()
        self._killed: set = set()
        self.stopped = False

    def run(self, argv: list[str], out_path: Path,
            cpus: frozenset = frozenset()) -> Proc:
        """Run `argv` to its end, pinned to `cpus` unless that is empty."""
        with self._lock:
            if self.stopped:
                return Proc(None, 0.0, 0.0, 0.0)
            started = time.monotonic()
            with open(out_path, "wb") as out, \
                    open(out_path.with_suffix(".err"), "wb") as err:
                proc = subprocess.Popen(
                    argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                    env=self.env, cwd=ROOT, start_new_session=True,
                )
            self._running.add(proc.pid)
            if cpus:  # before it has done work worth measuring
                with contextlib.suppress(ProcessLookupError):
                    os.sched_setaffinity(proc.pid, cpus)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # a signal: kill and reap the child first
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            raise
        ended = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        with self._lock:
            self._running.discard(proc.pid)
            killed = proc.pid in self._killed
        return Proc(None if killed else proc.returncode, ended - started,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                    started, cpus)

    def stop(self) -> None:
        """Start nothing more and kill what runs; its waiters then return."""
        with self._lock:
            self.stopped = True
            for pid in self._running:
                self._killed.add(pid)
                with contextlib.suppress(ProcessLookupError):
                    os.killpg(pid, signal.SIGKILL)


class Probes:
    """One ``probe.py`` per CPU in use while a run lasts.

    The host this runs on changes speed by up to 1.6x within seconds, as
    other tenants load the cores its CPUs share, and each CPU does so on
    its own.  An invocation pinned to a CPU meets the same conditions as
    the probe pinned there, so `slowdown` (the probe's mean chunk time in
    the invocation's window over ``PROBE_REF_S``) scales its times back to
    the reference speed.
    """

    def __init__(self, cpus: list[int], log_dir: Path):
        self.logs = {cpu: log_dir / f"probe{cpu}.log" for cpu in cpus}
        self.procs: list[subprocess.Popen] = []
        self.chunks: dict[int, tuple[list[float], list[float]]] = {}

    def __enter__(self) -> "Probes":
        try:
            for cpu, log in self.logs.items():
                with open(log, "wb") as out:
                    self.procs.append(subprocess.Popen(
                        [sys.executable, str(BENCH_DIR / "probe.py"),
                         "--cpu", str(cpu)],
                        stdin=subprocess.DEVNULL, stdout=out, cwd=ROOT,
                        start_new_session=True,
                    ))
            time.sleep(2 * PROBE_PAD_S)  # chunks before the first invocation
        except BaseException:
            self._kill()
            raise
        return self

    def __exit__(self, *exc) -> None:
        if exc[0]:
            self._kill()
            return
        time.sleep(PROBE_PAD_S)  # chunks after the last invocation
        self._kill()
        for cpu, log in self.logs.items():
            # the kill may cut the last line; every earlier one is whole
            lines = log.read_text().split("\n")[:-1]
            rows = [line.split() for line in lines]
            self.chunks[cpu] = ([float(t) for t, _ in rows],
                                [float(d) for _, d in rows])

    def _kill(self) -> None:
        for proc in self.procs:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()

    def slowdown(self, proc: Proc) -> float:
        took = []
        for cpu in proc.cpus:
            ends, times = self.chunks[cpu]
            lo = bisect.bisect_left(ends, proc.start - PROBE_PAD_S)
            hi = bisect.bisect_right(ends, proc.start + proc.wall + PROBE_PAD_S)
            took += times[lo:hi]
        if not took:
            raise RuntimeError(f"no probe chunk on CPUs {sorted(proc.cpus)} "
                               f"around {proc.start:.3f}")
        return statistics.mean(took) / PROBE_REF_S


class Runner:
    """Runs one workload's invocations in a scratch directory of the
    checkout and keeps every output for the correctness gate."""

    def __init__(self, workload: workloads.Workload, work: Path, pool: Pool):
        self.workload = workload
        self.work = work
        self.pool = pool
        self.graph_dir = work / "graphs"
        self.graph_paths = workload.write_graphs(self.graph_dir)
        self.outputs: list[Output] = []
        self._ids = itertools.count(1)  # next() is atomic under the GIL

    def new_dir(self, prefix: str) -> Path:
        path = self.work / f"{prefix}{next(self._ids)}"
        path.mkdir()
        return path

    def setup_runs(self, cpus: frozenset = frozenset()) -> list[Proc]:
        argv = [sys.executable, "-c", SETUP_CODE, *map(str, self.graph_paths)]
        out = self.new_dir("setup") / "out"
        return [self.pool.run(argv, out, cpus) for _ in range(SETUP_REPS)]

    def invoke(self, k: int, cache_dir: Path | None, cold: Path | None = None,
               trace: bool | None = None, cpus: frozenset = frozenset()
               ) -> Output:
        """Run job `k` once.

        `cold` is the stdout of the run this one repeats, whose bytes it
        must reproduce.  With `trace` None the job runs as a ``chromhom``
        process; otherwise inside the tracer with ``--jobs 1``, recording
        spans when `trace` is true.
        """
        job = self.workload.jobs[k]
        n = next(self._ids)
        out = Output(job, self.work / f"{n}.out", None, cold)
        if trace is None:
            argv = [sys.executable, "-m", "chromhom.cli",
                    *job.argv(self.graph_dir, cache_dir)]
        else:
            argv = [sys.executable, str(BENCH_DIR / "tracer.py"),
                    "--run-id", str(n)]
            if trace:
                out.spans = self.work / f"{n}.spans"
                argv += ["--spans", str(out.spans)]
            argv += ["--", *job.argv(self.graph_dir, cache_dir, workers=1)]
        out.proc = self.pool.run(argv, out.path, cpus)
        self.outputs.append(out)
        return out

    def sequential_pass(self, cache_dir: Path | None,
                        cold: list[Output] | None = None,
                        trace: bool | None = None,
                        cpus: frozenset = frozenset()) -> list[Output]:
        """Each job once, one at a time, in the seeded order."""
        return [
            self.invoke(k, cache_dir, cold[k].path if cold else None, trace,
                        cpus)
            for k in range(len(self.workload.jobs))
        ]

    def gate(self, checker: workloads.Checker) -> tuple[int, int]:
        """(attempted, failed) results over every invocation so far."""
        attempted = failed = 0
        for out in self.outputs:
            attempted += out.job.ops
            if out.proc.code != 0:
                err = out.path.with_suffix(".err")  # absent if never started
                tail = (err.read_text(errors="replace").strip().splitlines()
                        if err.exists() else [])
                print(f"job {out.job.key!r} exited with {out.proc.code}: "
                      f"{tail[-1] if tail else ''}", file=sys.stderr)
                bad = out.job.ops
            elif out.cold and out.path.read_bytes() != out.cold.read_bytes():
                bad = out.job.ops
            else:
                bad = checker.failed_ops(out.job, out.path.read_bytes())
            if bad:
                print(f"job {out.job.key!r}: {bad} wrong result(s) in "
                      f"{out.path}", file=sys.stderr)
            failed += bad
        return attempted, failed


def makespan(durations: list[float], slots: int) -> float:
    """Time to run jobs of these durations in order, `slots` at a time."""
    free = [0.0] * slots
    for d in durations:
        free[free.index(min(free))] += d
    return max(free)


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def timed_run(runner: Runner, seconds: float) -> tuple[dict, str]:
    """The end-to-end metrics, in seconds at the probe's reference speed."""
    jobs = runner.workload.jobs
    cpus = sorted(os.sched_getaffinity(0))
    width = min(max(job.workers for job in jobs), len(cpus))
    slots = max(1, min(SLOTS, len(cpus)) // width)
    slot_cpus = [frozenset(cpus[i * width:(i + 1) * width])
                 for i in range(slots)]
    cold: list[list] = [[] for _ in jobs]  # per job: (turn, Output) of cold runs
    reruns: list[list] = [[] for _ in jobs]  # per job: Outputs of cache re-runs
    spent: list[list] = [[] for _ in jobs]  # per job: slot time of each turn
    lock = threading.Lock()
    issued = itertools.count()
    errors: list[BaseException] = []

    def take(end: float) -> tuple[int, int] | None:
        """The next job and its turn, or None when it would end too late."""
        with lock:
            n = next(issued)
            k, turn = n % len(jobs), n // len(jobs)
            if turn:
                guess = median(spent[k]) or max(map(median, spent))
                if time.monotonic() + guess > end:
                    return None
            return k, turn

    def slot(cpus: frozenset, end: float) -> None:
        try:
            while not runner.pool.stopped and (taken := take(end)) is not None:
                k, turn = taken
                cache = runner.new_dir("cache") if jobs[k].cached else None
                first = runner.invoke(k, cache, cpus=cpus)
                again = [
                    runner.invoke(k, cache, first.path, cpus=cpus)
                    for _ in range(RERUNS if cache else 0)
                ]
                with lock:
                    cold[k].append((turn, first))
                    reruns[k] += again
                    spent[k].append(sum(o.proc.wall for o in [first, *again]))
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)
            runner.pool.stop()

    with Probes(sorted(frozenset().union(*slot_cpus)), runner.work) as probes:
        setup = runner.setup_runs(slot_cpus[0])
        end = time.monotonic() + seconds
        threads = [threading.Thread(target=slot, args=(c, end))
                   for c in slot_cpus]
        for thread in threads:
            thread.start()
        try:
            for thread in threads:
                # short joins keep the main thread free for signals
                while thread.is_alive():
                    thread.join(0.2)
        except BaseException:
            runner.pool.stop()
            for thread in threads:
                thread.join()
            raise
    if errors:
        raise errors[0]

    def ref(proc: Proc, value: float) -> float:
        """`value`, a time of `proc`, at the probe's reference speed."""
        return value / probes.slowdown(proc) if proc.cpus else value

    runs = [[out for _, out in sorted(c, key=lambda c: c[0])] for c in cold]
    if not runner.workload.cached:
        # no result cache, so a re-run is a cold run; each must reproduce
        # the job's first one
        for outs in runs:
            for out in outs[1:]:
                out.cold = outs[0].path
        reruns = runs
    walls = [median([ref(o.proc, o.proc.wall) for o in outs]) for outs in runs]
    again = [median([ref(o.proc, o.proc.wall) for o in outs])
             for outs in reruns]
    metrics = {
        "wall_s": (makespan(walls, slots), "s"),
        "cpu_s": (sum(median([ref(o.proc, o.proc.cpu) for o in outs])
                      for outs in runs), "s"),
        "setup_s": (median([ref(p, p.wall) for p in setup]), "s"),
        "peak_rss_mb": (max(median([o.proc.rss_mb for o in outs])
                            for outs in runs), "MB"),
        "rerun_s": (makespan(again, slots), "s"),
    }
    slow = median([probes.slowdown(o.proc) for outs in runs for o in outs
                   if o.proc.cpus])
    raw = makespan([median([o.proc.wall for o in outs]) for outs in runs],
                   slots)
    note = (f"{sum(map(len, runs))} cold run(s) on CPUs {cpus[:slots * width]}, "
            f"host slowdown x{slow:.3f}, unscaled wall_s {raw:.3f}")
    return metrics, note


def traced_run(runner: Runner) -> tuple[dict, str]:
    """An unwrapped, then a traced pass of the jobs inside the tracer.

    Where the jobs use the result cache, each pass is followed by a re-run
    against the cache it filled, as in the timed run.  Both passes run on
    one CPU beside its probe, and every time, spans included, is scaled to
    the probe's reference speed as in the timed run.
    """
    cpus = frozenset(sorted(os.sched_getaffinity(0))[:1])
    passes = {}
    with Probes(sorted(cpus), runner.work) as probes:
        for trace in (False, True):
            cache = runner.new_dir("cache") if runner.workload.cached else None
            outs = runner.sequential_pass(cache, trace=trace, cpus=cpus)
            if cache:
                outs += runner.sequential_pass(cache, outs, trace, cpus)
            passes[trace] = outs
    totals = {
        trace: sum(out.proc.wall / probes.slowdown(out.proc) for out in outs)
        for trace, outs in passes.items()
    }
    docs = []
    for out in passes[True]:
        if out.spans and out.spans.exists():
            doc = json.loads(out.spans.read_text())
            scale = 1 / probes.slowdown(out.proc)
            for span in doc["spans"]:  # [name, start, end, parent, run id]
                span[1] *= scale
                span[2] *= scale
            docs.append(doc)
    summary = tracer.summarize(docs)
    reads = summary.get("cli.cache_reads", 0)
    hits = summary.get("cli.cache_hits", 0)
    summary["cli.cache_hit_ratio"] = hits / reads if reads else 0.0
    summary["trace.untraced_s"] = totals[False]
    summary["trace.traced_s"] = totals[True]
    summary["trace.overhead_frac"] = totals[True] / totals[False] - 1
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # a layer the workload never calls reads 0
    metrics = {
        spec["name"]: (summary.get(spec["name"], 0), spec["unit"])
        for spec in specs
    }
    return metrics, "one unwrapped and one traced pass"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so the engine processes are killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "chromhom" / "cli.py").is_file():
        print(f"no chromhom sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload](args.seed)
    pool = Pool()
    watchdog = threading.Timer(RUN_LIMIT_S, pool.stop)
    watchdog.start()
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
            runner = Runner(workload, Path(tmp), pool)
            try:
                if args.trace:
                    metrics, note = traced_run(runner)
                else:
                    metrics, note = timed_run(runner, args.seconds)
            finally:
                pool.stop()  # nothing may run once the directory goes
            attempted, failed = runner.gate(workloads.Checker(workload))
    finally:
        watchdog.cancel()

    print(f"{workload.name} seed={args.seed} trace={args.trace}: {note}; "
          f"{failed} of {attempted} results failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:>14.6g} {unit}")
    print(f"  {'ops_failed_frac':28s} {failed / attempted:>14.6g} ratio")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
