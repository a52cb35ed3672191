"""rampwalk benchmark: one workload, one process, checked against the reference kernel.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``. With ``--trace 0`` it measures the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` it wraps the program's public
functions and reports the per-layer metrics instead. The last line of
stdout is the result object; the line before it carries provenance and
a summary, and a copy of both goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import traceback
from pathlib import Path

import numpy as np

import reference
import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES = 11  # fresh processes timed per run, spread over it; setup_s is their median

SETUP_PROBE = (
    "import sys\n"
    f"sys.path.insert(0, {str(SRC)!r})\n"
    "import rampwalk, rampwalk.cli\n"
    "rampwalk.load_reference_catalog()\n"
    "print('ready', flush=True)\n"
)


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_program():
    if not (SRC / "rampwalk" / "__init__.py").is_file():
        raise BenchError(f"no rampwalk sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import rampwalk
    import rampwalk.cli

    if Path(rampwalk.__file__).resolve().parent != SRC / "rampwalk":
        raise BenchError(f"imported rampwalk from {rampwalk.__file__}, not from {SRC}")
    return rampwalk


def listed_metrics(trace: int) -> dict[str, dict]:
    """The metrics BENCHMARK.json lists for this kind of run, by name."""
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m for m in config["per_layer" if trace else "end_to_end"]}


def measure_setup(count: int) -> list[float]:
    """Seconds from starting a fresh interpreter to rampwalk being ready, per probe."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_PROBE], cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        try:
            line = proc.stdout.readline()
            times.append(time.perf_counter() - start)
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise BenchError(f"setup probe failed (exit {code})")
    return times


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            paths = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "rampwalk").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    text = head.read_text(encoding="utf-8").strip()
    if text.startswith("ref: "):
        ref_file = ROOT / ".git" / text[5:]
        return ref_file.read_text(encoding="utf-8").strip() if ref_file.is_file() else None
    return text


def provenance(program, args, config_hash: str) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "rampwalk_version": program.__version__,
        "rampwalk_source_sha256": source_digest(),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config_sha256": config_hash,
    }


def config_digest(args, ops) -> str:
    """Hash of everything that decides the work: workload, seed, run length and inputs."""
    doc = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "inputs": [[op.label, op.argv, op.schedule] for op in ops],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True, default=repr).encode()).hexdigest()[:16]


class Runner:
    """Runs passes over the input set and checks each operation afterwards."""

    def __init__(self, workload, program, scratch: Path):
        self.workload = workload
        self.program = program
        self.scratch = scratch
        self.ops = workload.inputs()
        self.latencies: list[float] = []
        self.by_op: list[list[float]] = [[] for _ in self.ops]  # latencies of each input, across passes
        self.rel_by_op: list[list[float]] = [[] for _ in self.ops]  # the same over their yardsticks
        self.yardsticks: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.revivals = 0
        self.recalled = 0
        self._files = 0

    def _call(self, op):
        self._files += 1
        out = self.scratch / f"op{self._files}.json"
        return self.workload.run(self.program, op, out)

    def warm(self) -> None:
        self.workload.yardstick()
        for op in self.workload.warmup():
            self._call(op)

    def _yardstick(self) -> float:
        t0 = time.perf_counter()
        self.workload.yardstick()
        elapsed = time.perf_counter() - t0
        self.yardsticks.append(elapsed)
        return elapsed

    def one_pass(self, call=None, yardstick: bool = False) -> float:
        """Run the input set once; returns its wall time. Checks follow, untimed.

        With ``yardstick``, the workload's yardstick runs and is timed
        before the first operation and after each one, and each latency
        is also kept over the mean of the yardsticks on either side of
        it. The pass time then covers the operations only.
        """
        call = call or self._call
        results = []
        sticks = [self._yardstick()] if yardstick else []
        start = time.perf_counter()
        for op in self.ops:
            t0 = time.perf_counter()
            try:
                result = call(op)
                error = None
            except SystemExit as exc:  # argparse rejects argv by exiting
                result, error = None, f"{op.label}: exit {exc.code}"
            except Exception:
                result, error = None, f"{op.label}: {traceback.format_exc(limit=3)}"
            results.append((op, time.perf_counter() - t0, result, error))
            if yardstick:
                sticks.append(self._yardstick())
        wall = time.perf_counter() - start
        if yardstick:
            wall = sum(latency for _, latency, _, _ in results)
        for i, (op, latency, result, error) in enumerate(results):
            self.attempted += 1
            self.latencies.append(latency)
            self.by_op[i].append(latency)
            if yardstick:
                self.rel_by_op[i].append(2.0 * latency / (sticks[i] + sticks[i + 1]))
            if error is None:
                outcome = self.workload.check(op, result)
                self.revivals += outcome.revivals
                self.recalled += outcome.recalled
                error = None if outcome.ok else outcome.detail
            if error is not None:
                self.failures.append(error)
        return wall


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 20:
        return None
    p = int(100 * (1 - 10 / n))
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def run_untraced(runner: Runner, seconds: float, setup: list[float]) -> tuple[dict, dict]:
    """Repeat passes for ``seconds``; report times relative to the workload's yardstick.

    The host's speed moves by a third or more within seconds, and a slow
    stretch can cover a whole run, so seconds from one run to the next
    differ by more than a regression worth catching. Each latency is
    divided by the mean of the yardsticks timed just before and just
    after it, on the same host at nearly the same moment; each input's
    figure is the median of those ratios across passes, and ``wall_rel``
    sums them over the input set. The median input's figure and the
    seconds are kept in the summary.

    The set-up probes go between passes, spread over the run like the
    passes, so their median does not rest on the host's speed at one
    moment. They are appended to ``setup``.
    """
    walls = []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        due = math.ceil(SETUP_PROBES * (time.perf_counter() - start) / seconds)
        setup += measure_setup(min(max(due, 1), SETUP_PROBES) - len(setup))
        walls.append(runner.one_pass(yardstick=True))
    setup += measure_setup(SETUP_PROBES - len(setup))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    recall = runner.recalled / runner.revivals if runner.revivals else 0.0
    per_op = [statistics.median(samples) for samples in runner.by_op]
    rel_per_op = [statistics.median(samples) for samples in runner.rel_by_op]
    metrics = {
        "wall_rel": (sum(rel_per_op), "yardstick"),
        "peak_rss_mb": (rss_mb, "MB"),
        "scan_recall": (recall, "ratio"),
    }
    summary = {"passes": len(walls), "operations": len(runner.latencies),
               "op_p50_rel": statistics.median(rel_per_op), "rel_per_input": rel_per_op,
               "wall_s": sum(per_op), "op_p50_s": statistics.median(per_op),
               "yardstick_s": statistics.median(runner.yardsticks),
               "pass_wall_median_s": statistics.median(walls),
               "samples": {"pass_walls_s": walls, "latencies_s": runner.latencies,
                           "yardsticks_s": runner.yardsticks}}
    tail = tail_percentile(runner.latencies)
    if tail is not None:
        summary["op_tail_s"] = {"percentile": tail[0], "value": tail[1]}
    return metrics, summary


def run_traced(runner: Runner, program, seconds: float, dump: Path) -> tuple[dict, dict]:
    """Alternate untraced and traced passes, then one pass under tracemalloc."""
    tracer = spans.Tracer(program)
    traced_call = tracer.wrap("bench.op", runner._call)
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(runner.one_pass())
        tracer.install()
        try:
            traced.append(runner.one_pass(traced_call))
        finally:
            tracer.uninstall()
    tracemalloc.start()
    try:
        runner.one_pass()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tracer.dump(dump)
    metrics = spans.layer_metrics(tracer.names, tracer.spans, len(traced))
    traced_wall = sum(traced) / len(traced)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.accounted"] = (metrics["trace.self_sum_s"][0] / traced_wall, "ratio")
    metrics["trace.overhead"] = (statistics.median(traced) / statistics.median(plain) - 1.0, "ratio")
    metrics["mem.traced_peak_mb"] = (peak / 2**20, "MB")
    return metrics, {"passes": len(traced), "spans": len(tracer.spans), "span_file": str(dump.relative_to(ROOT)),
                     "samples": {"untraced_pass_walls_s": plain, "traced_pass_walls_s": traced}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        listed = listed_metrics(args.trace)
        program = load_program()
        setup: list[float] = []
    except (BenchError, ImportError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="ops-", dir=OUT))
    try:
        runner = Runner(workload, program, scratch)
        config_hash = config_digest(args, runner.ops)
        runner.warm()
        stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        if args.trace:
            metrics, summary = run_traced(runner, program, args.seconds, OUT / f"spans-{stem}.json.gz")
        else:
            metrics, summary = run_untraced(runner, args.seconds, setup)
            metrics["setup_s"] = (statistics.median(setup), "s")
            summary["samples"]["setup_probes_s"] = setup
        if args.workload == "revival_scan":
            summary["recall_by_row"] = workload.recall_detail()
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    measured = {name: unit for name, (_, unit) in metrics.items()}
    if measured != {name: m["unit"] for name, m in listed.items()}:
        print("bench: measured metrics or units differ from BENCHMARK.json", file=sys.stderr)
        return 1
    summary["attempted"] = runner.attempted
    summary["failed"] = len(runner.failures)
    summary["error_rate"] = len(runner.failures) / runner.attempted
    summary["failures"] = runner.failures[:5]
    summary["reference_leak_tol"] = reference.LEAK_TOL
    samples = summary.get("samples", {})
    counts = {"wall_rel": len(samples.get("pass_walls_s", ())),
              "setup_s": len(setup), "peak_rss_mb": 1, "scan_recall": runner.revivals}
    for name, (value, unit) in sorted(metrics.items()):
        detail = f"{listed[name]['better']} is better, n={counts[name]}" if name in counts else ""
        print(f"{args.workload:22s} {name:44s} {value:14.6g} {unit:6s} {detail}")
    for name, unit in (("op_p50_rel", "yardstick"), ("wall_s", "s"), ("op_p50_s", "s"), ("yardstick_s", "s")):
        if name in summary:
            print(f"{args.workload:22s} {name:44s} {summary[name]:14.6g} {unit:6s} lower is better, not listed")
    if "op_tail_s" in summary:
        tail = summary["op_tail_s"]
        print(f"{args.workload:22s} {'op_tail_s':44s} {tail['value']:14.6g} s      lower is better, "
              f"p{tail['percentile']} of n={runner.attempted}")
    print(f"{args.workload:22s} {'error_rate':44s} {summary['error_rate']:14.6g} ratio  lower is better, "
          f"{summary['failed']} of n={summary['attempted']}")
    for failure in runner.failures[:5]:
        print(f"bench: FAILED {failure}", file=sys.stderr)

    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in sorted(metrics.items())},
    }
    record = {"provenance": provenance(program, args, config_hash), "summary": summary}
    (OUT / f"result-{stem}.json").write_text(json.dumps({**record, "result": result}, indent=1) + "\n")
    print(json.dumps({"provenance": record["provenance"],
                      "summary": {k: v for k, v in summary.items() if k != "samples"}}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
