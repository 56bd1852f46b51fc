#!/usr/bin/env python3
"""Scan benchmark for pupsec.

Usage (from the repository root):
    python3 perfbench/run.py --workload corpus|chain|branchy --seed N \
        --seconds S --trace 0|1

The benchmark writes the workload's manifests for seed N under
``.perfbench/``, after checking that seed 0 still matches its digest in
``perfbench/digests.json``.  With ``--trace 0`` it then runs a closed
loop with one client: one ``pupsec scan DIR --out FILE`` at a time, each
in a fresh interpreter, with the default mode, format and worker count,
until S seconds have passed.  Every report is checked (see
``checks.py``).  With ``--trace 1`` it instead runs ``scan()`` in-process
with every layer call traced (``tracing.py``), then untraced at one
worker and at the default worker count.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; ``attempted``
counts every (scan, file) outcome checked, ``failed`` the wrong ones.
Metric names, units and directions are declared in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional

import workloads
from checks import failed_files

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BASE = ROOT / ".perfbench"  # everything the benchmark writes
WORK = BASE / "work"
SETUP_SAMPLES = 15
SCAN_TIMEOUT_S = 150.0
POLL_S = 0.05


class BenchError(Exception):
    """The benchmark cannot produce a valid result."""


# --- processes ----------------------------------------------------------------


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PUPSEC_JOBS", None)  # the scan must use its default worker count
    return env


def _descendants_rss_kb(pid: int) -> int:
    """Resident memory of *pid* and all its descendants, from /proc."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "rb") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(b")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    page_kb = os.sysconf("SC_PAGE_SIZE") // 1024
    total, stack = 0, [pid]
    while stack:
        p = stack.pop()
        stack.extend(children.get(p, ()))
        try:
            with open(f"/proc/{p}/statm", "rb") as fh:
                total += int(fh.read().split()[1]) * page_kb
        except OSError:
            pass
    return total


@dataclass
class CliRun:
    cpu_s: float  # CPU time of pupsec.cli.main inside the child, workers included
    peak_rss_mb: float
    report: Optional[bytes]  # None when the scan aborted
    skipped: set[str]


def run_cli(tag: str, extra: list[str], input_dir: Path) -> CliRun:
    """Run ``pupsec scan input_dir --out ...`` with *extra* arguments in a
    fresh interpreter and wait for it.

    Peak memory is the larger of the child's own ``ru_maxrss`` (which
    covers its waited-for descendants) and the sampled resident size
    of its whole process tree, so that memory held by worker processes
    counts too."""
    out, err, report_path = (WORK / f"{tag}.{ext}" for ext in ("out", "err", "report"))
    argv = [sys.executable, str(HERE / "scan_once.py"), "scan", str(input_dir),
            "--out", str(report_path), *extra]
    with open(out, "wb") as stdout, open(err, "wb") as stderr:
        proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr, env=_child_env(), cwd=ROOT)
    deadline = time.monotonic() + SCAN_TIMEOUT_S
    peak_kb = 0
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                break
            peak_kb = max(peak_kb, _descendants_rss_kb(proc.pid))
            if time.monotonic() > deadline:
                raise BenchError(f"scan of {input_dir} did not finish in {SCAN_TIMEOUT_S:.0f} s")
            time.sleep(POLL_S)
    finally:
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    lines = out.read_text().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {"exit": proc.returncode}
    ok = result["exit"] == 0 and report_path.exists()
    skipped = {
        Path(line[len("pupsec: skipped "):].split(": ", 1)[0]).name
        for line in err.read_text().splitlines()
        if line.startswith("pupsec: skipped ")
    }
    run = CliRun(
        cpu_s=result["cpu_s"] if ok else 0.0,
        peak_rss_mb=max(float(usage.ru_maxrss), peak_kb) / 1024.0,
        report=report_path.read_bytes() if ok else None,
        skipped=skipped,
    )
    report_path.unlink(missing_ok=True)
    return run


def setup_seconds() -> float:
    """Median CPU time of a fresh interpreter importing ``pupsec.cli``.
    A first, uncounted import lets bytecode caches fill."""
    argv = [sys.executable, "-c", "import pupsec.cli"]
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.Popen(argv, env=_child_env(), cwd=ROOT)
        watchdog = threading.Timer(SCAN_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            watchdog.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(f"importing pupsec.cli failed with exit code {proc.returncode}")
        if i:
            samples.append(usage.ru_utime + usage.ru_stime)
    return statistics.median(samples)


# --- workloads ----------------------------------------------------------------


def make_workload(name: str, seed: int) -> workloads.Workload:
    """Generate the workload for *seed*.  Seed 0 is generated first and
    checked against its pinned digest, so that a change to a generator,
    or to the pupsec code the corpus generator uses, fails loudly."""
    generate = workloads.GENERATORS[name]
    canary = generate(0, WORK / "input")
    if canary.digest() != json.loads((HERE / "digests.json").read_text())[name]:
        raise BenchError(f"{name} seed 0 drifted from perfbench/digests.json")
    return generate(seed, WORK / "input")


# --- the two kinds of run ---------------------------------------------------------


def timed_run(workload: workloads.Workload, seconds: float) -> tuple[int, int, dict[str, float]]:
    setup_s = setup_seconds()
    # Untimed references for the corpus, which has no findings known by
    # construction: the same scan at one worker, and in pattern mode for
    # the taint-subset check.
    reference = pattern = None
    if workload.expected is None:
        reference = run_cli("jobs1", ["--jobs", "1"], workload.root).report
        pattern = run_cli("pattern", ["--mode", "pattern"], workload.root).report
    refs_ok = workload.expected is not None or None not in (reference, pattern)

    samples: list[CliRun] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not samples or time.perf_counter() < deadline:
        run = run_cli("scan", [], workload.root)
        samples.append(run)
        attempted += len(workload.files)
        if refs_ok:
            failed += len(failed_files(workload, run.report, run.skipped, reference, pattern))
        else:
            failed += len(workload.files)
    return attempted, failed, {
        "lines_per_cpu_s": statistics.median(workload.lines / r.cpu_s if r.cpu_s else 0.0
                                             for r in samples),
        "setup_s": setup_s,
        "peak_rss_mb": statistics.median(r.peak_rss_mb for r in samples),
        "correct_share": 1.0 - failed / attempted,
    }


class _WorkerSampler:
    """Counts the most threads and child processes alive at once while a
    scan runs in this process."""

    def __init__(self) -> None:
        self.peak = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        base = threading.active_count()
        while not self._stop.wait(POLL_S):
            procs = len(multiprocessing.active_children())
            self.peak = max(self.peak, procs or threading.active_count() - base)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()


def _names(skipped: Iterable[tuple[str, str]]) -> set[str]:
    return {Path(path).name for path, _ in skipped}


def traced_run(
    workload: workloads.Workload, seconds: float, trace_out: Path
) -> tuple[int, int, dict[str, float]]:
    from pupsec.harness import RunConfig, scan
    from pupsec.report import render_report
    from tracing import Tracer, layer_metrics

    serial_config = RunConfig(inputs=(str(workload.root),), jobs=1)

    def render(report) -> bytes:
        return render_report(list(report.findings), report.stats, "json", mode=report.mode)

    rounds: list[dict[str, float]] = []
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        tracer = Tracer()
        with tracer.installed():
            start = time.perf_counter()
            traced = tracer.call("harness.scan", scan, serial_config)
            traced_bytes = tracer.call("report.render_report", render, traced,
                                       counter=lambda args, payload: {"bytes": len(payload)})
            traced_total = time.perf_counter() - start

        start = time.perf_counter()
        serial = scan(serial_config)
        serial_s = time.perf_counter() - start
        serial_bytes = render(serial)
        untraced_total = time.perf_counter() - start

        with _WorkerSampler() as workers:
            start = time.perf_counter()
            parallel = scan(RunConfig(inputs=(str(workload.root),)))
            parallel_s = time.perf_counter() - start

        # Tracing must not change the report, and scan() must not depend
        # on the worker count.
        bad = failed_files(workload, traced_bytes, _names(traced.skipped), serial_bytes)
        bad |= failed_files(workload, render(parallel), _names(parallel.skipped), serial_bytes)
        bad |= failed_files(workload, serial_bytes, _names(serial.skipped))
        attempted += len(workload.files)
        failed += len(bad)

        metrics = layer_metrics(tracer)
        metrics.update({
            "harness.parallel_speedup": serial_s / parallel_s,
            "harness.workers": workers.peak,
            "harness.files_scanned": len(workload.files) - len(serial.skipped),
            "harness.files_skipped": len(serial.skipped),
            "trace.overhead_s": traced_total - untraced_total,
        })
        rounds.append(metrics)
    tracer.write(trace_out)
    return attempted, failed, {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}


# --- entry point ------------------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["corpus", "chain", "branchy"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so that cleanup stops the child processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "pupsec" / "cli.py").is_file():
        print(f"perfbench: no pupsec sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))

    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir(parents=True)
    try:
        workload = make_workload(args.workload, args.seed)
        if args.trace:
            trace_out = BASE / f"trace-{args.workload}-{args.seed}.jsonl"
            attempted, failed, values = traced_run(workload, args.seconds, trace_out)
        else:
            attempted, failed, values = timed_run(workload, args.seconds)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    if set(values) != {m["name"] for m in declared}:
        print(f"perfbench: metrics {sorted(values)} differ from BENCHMARK.json", file=sys.stderr)
        return 3
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
