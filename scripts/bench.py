#!/usr/bin/env python3
"""Write one point of the performance trajectory: BENCH_<n>.json.

Builds fixed inputs, one directory per workload:
- `corpus`: the first 300 manifests that `scripts/gen_corpus.py` writes
  from seed 0;
- `chain`, `branchy`, `relay` and `many`: one manifest each from the
  templates of `scripts/sweep.py`, at that script's smallest size.

For each workload it records:
- `line_events`: the lines each `pupsec` module runs while parsing and
  analyzing the workload's files, counted by `scripts/line_events.py` in
  a fresh interpreter, outside the timed rounds.  The counts are exact and
  the same on every run, so they show a change in work where CPU times on
  a noisy machine cannot.
- `end_to_end`: `python -m pupsec scan DIR --out FILE` spawned through a
  small helper process, one at a time, K rounds with the workloads
  interleaved.  The helper reads the scan's own CPU time and peak RSS with
  `os.wait4`, so the reading does not carry this runner's memory.  CPU
  includes the interpreter's start-up and import.  The scans write their
  bytecode, the standard library's too, to a fresh cache directory, so the
  first round compiles and the later ones read the cache, whatever caches
  the tree holds and whatever `PYTHONDONTWRITEBYTECODE` says.  The file
  records each round and the medians: `cpu_s`, `peak_rss_mb` and
  `lines_per_cpu_s`.

`meta` gives the git revision (and whether the work tree differed from
it), the Python version, the machine, and the Python line counts of
`src/` and `tests/`.

Usage: python scripts/bench.py --out BENCH_<n>.json [--rounds K]
"""

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRIPTS = ROOT / "scripts"

CORPUS_FILES = 300
# sweep.py's smallest size of each template, in its own units (lines)
SIZES = {"chain": 1000, "branchy": 1000, "relay": 250, "many": 75}

# Spawns the command in argv and prints its exit code, CPU seconds and
# peak RSS in KiB.  A fresh interpreter holds little memory, so the scan's
# ru_maxrss is its own.
_HELPER = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
proc.returncode = os.waitstatus_to_exitcode(status)
print(proc.returncode, usage.ru_utime + usage.ru_stime, usage.ru_maxrss)
"""


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _env(pycache: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def write_inputs(root: Path, corpus_files: int, sizes: dict[str, int]) -> dict:
    """Write each workload's manifests under *root*; return, per workload,
    its directory, file and line counts and, for a template, the finding
    count it has by construction (None for the corpus)."""
    subprocess.run(
        [sys.executable, str(SCRIPTS / "gen_corpus.py"), str(root / "corpus"), str(corpus_files), "0"],
        check=True, capture_output=True,
    )
    saved = sys.path[:]  # sweep.py adds src/ and perfbench/
    try:
        sweep = _load_script("sweep")
    finally:
        sys.path[:] = saved
    expected = {"corpus": None}
    for name, size in sizes.items():
        text, expected[name] = sweep.TEMPLATES[name][0](size)
        (root / name).mkdir()
        (root / name / f"{name}.pp").write_text(text, encoding="utf-8")
    inputs = {}
    for name, findings in expected.items():
        texts = [p.read_text(encoding="utf-8") for p in (root / name).glob("*.pp")]
        inputs[name] = {"dir": root / name, "files": len(texts),
                        "lines": sum(text.count("\n") for text in texts),
                        "expected_findings": findings}
    return inputs


def spawn_scan(directory: Path, out: Path, pycache: Path) -> tuple[float, float]:
    """CPU seconds and peak RSS in MB of one `python -m pupsec scan`, with
    its bytecode cache under *pycache*."""
    argv = [sys.executable, "-c", _HELPER,
            sys.executable, "-m", "pupsec", "scan", str(directory), "--out", str(out)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=_env(pycache), check=True)
    code, cpu_s, rss_kb = proc.stdout.split()
    if code != "0":
        raise SystemExit(f"scan of {directory} exited {code}: {proc.stderr.strip()}")
    return float(cpu_s), int(rss_kb) / 1024.0


def _python_lines(tree: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in tree.rglob("*.py"))


def _git(*args: str):
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def metadata(rounds: int) -> dict:
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python_lines": {"src": _python_lines(SRC), "tests": _python_lines(ROOT / "tests")},
        "rounds": rounds,
    }


def main(argv=None, corpus_files: int = CORPUS_FILES, sizes: dict[str, int] = SIZES) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="BENCH_N.json")
    parser.add_argument("--rounds", type=int, default=5, metavar="K",
                        help="spawned scans per workload (default 5)")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    line_events = _load_script("line_events")
    with tempfile.TemporaryDirectory(prefix="pupsec-bench-") as tmp:
        inputs = write_inputs(Path(tmp), corpus_files, sizes)
        counts = {}
        for name, workload in inputs.items():
            table = line_events.count_in_child(str(SRC), str(workload["dir"]), 0)
            counts[name] = dict(sorted(table.items()), total=sum(table.values()))
        runs = {name: [] for name in inputs}
        findings = {}
        for _ in range(args.rounds):
            for name, workload in inputs.items():
                report = Path(tmp) / f"{name}.json"
                runs[name].append(spawn_scan(workload["dir"], report, Path(tmp) / "pycache"))
                found = len(json.loads(report.read_bytes())["findings"])
                expected = workload["expected_findings"]
                if expected is not None and found != expected:
                    raise SystemExit(f"{name}: {found} findings, expected {expected}")
                findings[name] = found
    workloads = {}
    for name, workload in inputs.items():
        cpu_s = statistics.median(cpu for cpu, _ in runs[name])
        workloads[name] = {
            "files": workload["files"],
            "lines": workload["lines"],
            "findings": findings[name],
            "line_events": counts[name],
            "end_to_end": {
                "cpu_s": round(cpu_s, 4),
                "peak_rss_mb": round(statistics.median(rss for _, rss in runs[name]), 2),
                "lines_per_cpu_s": round(workload["lines"] / cpu_s) if cpu_s else None,
                "rounds": [{"cpu_s": round(cpu, 4), "peak_rss_mb": round(rss, 2)}
                           for cpu, rss in runs[name]],
            },
        }
    doc = {"meta": metadata(args.rounds), "workloads": workloads}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
