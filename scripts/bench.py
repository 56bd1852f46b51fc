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
  small helper process, K rounds with the workloads interleaved.  The
  helper reads the scan's own CPU time and peak RSS with `os.wait4`, so
  the reading does not carry this runner's memory.  CPU includes the
  interpreter's start-up and import.  The scans read their bytecode, the
  standard library's too, from a cache directory of the bench's own,
  which one untimed import fills before the rounds, whatever caches the
  tree holds and whatever `PYTHONDONTWRITEBYTECODE` says.  The file
  records each round, the median CPU with its quartiles, the median peak
  RSS and lines per CPU second at the median CPU.
- `stages`: the in-process CPU of each stage of a taint scan, summed
  over the workload's files: `tokenize`, `parse_manifest` less that of
  `tokenize`, the membership index, classification with the call sites,
  the rules, the dataflow with the DDG, the witness paths, confirmation,
  and, once per pass, statistics and the JSON rendering of all findings.
  Each file is tokenized, then parsed, then taken through the stages in
  `analyze_manifest`'s order; no module global is replaced.  A round is
  a fresh interpreter that makes one untimed pass and then `PASSES`
  timed ones, and reads each stage's median pass, so one slow moment of
  the machine moves one pass, not the round.  Every pass starts with the
  rules' predicate memo emptied, as a scan starts, so the rules are
  timed cold.  Median, quartiles and each round.

`startup` records the CPU of a spawned `python -c "import pupsec.cli"`
with a warm cache under the bench's own `PYTHONPYCACHEPREFIX` and with
none (`-B` and an empty cache directory), and says which of the two the
environment gives a scan: none where `PYTHONDONTWRITEBYTECODE` is set.
With start-up on its own, a small workload's end-to-end CPU can be read
net of it.

With `--parent SRC` every measurement runs against a second tree too,
whose `src` directory is SRC: its line events, and in each round its
start-up, scans and stages next to this tree's, with the side that runs
first alternating from round to round.  Each workload and the start-up
then hold the parent's readings under `parent`, and `pairs_won` counts
the rounds in which each side used less CPU; ties count for neither.
Each workload's `ratios` gives, for the end-to-end scan and each stage,
this tree's CPU over the parent's two ways: the median of the per-round
ratios, which a slow phase of the machine that hits both sides of a
round moves little, and the ratio of the two medians.

`meta` gives the git revision (and whether the work tree differed from
it), the Python version, the machine, the Python line counts of `src/`
and `tests/`, and `src_sha256`, a digest of the `*.py` files under
`src/`; with `--parent`, also the parent's revision, `src/` line count
and digest.  A tree's revision is recorded only when the tree is the top
of its own git work tree, and is null otherwise, as for a `git archive`
copy; the digest names the code compared either way.

Usage: python scripts/bench.py --out BENCH_<n>.json [--rounds K] [--parent SRC]
"""

import argparse
import hashlib
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
STAGES = ("tokenize_s", "parse_excl_lex_s", "index_s", "classify_calls_s", "rules_s",
          "dataflow_ddg_s", "paths_s", "confirm_s", "render_s")
PASSES = 3  # timed passes per round of in-process stages

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

# Prints, for each workload directory in the JSON object argv[1], the
# median over argv[3] passes of the CPU seconds of each stage in the JSON
# list argv[2], summed over its files, after one untimed pass.
_STAGES = """
import json, statistics, sys, time
from pathlib import Path
from pupsec import rules
from pupsec.classify import build_membership_index, classify_expressions, collect_function_calls
from pupsec.ddg import build_ddg, collect_propagations, confirm_findings
from pupsec.errors import ParseError, UnsupportedConstruct
from pupsec.lexer import tokenize
from pupsec.parser import parse_manifest
from pupsec.report import compute_stats, render_report
from pupsec.rules import DEFAULT_PATTERNS, detect_candidates

STAGES, PASSES = json.loads(sys.argv[2]), int(sys.argv[3])

def one_pass(texts):
    if hasattr(rules, "_memos"):  # a tree from before the memo has none
        rules._memos.cache_clear()
    clock = time.process_time
    spent = [0.0] * len(STAGES)
    findings, resources = [], []
    for text, path in texts:
        start = clock()
        try:
            tokenize(text, path)
        except (ParseError, UnsupportedConstruct):
            pass
        lexed = clock()
        try:
            manifest = parse_manifest(text, path)
        except (ParseError, UnsupportedConstruct):
            manifest = None
        ticks = [start, lexed, clock()]
        if manifest is not None:
            index = build_membership_index(manifest)
            ticks.append(clock())
            classified, sites = classify_expressions(index), collect_function_calls(index)
            ticks.append(clock())
            candidates = detect_candidates(classified, sites, DEFAULT_PATTERNS)
            ticks.append(clock())
            ddg = build_ddg(manifest, candidates, index)
            ticks.append(clock())
            propagations = [] if ddg is None else collect_propagations(ddg)
            ticks.append(clock())
            findings += confirm_findings(propagations)
            resources += index.resource_list
            ticks.append(clock())
        for i in range(len(ticks) - 1):
            spent[i] += ticks[i + 1] - ticks[i]
        spent[1] -= lexed - start  # parse_manifest lexes too
    start = clock()
    render_report(findings, compute_stats(findings, resources), "json")
    spent[-1] = clock() - start
    return spent

out = {}
for name, directory in json.loads(sys.argv[1]).items():
    texts = [(p.read_text(encoding="utf-8"), str(p)) for p in sorted(Path(directory).glob("*.pp"))]
    one_pass(texts)
    passes = [one_pass(texts) for _ in range(PASSES)]
    out[name] = [statistics.median(cpu) for cpu in zip(*passes)]
print(json.dumps(out))
"""


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _env(pycache: Path, src: Path = SRC) -> dict[str, str]:
    env = dict(os.environ, PYTHONPYCACHEPREFIX=str(pycache))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(src), env.get("PYTHONPATH"))))
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


def _spawn(args: list[str], env: dict[str, str]) -> tuple[float, float]:
    """CPU seconds and peak RSS in MB of `python ARGS`, run through the helper."""
    argv = [sys.executable, "-c", _HELPER, sys.executable, *args]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    code, cpu_s, rss_kb = proc.stdout.split()
    if code != "0":
        raise SystemExit(f"python {' '.join(args)} exited {code}: {proc.stderr.strip()}")
    return float(cpu_s), int(rss_kb) / 1024.0


def spawn_scan(directory: Path, out: Path, pycache: Path, src: Path = SRC) -> tuple[float, float]:
    """CPU seconds and peak RSS in MB of one `python -m pupsec scan` of the
    package under *src*, with its bytecode cache under *pycache*."""
    return _spawn(["-m", "pupsec", "scan", str(directory), "--out", str(out)], _env(pycache, src))


def spawn_import(pycache: Path, src: Path = SRC, write_bytecode: bool = True) -> float:
    """CPU seconds of a spawned `import pupsec.cli`; with *write_bytecode*
    false, under `-B`, so an empty *pycache* stays empty."""
    flags = [] if write_bytecode else ["-B"]
    return _spawn([*flags, "-c", "import pupsec.cli"], _env(pycache, src))[0]


def stage_cpu(inputs: dict, src: Path = SRC) -> dict[str, tuple[float, ...]]:
    """Per workload, the in-process CPU seconds of each of `STAGES`, the
    median of `PASSES` passes in a fresh interpreter."""
    dirs = {name: str(workload["dir"]) for name, workload in inputs.items()}
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = [sys.executable, "-c", _STAGES, json.dumps(dirs), json.dumps(STAGES), str(PASSES)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, check=True)
    return {name: tuple(cpu) for name, cpu in json.loads(proc.stdout).items()}


def summary(values: list[float], digits: int = 4) -> dict:
    """Median, quartiles and each value."""
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": round(statistics.median(values), digits),
            "quartiles": [round(quartiles[0], digits), round(quartiles[2], digits)],
            "rounds": [round(v, digits) for v in values]}


def pairs_won(this: list[float], parent: list[float]) -> dict[str, int]:
    """Rounds in which each side used less CPU."""
    return {"this": sum(a < b for a, b in zip(this, parent)),
            "parent": sum(b < a for a, b in zip(this, parent))}


def ratios(this: list[float], parent: list[float], digits: int = 3) -> dict:
    """This side's CPU over the parent's: the median of the per-round
    ratios, and the ratio of the medians (None where the parent read 0)."""
    per_round = [a / b for a, b in zip(this, parent) if b]
    of_medians = statistics.median(parent)
    return {"median_of_round_ratios": round(statistics.median(per_round), digits) if per_round else None,
            "ratio_of_medians": round(statistics.median(this) / of_medians, digits) if of_medians else None}


def _python_lines(tree: Path) -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in tree.rglob("*.py"))


def src_digest(src: Path) -> str:
    """sha256 over each `*.py` file under *src*, taken in the order of
    their relative paths: each one's path, its size and its bytes."""
    digest = hashlib.sha256()
    for rel in sorted(p.relative_to(src).as_posix() for p in src.rglob("*.py")):
        data = (src / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode())
        digest.update(data)
    return digest.hexdigest()


def _git(*args: str, cwd: Path = ROOT):
    proc = subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def git_revision(root: Path) -> str | None:
    """The commit checked out at *root*, or None when *root* is not the
    top of its own work tree: a copy in an untracked directory of another
    work tree would otherwise get that tree's commit."""
    top = _git("rev-parse", "--show-toplevel", cwd=root)
    if top is None or Path(top).resolve() != root.resolve():
        return None
    return _git("rev-parse", "HEAD", cwd=root)


def metadata(rounds: int, parent: Path | None) -> dict:
    revision = git_revision(ROOT)
    status = None if revision is None else _git("status", "--porcelain", "--untracked-files=no")
    meta = {
        "git_revision": revision,
        "git_dirty": None if status is None else bool(status),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "python_lines": {"src": _python_lines(SRC), "tests": _python_lines(ROOT / "tests")},
        "src_sha256": src_digest(SRC),
        "rounds": rounds,
    }
    if parent is not None:
        meta["parent"] = {"git_revision": git_revision(parent.parent),
                          "python_lines": {"src": _python_lines(parent)},
                          "src_sha256": src_digest(parent)}
    return meta


def _end_to_end(workload: dict, runs: list[tuple[float, float]]) -> dict:
    cpu = summary([cpu for cpu, _ in runs])
    return {
        "cpu_s": cpu["median"],
        "cpu_s_quartiles": cpu["quartiles"],
        "peak_rss_mb": round(statistics.median(rss for _, rss in runs), 2),
        "lines_per_cpu_s": round(workload["lines"] / cpu["median"]) if cpu["median"] else None,
        "rounds": [{"cpu_s": round(c, 4), "peak_rss_mb": round(rss, 2)} for c, rss in runs],
    }


def main(argv=None, corpus_files: int = CORPUS_FILES, sizes: dict[str, int] = SIZES) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, metavar="BENCH_N.json")
    parser.add_argument("--rounds", type=int, default=5, metavar="K",
                        help="rounds of spawned scans and in-process stages per workload (default 5)")
    parser.add_argument("--parent", metavar="SRC",
                        help="the src directory of a second tree to measure in the same rounds")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    trees = {"this": SRC}
    if args.parent is not None:
        trees["parent"] = Path(args.parent).resolve()
        if not (trees["parent"] / "pupsec" / "__init__.py").is_file():
            parser.error(f"--parent {args.parent}: no pupsec package there")
    line_events = _load_script("line_events")
    with tempfile.TemporaryDirectory(prefix="pupsec-bench-") as tmp:
        tmp = Path(tmp)
        inputs = write_inputs(tmp, corpus_files, sizes)
        counts = {side: {} for side in trees}
        for side, src in trees.items():
            for name, workload in inputs.items():
                table = line_events.count_in_child(str(src), str(workload["dir"]), 0)
                counts[side][name] = dict(sorted(table.items()), total=sum(table.values()))
        pycache = {side: tmp / f"pycache-{side}" for side in trees}
        empty = tmp / "empty-pycache"
        for side, src in trees.items():
            spawn_import(pycache[side], src)  # fills the cache the timed rounds read
        startup = {side: {"warm_cache": [], "no_cache": []} for side in trees}
        runs = {side: {name: [] for name in inputs} for side in trees}
        stages = {side: {name: {stage: [] for stage in STAGES} for name in inputs} for side in trees}
        findings = {}
        for round_ in range(args.rounds):
            order = list(trees) if round_ % 2 == 0 else list(trees)[::-1]
            for side in order:
                startup[side]["warm_cache"].append(spawn_import(pycache[side], trees[side]))
                startup[side]["no_cache"].append(spawn_import(empty, trees[side], write_bytecode=False))
            for name, workload in inputs.items():
                for side in order:
                    report = tmp / f"{name}-{side}.json"
                    runs[side][name].append(spawn_scan(workload["dir"], report, pycache[side], trees[side]))
                    found = len(json.loads(report.read_bytes())["findings"])
                    expected = workload["expected_findings"]
                    if expected is not None and found != expected:
                        raise SystemExit(f"{name} ({side}): {found} findings, expected {expected}")
                    if side == "this":
                        findings[name] = found
            for side in order:
                for name, cpu in stage_cpu(inputs, trees[side]).items():
                    for stage, seconds in zip(STAGES, cpu):
                        stages[side][name][stage].append(seconds)

    def side_doc(side: str, name: str) -> dict:
        return {"line_events": counts[side][name],
                "end_to_end": _end_to_end(inputs[name], runs[side][name]),
                # to the microsecond: the small workloads' later stages take less than 0.1 ms
                "stages": {stage: summary(values, 6) for stage, values in stages[side][name].items()}}

    def startup_doc(side: str) -> dict:
        return {case: summary(values) for case, values in startup[side].items()}

    workloads = {}
    for name, workload in inputs.items():
        doc = {"files": workload["files"], "lines": workload["lines"], "findings": findings[name],
               **side_doc("this", name)}
        if "parent" in trees:
            doc["parent"] = side_doc("parent", name)
            cpu = {"end_to_end": [[c for c, _ in runs[side][name]] for side in ("this", "parent")],
                   **{stage: [stages[side][name][stage] for side in ("this", "parent")]
                      for stage in STAGES}}
            doc["pairs_won"] = {key: pairs_won(*sides) for key, sides in cpu.items()}
            doc["ratios"] = {key: ratios(*sides) for key, sides in cpu.items()}
        workloads[name] = doc
    no_cache = bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))
    startup_out = {
        "environment": {"PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
                        "gives": "no_cache" if no_cache else "warm_cache"},
        **startup_doc("this"),
    }
    if "parent" in trees:
        startup_out["parent"] = startup_doc("parent")
        startup_out["pairs_won"] = {case: pairs_won(startup["this"][case], startup["parent"][case])
                                    for case in startup["this"]}
    doc = {"meta": metadata(args.rounds, trees.get("parent")), "startup": startup_out,
           "workloads": workloads}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
