"""``scripts/bench.py``, the writer of ``BENCH_<n>.json``, on tiny inputs."""

import json
import resource
import sys

import pytest

from conftest import FIXTURES, load_script

TINY = {"chain": 40, "branchy": 40, "relay": 20, "many": 18}  # sweep.py line counts


def _bench(monkeypatch):
    monkeypatch.setattr(sys, "path", sys.path[:])  # sweep.py adds src/ and perfbench/
    return load_script("bench")


def test_bench_writes_the_schema_and_the_same_counts_twice(tmp_path, monkeypatch):
    bench = _bench(monkeypatch)
    docs = []
    for run in range(2):
        out = tmp_path / f"BENCH_{run}.json"
        assert bench.main(["--out", str(out), "--rounds", "1"], corpus_files=3, sizes=TINY) == 0
        docs.append(json.loads(out.read_text(encoding="utf-8")))
    doc = docs[0]
    assert set(doc) == {"meta", "workloads"}
    meta = doc["meta"]
    assert meta["python"].endswith(".".join(map(str, sys.version_info[:3])))
    assert meta["python_lines"]["src"] > 0 and meta["python_lines"]["tests"] > 0
    assert meta["rounds"] == 1 and "git_revision" in meta and "git_dirty" in meta
    assert list(doc["workloads"]) == ["corpus", "chain", "branchy", "relay", "many"]
    for name, workload in doc["workloads"].items():
        assert workload["files"] == (3 if name == "corpus" else 1), name
        assert workload["lines"] > 0 and (workload["findings"] > 0 or name == "corpus"), name
        counts = dict(workload["line_events"])
        total = counts.pop("total")
        assert total == sum(counts.values()) and total > 0, name
        assert {"lexer.py", "parser.py", "harness.py", "ddg.py"} <= set(counts), name
        end_to_end = workload["end_to_end"]
        assert set(end_to_end) == {"cpu_s", "peak_rss_mb", "lines_per_cpu_s", "rounds"}
        assert len(end_to_end["rounds"]) == 1 and end_to_end["cpu_s"] > 0, name
        per_cpu_s = workload["lines"] / end_to_end["cpu_s"]  # both rounded
        assert end_to_end["lines_per_cpu_s"] == pytest.approx(per_cpu_s, rel=1e-3, abs=1), name
    for name in doc["workloads"]:
        assert docs[1]["workloads"][name]["line_events"] == doc["workloads"][name]["line_events"]


def test_bench_peak_rss_is_the_scans_own(tmp_path, monkeypatch):
    """The reading does not carry the runner's memory: 80 MB more in the
    runner leaves the scan's peak RSS within 3 MB."""
    bench = _bench(monkeypatch)
    tree, out, pycache = FIXTURES / "corpus", tmp_path / "report.json", tmp_path / "pycache"
    bench.spawn_scan(tree, out, pycache)  # compiles into the cache, which the next two read
    _, lean = bench.spawn_scan(tree, out, pycache)
    ballast = b"\1" * (80 << 20)
    _, heavy = bench.spawn_scan(tree, out, pycache)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024 > heavy + 80
    assert abs(heavy - lean) < 3, (lean, heavy)
    del ballast
