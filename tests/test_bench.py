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


def _check_end_to_end(end_to_end, lines, rounds, name):
    assert set(end_to_end) == {"cpu_s", "cpu_s_quartiles", "peak_rss_mb", "lines_per_cpu_s", "rounds"}
    assert len(end_to_end["rounds"]) == rounds and end_to_end["cpu_s"] > 0, name
    low, high = end_to_end["cpu_s_quartiles"]
    assert low <= end_to_end["cpu_s"] <= high, name
    per_cpu_s = lines / end_to_end["cpu_s"]  # both rounded
    assert end_to_end["lines_per_cpu_s"] == pytest.approx(per_cpu_s, rel=1e-3, abs=1), name


def _check_summary(summary, rounds, name):
    assert set(summary) == {"median", "quartiles", "rounds"}, name
    assert len(summary["rounds"]) == rounds, name
    low, high = summary["quartiles"]
    assert low <= summary["median"] <= high, name


def test_bench_writes_the_schema_and_the_same_counts_twice(tmp_path, monkeypatch):
    """One run alone and one with ``--parent`` set to this tree itself."""
    bench = _bench(monkeypatch)
    docs = []
    for run, extra in enumerate((["--rounds", "1"], ["--rounds", "2", "--parent", str(bench.SRC)])):
        out = tmp_path / f"BENCH_{run}.json"
        assert bench.main(["--out", str(out), *extra], corpus_files=3, sizes=TINY) == 0
        docs.append(json.loads(out.read_text(encoding="utf-8")))
    for doc, rounds in zip(docs, (1, 2)):
        parented = rounds == 2
        assert set(doc) == {"meta", "startup", "workloads"}
        meta = doc["meta"]
        assert meta["python"].endswith(".".join(map(str, sys.version_info[:3])))
        assert meta["python_lines"]["src"] > 0 and meta["python_lines"]["tests"] > 0
        assert meta["rounds"] == rounds and "git_revision" in meta and "git_dirty" in meta
        if parented:
            assert meta["parent"] == {"git_revision": meta["git_revision"],
                                      "python_lines": {"src": meta["python_lines"]["src"]}}
        startup = doc["startup"]
        assert set(startup) == {"environment", "warm_cache", "no_cache"} | (
            {"parent", "pairs_won"} if parented else set())
        assert startup["environment"]["gives"] in ("warm_cache", "no_cache")
        sides = [startup, startup["parent"]] if parented else [startup]
        for side in sides:
            for case in ("warm_cache", "no_cache"):
                _check_summary(side[case], rounds, case)
            # Compiling every module costs more than reading the cache.
            assert side["no_cache"]["median"] > side["warm_cache"]["median"]
        assert list(doc["workloads"]) == ["corpus", "chain", "branchy", "relay", "many"]
        for name, workload in doc["workloads"].items():
            assert workload["files"] == (3 if name == "corpus" else 1), name
            assert workload["lines"] > 0 and (workload["findings"] > 0 or name == "corpus"), name
            sides = [workload, workload["parent"]] if parented else [workload]
            for side in sides:
                counts = dict(side["line_events"])
                total = counts.pop("total")
                assert total == sum(counts.values()) and total > 0, name
                assert {"lexer.py", "parser.py", "harness.py", "ddg.py"} <= set(counts), name
                _check_end_to_end(side["end_to_end"], workload["lines"], rounds, name)
                assert list(side["stages"]) == ["tokenize_s", "parse_excl_lex_s"], name
                for summary in side["stages"].values():
                    _check_summary(summary, rounds, name)
                assert side["stages"]["tokenize_s"]["median"] > 0, name
            if parented:
                assert workload["parent"]["line_events"] == workload["line_events"], name
                assert list(workload["pairs_won"]) == ["end_to_end", "tokenize_s", "parse_excl_lex_s"]
                for won in workload["pairs_won"].values():
                    assert set(won) == {"this", "parent"} and won["this"] + won["parent"] <= rounds
            else:
                assert "parent" not in workload and "pairs_won" not in workload
    for name in docs[0]["workloads"]:
        assert docs[1]["workloads"][name]["line_events"] == docs[0]["workloads"][name]["line_events"]


def test_bench_rejects_a_parent_without_a_package(tmp_path, monkeypatch, capsys):
    bench = _bench(monkeypatch)
    with pytest.raises(SystemExit):
        bench.main(["--out", str(tmp_path / "b.json"), "--parent", str(tmp_path)])
    assert "no pupsec package there" in capsys.readouterr().err


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
