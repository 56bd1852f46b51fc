"""``scripts/bench.py``, the writer of ``BENCH_<n>.json``, on tiny inputs."""

import json
import resource
import shutil
import subprocess
import sys

import pytest

from conftest import FIXTURES, load_script

TINY = {"chain": 40, "branchy": 40, "relay": 20, "many": 18}  # sweep.py line counts
STAGES = ["tokenize_s", "parse_excl_lex_s", "index_s", "classify_calls_s", "rules_s",
          "dataflow_ddg_s", "paths_s", "confirm_s", "render_s"]


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
        assert meta["src_sha256"] == bench.src_digest(bench.SRC)
        if parented:
            assert meta["parent"] == {"git_revision": meta["git_revision"],
                                      "python_lines": {"src": meta["python_lines"]["src"]},
                                      "src_sha256": meta["src_sha256"]}
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
                assert list(side["stages"]) == STAGES, name
                for summary in side["stages"].values():
                    _check_summary(summary, rounds, name)
                assert side["stages"]["tokenize_s"]["median"] > 0, name
            if parented:
                assert workload["parent"]["line_events"] == workload["line_events"], name
                assert list(workload["pairs_won"]) == ["end_to_end", *STAGES]
                for won in workload["pairs_won"].values():
                    assert set(won) == {"this", "parent"} and won["this"] + won["parent"] <= rounds
                assert list(workload["ratios"]) == ["end_to_end", *STAGES]
                for ratio in workload["ratios"].values():
                    assert set(ratio) == {"median_of_round_ratios", "ratio_of_medians"}
                    assert all(r is None or r > 0 for r in ratio.values()), (name, ratio)
            else:
                assert not {"parent", "pairs_won", "ratios"} & set(workload)
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


def _git(cwd, *args):
    return subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.com",
                           *args], cwd=cwd, check=True, capture_output=True, text=True).stdout.strip()


def _committed_tree(root):
    """A git work tree at *root* with one commit of a small `src/pupsec`."""
    (root / "src" / "pupsec" / "sub").mkdir(parents=True)
    (root / "src" / "pupsec" / "__init__.py").write_text("X = 1\n", encoding="utf-8")
    (root / "src" / "pupsec" / "sub" / "m.py").write_text("Y = 2\n", encoding="utf-8")
    _git(root, "init", "-q")
    _git(root, "add", "-A")
    _git(root, "commit", "-q", "-m", "tree")
    return _git(root, "rev-parse", "HEAD")


def test_bench_src_digest_names_the_code_not_the_checkout(tmp_path, monkeypatch):
    """A tree and its copy without `.git` get one digest; a one-byte edit
    changes it."""
    bench = _bench(monkeypatch)
    tree, copy = tmp_path / "tree", tmp_path / "copy"
    _committed_tree(tree)
    shutil.copytree(tree, copy, ignore=shutil.ignore_patterns(".git"))
    assert not (copy / ".git").exists()
    digest = bench.src_digest(tree / "src")
    assert len(digest) == 64 and bench.src_digest(copy / "src") == digest
    (copy / "src" / "pupsec" / "sub" / "m.py").write_text("Y = 3\n", encoding="utf-8")
    assert bench.src_digest(copy / "src") != digest


def test_bench_parent_revision_is_its_own_or_null(tmp_path, monkeypatch):
    """A parent that is the top of its own work tree gets its commit; one
    copied into an untracked directory of another work tree gets null, not
    the enclosing tree's commit."""
    bench = _bench(monkeypatch)
    outer = tmp_path / "outer"
    head = _committed_tree(outer)
    nested = outer / ".perfbench" / "parent"
    shutil.copytree(outer / "src", nested / "src")
    assert bench.metadata(1, outer / "src")["parent"]["git_revision"] == head
    parent = bench.metadata(1, nested / "src")["parent"]
    assert parent["git_revision"] is None
    assert parent["src_sha256"] == bench.src_digest(outer / "src")
