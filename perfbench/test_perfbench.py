"""Smoke tests of the benchmark itself, on tiny workloads.

Run with: python -m pytest perfbench -q
"""

import json
from pathlib import Path

import pytest

import workloads
from checks import failed_files
from pupsec.harness import RunConfig, scan
from pupsec.report import render_report
from tracing import TRACED, Tracer, layer_metrics

TINY = {
    "corpus": lambda seed, root: workloads.corpus(seed, root, files=12, broken=5),
    "chain": lambda seed, root: workloads.chain(seed, root, sizes=(8, 16)),
    "branchy": lambda seed, root: workloads.branchy(seed, root, sizes=(2, 4)),
}


def _scan(workload):
    report = scan(RunConfig(inputs=(str(workload.root),), jobs=1))
    payload = render_report(list(report.findings), report.stats, "json", mode=report.mode)
    return payload, {p.rsplit("/", 1)[-1] for p, _ in report.skipped}


@pytest.mark.parametrize("name", sorted(TINY))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    generate = TINY[name]
    first = generate(3, tmp_path / "a").digest()
    assert generate(3, tmp_path / "b").digest() == first
    assert generate(4, tmp_path / "c").digest() != first


def test_pinned_digest_matches_the_full_size_generator(tmp_path):
    pinned = json.loads((Path(workloads.__file__).parent / "digests.json").read_text())
    assert workloads.chain(0, tmp_path).digest() == pinned["chain"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_a_correct_scan_fails_no_file(name, tmp_path):
    workload = TINY[name](0, tmp_path)
    report, skipped = _scan(workload)
    assert failed_files(workload, report, skipped, reference=report) == set()


def test_corrupted_chain_report_is_counted(tmp_path):
    workload = TINY["chain"](0, tmp_path)
    report, skipped = _scan(workload)
    doc = json.loads(report)
    doc["findings"][0]["sink"]["line"] += 1
    victim = doc["findings"][0]["manifest"].rsplit("/", 1)[-1]
    corrupted = json.dumps(doc).encode()
    assert failed_files(workload, corrupted, skipped) == {victim}
    assert failed_files(workload, corrupted, skipped, reference=report) == {victim}


def test_wrong_skips_and_taint_outside_pattern_are_counted(tmp_path):
    workload = TINY["corpus"](0, tmp_path)
    report, skipped = _scan(workload)
    broken = sorted(workload.broken)[0]
    scanned = sorted(set(workload.files) - workload.broken)[0]
    assert failed_files(workload, report, skipped - {broken}) == {broken}
    assert failed_files(workload, report, skipped | {scanned}) == {scanned}
    assert failed_files(workload, None, skipped) == set(workload.files)
    empty_pattern = json.dumps({"findings": []}).encode()
    with_findings = {f["manifest"].rsplit("/", 1)[-1] for f in json.loads(report)["findings"]}
    assert with_findings
    assert failed_files(workload, report, skipped, pattern=empty_pattern) == with_findings


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_scan_matches_scan(name, tmp_path):
    workload = TINY[name](0, tmp_path)
    originals = [getattr(module, attr) for module, attr, _, _ in TRACED]
    tracer = Tracer()
    config = RunConfig(inputs=(str(workload.root),), jobs=1)
    with tracer.installed():
        traced = tracer.call("harness.scan", scan, config)
    assert [getattr(module, attr) for module, attr, _, _ in TRACED] == originals
    report, skipped = _scan(workload)
    assert render_report(list(traced.findings), traced.stats, "json", mode=traced.mode) == report
    assert {p.rsplit("/", 1)[-1] for p, _ in traced.skipped} == skipped == workload.broken
    analyzed = [s for s in tracer.spans if s.name == "harness.analyze_file"]
    assert sorted(s.request for s in analyzed) == sorted(str(workload.root / f) for f in workload.files)
    assert all(tracer.spans[s.parent].name == "harness.scan" for s in analyzed)
    metrics = layer_metrics(tracer)
    assert metrics["rules.candidates"] > 0 and metrics["lexer.tokens"] > 0
    assert metrics["dataflow.self_s"] > 0 and metrics["harness.overhead_s"] > 0
