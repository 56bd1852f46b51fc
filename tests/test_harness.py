import gc
import json
import os
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import pupsec
from pupsec.cli import main
from pupsec.errors import ScanError
from pupsec.harness import (
    RunConfig,
    _analyze_file,
    analyze_manifest,
    evaluate,
    load_ground_truth,
    scan,
)
from pupsec.parser import parse_manifest
from pupsec.report import sorted_findings
from pupsec.rules import DEFAULT_PATTERNS, WeaknessCategory

from conftest import CORPUS, CORPUS_TRUTH, FIXTURES, WEAKNESS_SUITE, load_script


def run_scan(inputs, **kwargs):
    return scan(RunConfig(inputs=tuple(str(i) for i in inputs), **kwargs))


awkward_tree = load_script("awkward_tree")  # the writer of the broken-file tree


# -- scan ------------------------------------------------------------------------


def test_taint_and_pattern_counts_on_hash_fixture_pair():
    pair = [WEAKNESS_SUITE / "sha1_password_file.pp", WEAKNESS_SUITE / "sha1_unused.pp"]
    taint = run_scan(pair, mode="taint")
    pattern = run_scan(pair, mode="pattern")
    assert len(taint.findings) == 1
    assert len(pattern.findings) == 2


def test_empty_directory_scan(tmp_path):
    report = run_scan([tmp_path])
    assert report.findings == ()
    assert report.stats["total_resources"] == 0


def test_parse_error_skip_policy(tmp_path):
    good = tmp_path / "good.pp"
    good.write_text("$x = 'ok'\nfile { 'f': content => $x }\n")
    bad = tmp_path / "bad.pp"
    bad.write_text("$x = = broken")
    report = run_scan([tmp_path], on_parse_error="skip")
    assert len(report.skipped) == 1
    assert report.skipped[0][0].endswith("bad.pp")
    assert report.stats["total_resources"] == 1


def test_parse_error_abort_policy(tmp_path):
    (tmp_path / "bad.pp").write_text("$x = = broken")
    with pytest.raises(ScanError):
        run_scan([tmp_path], on_parse_error="abort")


def test_scan_analyzes_files_serially_in_sorted_order(tmp_path, monkeypatch):
    import pupsec.harness as harness_mod

    calls = []
    real_analyze = harness_mod._analyze_file

    def spy(path, *rest):
        calls.append((threading.get_ident(), Path(path).name))
        return real_analyze(path, *rest)

    monkeypatch.setattr(harness_mod, "_analyze_file", spy)
    for name in ("c.pp", "a.pp", "b.pp"):
        (tmp_path / name).write_text("$x = 'ok'\nfile { 'f': content => $x }\n")
    assert run_scan([tmp_path]).stats["total_resources"] == 3
    assert calls == [(threading.get_ident(), name) for name in ("a.pp", "b.pp", "c.pp")]

    calls.clear()
    (tmp_path / "a.pp").write_text("$x = = broken")
    with pytest.raises(ScanError, match=r"^parse failure in .*a\.pp: "):
        run_scan([tmp_path], on_parse_error="abort")
    assert [name for _, name in calls] == ["a.pp"]


def test_unsupported_construct_is_skippable(tmp_path):
    (tmp_path / "heredoc.pp").write_text("$x = @(EOT)\ntext\nEOT\n")
    report = run_scan([tmp_path], on_parse_error="skip")
    assert len(report.skipped) == 1


def _tree_with_unreadable_manifests(root):
    (root / "good.pp").write_text("$x = 'ok'\nfile { 'f': content => $x }\n")
    (root / "dir.pp").mkdir()
    (root / "dangling.pp").symlink_to(root / "no-such-target.pp")


def test_unreadable_manifests_are_skipped(tmp_path):
    _tree_with_unreadable_manifests(tmp_path)
    report = run_scan([tmp_path], on_parse_error="skip")
    assert sorted(Path(p).name for p, _ in report.skipped) == ["dangling.pp", "dir.pp"]
    assert report.stats["total_resources"] == 1


def test_unreadable_manifest_aborts_under_abort_policy(tmp_path):
    _tree_with_unreadable_manifests(tmp_path)
    with pytest.raises(ScanError):
        run_scan([tmp_path], on_parse_error="abort")


def test_abort_message_tells_read_errors_from_parse_errors(tmp_path):
    (tmp_path / "dangling.pp").symlink_to(tmp_path / "no-such-target.pp")
    with pytest.raises(ScanError, match=r"^cannot read .*dangling\.pp: \[Errno 2\]"):
        run_scan([tmp_path], on_parse_error="abort")
    (tmp_path / "cp1252.pp").write_bytes(b"$x = '\xff'\n")  # sorts before dangling.pp
    with pytest.raises(ScanError, match=r"^cannot decode .*cp1252\.pp: 'utf-8' codec can't decode"):
        run_scan([tmp_path], on_parse_error="abort")
    (tmp_path / "bad.pp").write_text("$x = = broken")  # sorts before cp1252.pp
    with pytest.raises(ScanError, match=r"^parse failure in .*bad\.pp: "):
        run_scan([tmp_path], on_parse_error="abort")
    skipped = run_scan([tmp_path], on_parse_error="skip").skipped
    reasons = [reason for _, reason in skipped]  # the bare error text, whatever the cause
    assert reasons[0].endswith("bad.pp:1:6: expected expression, found '='")
    assert reasons[1].startswith("'utf-8' codec can't decode byte 0xff in position 6")
    assert reasons[2].startswith("[Errno 2]")


def test_missing_input_raises():
    with pytest.raises(FileNotFoundError):
        run_scan(["does/not/exist"])


# -- inputs: a scan of several inputs is the union of their scans ------------------


def test_disjoint_inputs_scan_to_the_union():
    for mode in ("taint", "pattern"):
        a = run_scan([CORPUS], mode=mode)
        b = run_scan([WEAKNESS_SUITE], mode=mode)
        both = run_scan([CORPUS, WEAKNESS_SUITE], mode=mode)
        assert both.findings == tuple(sorted_findings([*a.findings, *b.findings]))
        assert both.skipped == tuple(sorted(a.skipped + b.skipped))
        total = a.stats["total_resources"] + b.stats["total_resources"]
        assert both.stats["total_resources"] == total


def test_overlapping_inputs_scan_each_file_once(monkeypatch):
    monkeypatch.chdir(FIXTURES.parent.parent)
    relative = os.path.relpath(CORPUS)
    alone = run_scan([relative])
    assert alone.findings and alone.stats["total_resources"]
    # the same directory spelled twice reads as the shorter spelling alone
    assert run_scan([relative, CORPUS]) == alone
    assert run_scan([CORPUS, relative]) == alone
    # a directory and its parent: the parent's scan, with each file counted once
    parent = run_scan([FIXTURES])
    overlapping = run_scan([CORPUS, CORPUS / ".."])
    assert overlapping.stats == parent.stats
    assert sorted(os.path.abspath(f.manifest_path) for f in overlapping.findings) == sorted(
        f.manifest_path for f in parent.findings
    )


# -- the cyclic garbage collector is paused while files are analyzed ---------------


def _add_internal_error(root, monkeypatch):
    """Write ``internal.pp``, a manifest that parses, and make the first
    stage after parsing raise on it, as a fault of the scanner would."""
    import pupsec.harness as harness_mod

    (root / "internal.pp").write_text("$x = 'ok'\n")
    real_index = harness_mod.build_membership_index

    def index(manifest):
        if Path(manifest.path).name == "internal.pp":
            raise RecursionError("maximum recursion depth exceeded")
        return real_index(manifest)

    monkeypatch.setattr(harness_mod, "build_membership_index", index)


def _awkward_tree(root, monkeypatch):
    """The broken-file tree of ``scripts/awkward_tree.py``, plus one
    manifest that the scanner fails on after parsing it."""
    awkward_tree.write_tree(root)
    _add_internal_error(root, monkeypatch)
    return root


def test_scan_pauses_the_collector_while_analyzing(tmp_path, monkeypatch):
    import pupsec.harness as harness_mod

    seen = []
    real_analyze = harness_mod._analyze_file

    def spy(*args):
        seen.append(gc.isenabled())
        return real_analyze(*args)

    monkeypatch.setattr(harness_mod, "_analyze_file", spy)
    run_scan([FIXTURES, _awkward_tree(tmp_path, monkeypatch)])
    assert seen and not any(seen)


def test_same_reports_each_names_every_entry_of_the_awkward_tree(tmp_path):
    # `scripts/same_reports.py --each` compares each file of a tree on its
    # own, the directory and the dangling link included.
    awkward_tree.write_tree(tmp_path)
    names = ["a_good.pp", "broken.pp", "cp1252.pp", "heredoc.pp", "deep_array.pp",
             "deep_if.pp", *awkward_tree.CHAIN_TITLES, "dir.pp", "dangling.pp"]
    same_reports = load_script("same_reports")
    assert same_reports.targets([str(tmp_path)], each=False) == [str(tmp_path)]
    assert same_reports.targets([str(tmp_path)], each=True) == (
        [str(tmp_path)] + sorted(str(tmp_path / name) for name in names)
    )
    file = str(tmp_path / "a_good.pp")
    assert same_reports.targets([file], each=True) == [file]


def test_scan_restores_the_callers_collector_state(tmp_path):
    assert gc.isenabled()
    try:
        run_scan([CORPUS])
        assert gc.isenabled()
        gc.disable()
        run_scan([CORPUS])
        assert not gc.isenabled()
        gc.enable()
        (tmp_path / "bad.pp").write_text("$x = = broken")
        with pytest.raises(ScanError):
            run_scan([tmp_path], on_parse_error="abort")
        assert gc.isenabled()
    finally:
        gc.enable()


def test_scan_leaves_no_cyclic_garbage(tmp_path, monkeypatch):
    """The collector pause is safe only while this holds: whatever the
    pipeline frees, reference counting frees it."""
    tree = _awkward_tree(tmp_path, monkeypatch)
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for mode in ("taint", "pattern"):
            run_scan([FIXTURES, tree], mode=mode)
        with pytest.raises(ScanError):
            run_scan([tree], on_parse_error="abort")
        gc.collect()
        assert gc.garbage == []
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def test_mode_subset_on_fixture_tree():
    taint = run_scan([FIXTURES], mode="taint")
    pattern = run_scan([FIXTURES], mode="pattern")
    taint_keys = {
        (f.manifest_path, f.category, f.weakness_location.line) for f in taint.findings
    }
    pattern_keys = {
        (f.manifest_path, f.category, f.weakness_location.line) for f in pattern.findings
    }
    assert taint_keys <= pattern_keys


def test_parallelism_does_not_change_output():
    runs = []
    for jobs in (1, 8):
        report = run_scan([FIXTURES], jobs=jobs)
        from pupsec.report import render_report

        runs.append(render_report(list(report.findings), report.stats, "json"))
    assert runs[0] == runs[1]


def test_pattern_mode_findings_have_no_sink():
    report = run_scan([CORPUS], mode="pattern")
    assert report.findings
    assert all(f.sink is None and f.path == () for f in report.findings)


def test_text_report_names_resource_attribute_and_category():
    from pupsec.report import render_report

    report = run_scan([WEAKNESS_SUITE / "sha1_password_file.pp"])
    text = render_report(list(report.findings), report.stats, "text").decode()
    finding_line = text.splitlines()[0]
    assert "file_line" in finding_line
    assert ".line" in finding_line
    assert "weak_crypto_algorithm" in finding_line


def test_readme_library_example_finds_what_scan_finds(tmp_path, monkeypatch):
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    example = readme.split("### Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    found = 0
    for fixture in sorted(WEAKNESS_SUITE.glob("*.pp")):
        source_text = fixture.read_text(encoding="utf-8")
        Path("site.pp").write_text(source_text, encoding="utf-8")
        namespace = {"source_text": source_text}
        exec(example, namespace)
        report = run_scan(["site.pp"])
        assert sorted_findings(namespace["findings"]) == list(report.findings), fixture
        assert len(namespace["resources"]) == report.stats["total_resources"], fixture
        found += len(namespace["findings"])
    assert found > 10


# The names README's usage and library sections use, in the order of its
# "Public API" section.
PUBLIC_API = [
    "scan", "RunConfig", "Report", "analyze_manifest", "parse_manifest", "Manifest",
    "render_report", "load_ground_truth", "evaluate",
    "Finding", "PathStep", "AttributeId", "SourceLocation", "WeaknessCategory", "PatternSet",
    "DEFAULT_PATTERNS", "DEFAULT_TAXONOMY",
    "ScanError", "ParseError", "UnsupportedConstruct", "UnknownPredicate", "UnknownFormat",
]
# Names that left `pupsec.__all__`, by the module that still exports them.
FORMERLY_PUBLIC = {
    "classify": ("ClassifiedExpression", "MembershipIndex", "build_membership_index",
                 "classify_expressions", "collect_function_calls"),
    "dataflow": ("DataflowAnalysis",),
    "ddg": ("DataDependenceGraph", "PropagationResult", "build_ddg", "collect_propagations",
            "confirm_findings"),
    "errors": ("ZeroTotal",),
    "parser": ("parse_interpolation",),
    "report": ("categorize_resource", "impacted_resource_pct", "resources_per_weakness_stats"),
    "rules": ("WeaknessCandidate", "detect_candidates", "evaluate_predicate"),
}


def test_public_api_is_the_names_readme_uses():
    import importlib

    assert pupsec.__all__ == PUBLIC_API
    namespace = {}
    exec("from pupsec import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_API)
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("### Public API", 1)[1].split("\n#", 1)[0]
    assert [name for name in PUBLIC_API if f"`{name}" not in section] == []
    for module, names in FORMERLY_PUBLIC.items():
        module = importlib.import_module(f"pupsec.{module}")
        assert all(hasattr(module, name) for name in names), module
        assert not any(hasattr(pupsec, name) for name in names), module


def test_unknown_mode_raises_before_any_file_is_read(monkeypatch):
    import pupsec.harness as harness_mod

    manifest = parse_manifest((WEAKNESS_SUITE / "sha1_password_file.pp").read_text(), "f.pp")
    for mode in ("taint", "pattern"):
        findings, _ = analyze_manifest(manifest, mode)
        assert [f.category for f in findings] == [WeaknessCategory.WEAK_CRYPTO_ALGORITHM], mode
        assert (findings[0].sink is None) == (mode == "pattern")
    calls = []
    monkeypatch.setattr(harness_mod, "_analyze_file", lambda *args: calls.append(args))
    for mode in ("Taint", "patterns", ""):
        with pytest.raises(ValueError, match=f"^unknown mode: {mode!r}$"):
            analyze_manifest(manifest, mode)
        with pytest.raises(ValueError, match=f"^unknown mode: {mode!r}$"):
            run_scan([WEAKNESS_SUITE], mode=mode)
    assert calls == []


# -- an exception after parsing skips its file ---------------------------------------


def _tree_with_internal_error(root, monkeypatch):
    (root / "good.pp").write_text((WEAKNESS_SUITE / "sha1_password_file.pp").read_text())
    _add_internal_error(root, monkeypatch)
    return root


def test_internal_error_skips_only_its_file(tmp_path, capsys, monkeypatch):
    tree = _tree_with_internal_error(tmp_path, monkeypatch)
    assert main(["scan", str(tree / "good.pp")]) == 0
    alone = json.loads(capsys.readouterr().out)["findings"]
    code = main(["scan", str(tree)])
    out, err = capsys.readouterr()
    assert code == 0
    assert json.loads(out)["findings"] == alone
    assert [f["category"] for f in alone] == ["weak_crypto_algorithm"]
    assert f"skipped {tree / 'internal.pp'}: internal error: RecursionError: " in err


def test_internal_error_aborts_under_abort_policy(tmp_path, capsys, monkeypatch):
    tree = _tree_with_internal_error(tmp_path, monkeypatch)
    code = main(["scan", str(tree), "--on-parse-error", "abort"])
    assert code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last == (
        f"pupsec: error: internal error in {tree / 'internal.pp'}:"
        " RecursionError: maximum recursion depth exceeded"
    )


def _scan_title(tmp_path, name):
    """The one resource of a manifest whose title is ``CHAIN_TITLES[name]``,
    once the manifest has scanned without a skip."""
    path = tmp_path / name
    path.write_text(awkward_tree.titled(awkward_tree.CHAIN_TITLES[name]))
    report = run_scan([path])
    assert report.skipped == ()
    assert report.stats["total_resources"] == 1
    (resource,) = _analyze_file(str(path), "taint", DEFAULT_PATTERNS).resources
    assert resource.resource_type == "file"
    return resource


def test_a_long_operator_chain_in_a_title_scans(tmp_path):
    resource = _scan_title(tmp_path, "long_title.pp")
    assert resource.resource_title == "(" * 999 + "'a'" + " + 'a')" * 998 + " + 'x')"


@pytest.mark.parametrize(
    "name,title",
    [
        ("access_title.pp", "$a" + "[1]" * 1000),
        ("selector_title.pp", "$a" + " ? { default => 1 }" * 1000),
        ("mixed_title.pp", "$a" + "[1] ? { default => 1 }" * 500),
    ],
    ids=["access", "selector", "mixed"],
)
def test_a_long_access_or_selector_chain_in_a_title_scans(tmp_path, name, title):
    assert _scan_title(tmp_path, name).resource_title == title


def test_an_exception_in_any_stage_after_parsing_skips_the_file(monkeypatch):
    import pupsec.harness as harness_mod

    def broken_build_ddg(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(harness_mod, "build_ddg", broken_build_ddg)
    good = WEAKNESS_SUITE / "sha1_password_file.pp"
    report = run_scan([good])
    assert report.findings == ()
    assert report.skipped == ((str(good), "internal error: RuntimeError: boom"),)
    assert len(run_scan([good], mode="pattern").findings) == 1
    message = r"^internal error in .*sha1_password_file\.pp: RuntimeError: boom$"
    with pytest.raises(ScanError, match=message):
        run_scan([good], on_parse_error="abort")


# -- evaluation -------------------------------------------------------------------


def test_load_ground_truth_resolves_paths_and_validates():
    truth = load_ground_truth(str(CORPUS_TRUTH))
    assert type(truth) is set
    assert len(truth) == 12
    assert all(Path(manifest).is_absolute() for manifest, _, _ in truth)
    assert all(type(line) is int and line >= 1 for _, _, line in truth)
    assert {category for _, category, _ in truth} == {
        WeaknessCategory.EMPTY_PASSWORD.value,
        WeaknessCategory.HARD_CODED_SECRET.value,
        WeaknessCategory.INVALID_IP_BINDING.value,
        WeaknessCategory.HTTP_WITHOUT_TLS.value,
        WeaknessCategory.WEAK_CRYPTO_ALGORITHM.value,
        WeaknessCategory.ADMIN_BY_DEFAULT.value,
    }


def test_evaluation_and_taxonomy_are_plain_data():
    """Labels are a set, the evaluation is the report's own object and a
    taxonomy is its table: the records that wrapped them are gone."""
    removed = ("GroundTruthEntry", "MetricRow", "EvalMetrics", "metrics_to_dict",
               "ResourceTaxonomy")
    modules = (pupsec, pupsec.harness, pupsec.report)
    assert not any(hasattr(m, name) for m in modules for name in removed)
    assert type(pupsec.DEFAULT_TAXONOMY) is tuple


def test_load_ground_truth_rejects_duplicates(tmp_path):
    f = tmp_path / "truth.csv"
    f.write_text("manifest_path,category,line\nx.pp,empty_password,3\nx.pp,empty_password,3\n")
    with pytest.raises(ValueError):
        load_ground_truth(str(f))


def test_absolute_ground_truth_paths_are_resolved(tmp_path, capsys):
    # Findings carry resolved paths, so a label spelled through a symlinked
    # directory or with `..` must be resolved too, or it never matches.
    real = tmp_path / "real"
    shutil.copytree(CORPUS, real)
    (tmp_path / "link").symlink_to(real, target_is_directory=True)
    truth = tmp_path / "truth.csv"
    spellings = (tmp_path / "link" / "admin_default.pp", real / ".." / "real" / "admin_default.pp")
    for spelling in spellings:
        truth.write_text(f"manifest_path,category,line\n{spelling},admin_by_default,2\n")
        assert main(["scan", str(real), "--ground-truth", str(truth)]) == 0
        overall = json.loads(capsys.readouterr().out)["evaluation"]["overall"]
        assert (overall["tp"], overall["fn"]) == (1, 0), spelling
    rows = "".join(f"{spelling},admin_by_default,2\n" for spelling in spellings)
    truth.write_text("manifest_path,category,line\n" + rows)
    with pytest.raises(ValueError, match="duplicate ground truth entry"):
        load_ground_truth(str(truth))


def test_load_ground_truth_rejects_unknown_category(tmp_path):
    f = tmp_path / "truth.csv"
    f.write_text("manifest_path,category,line\nx.pp,bogus,3\n")
    with pytest.raises(ValueError):
        load_ground_truth(str(f))


def test_evaluate_arithmetic():
    # 9 true findings plus one extra, nothing missed
    report_findings = [("m.pp", "hard_coded_secret", i) for i in range(1, 11)]
    truth = {(str(Path("m.pp").resolve()), "hard_coded_secret", i) for i in range(1, 10)}

    class FakeReport:
        findings = tuple(
            type(
                "F",
                (),
                {
                    "manifest_path": m,
                    "category": WeaknessCategory(c),
                    "weakness_location": type("L", (), {"line": line})(),
                },
            )()
            for m, c, line in report_findings
        )

    metrics = evaluate(FakeReport(), truth)
    # rates are rounded to 4 places: F = 2 * 0.9 / 1.9 = 0.947368...
    row = {"tp": 9, "fp": 1, "fn": 0, "precision": 0.9, "recall": 1.0, "f_measure": 0.9474}
    assert metrics == {"overall": row, "per_category": {"hard_coded_secret": row}}
    assert list(row) == list(metrics["overall"])  # the report's key order


def test_evaluate_identity_is_perfect():
    report = run_scan([CORPUS], mode="taint")
    truth = {
        (str(Path(f.manifest_path).resolve()), f.category.value, f.weakness_location.line)
        for f in report.findings
    }
    overall = evaluate(report, truth)["overall"]
    assert overall["precision"] == 1.0
    assert overall["recall"] == 1.0
    assert overall["f_measure"] == 1.0


def test_metrics_na_when_no_predictions():
    report = run_scan([WEAKNESS_SUITE / "sha1_unused.pp"], mode="taint")
    truth = load_ground_truth(str(CORPUS_TRUTH))
    overall = evaluate(report, truth)["overall"]
    assert overall["precision"] is None
    assert overall["recall"] == 0.0
    assert overall["f_measure"] is None


# -- command line ------------------------------------------------------------------


def test_cli_scan_json(tmp_path, capsys):
    code = main(["scan", str(WEAKNESS_SUITE / "sha1_password_file.pp")])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "taint"
    assert len(doc["findings"]) == 1
    assert doc["findings"][0]["category"] == "weak_crypto_algorithm"
    assert doc["findings"][0]["sink"]["resource_type"] == "file_line"


def test_cli_fail_on_findings(tmp_path, capsys):
    code = main(["scan", str(WEAKNESS_SUITE), "--fail-on-findings"])
    assert code == 1
    code = main(["scan", str(tmp_path), "--fail-on-findings"])
    assert code == 0
    capsys.readouterr()


def test_cli_out_file_and_formats(tmp_path, capsys):
    for fmt in ("json", "text", "sarif"):
        out = tmp_path / f"report.{fmt}"
        code = main(["scan", str(CORPUS), "--format", fmt, "--out", str(out)])
        assert code == 0
        assert out.stat().st_size > 0
    capsys.readouterr()


def test_cli_ground_truth_evaluation(capsys):
    code = main([
        "scan", str(CORPUS),
        "--ground-truth", str(CORPUS_TRUTH),
        "--mode", "pattern",
    ])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["evaluation"]["overall"]["recall"] == 1.0
    assert doc["evaluation"]["overall"]["fp"] == 6


def test_cli_sarif_carries_the_ground_truth_evaluation(capsys):
    # The SARIF run's properties hold the same evaluation as the JSON report.
    args = ["scan", str(FIXTURES), "--ground-truth", str(CORPUS_TRUTH)]
    assert main(args) == 0
    evaluation = json.loads(capsys.readouterr().out)["evaluation"]
    assert evaluation["overall"]["tp"] > 0
    assert main(args + ["--format", "sarif"]) == 0
    (run,) = json.loads(capsys.readouterr().out)["runs"]
    assert run["properties"]["evaluation"] == evaluation
    # ... and both are what the library's evaluate returns
    truth = load_ground_truth(str(CORPUS_TRUTH))
    assert evaluate(run_scan([FIXTURES]), truth) == evaluation
    assert main(["scan", str(FIXTURES), "--format", "sarif"]) == 0
    (run,) = json.loads(capsys.readouterr().out)["runs"]
    assert "evaluation" not in run["properties"]


def test_cli_jobs_flag_and_environment_do_not_change_output(monkeypatch, capsys):
    monkeypatch.delenv("PUPSEC_JOBS", raising=False)
    assert main(["scan", str(CORPUS)]) == 0
    plain = capsys.readouterr().out
    assert main(["scan", str(CORPUS), "--jobs", "2"]) == 0
    assert capsys.readouterr().out == plain
    for value in ("3", "x"):
        monkeypatch.setenv("PUPSEC_JOBS", value)
        assert main(["scan", str(CORPUS)]) == 0
        assert capsys.readouterr().out == plain


def test_evaluate_reports_per_category_rows():
    report = run_scan([CORPUS], mode="pattern")
    truth = load_ground_truth(str(CORPUS_TRUTH))
    metrics = evaluate(report, truth)
    rows = metrics["per_category"]
    assert list(rows) == sorted(rows)
    assert rows["empty_password"]["tp"] == 2
    assert rows["empty_password"]["fp"] == 0
    assert rows["invalid_ip_binding"]["tp"] == 1
    assert rows["invalid_ip_binding"]["fp"] == 2
    assert rows["admin_by_default"]["recall"] == 1.0
    total_tp = sum(r["tp"] for r in rows.values())
    assert total_tp == metrics["overall"]["tp"] == 12


@pytest.mark.parametrize(
    "row,message",
    [
        ("x.pp", "row 3: no category, line"),
        ("x.pp,empty_password", "row 3: no line"),
        ("x.pp,empty_password,three", "row 3: line 'three' is not a number"),
        # rows that no finding could ever match
        (",empty_password,3", "row 3: manifest_path is empty"),
        ("x.pp,empty_password,0", "row 3: line 0 is not a positive number"),
        ("x.pp,empty_password,-2", "row 3: line -2 is not a positive number"),
        ("sub,empty_password,3", "row 3: manifest_path 'sub' is a directory"),
    ],
    ids=["no_category", "no_line", "line_not_a_number", "empty_manifest_path", "line_zero",
         "line_negative", "directory"],
)
def test_cli_malformed_ground_truth_row_exits_2(tmp_path, capsys, row, message):
    (tmp_path / "sub").mkdir()
    truth = tmp_path / "truth.csv"
    truth.write_text(f"manifest_path,category,line\nx.pp,empty_password,3\n{row}\n")
    code = main(["scan", str(CORPUS), "--ground-truth", str(truth)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1] == f"pupsec: error: {truth}: {message}"


def test_cli_invalid_private_key_regex_exits_2(tmp_path, capsys):
    patterns = tmp_path / "patterns.json"
    patterns.write_text('{"isPvtKey": ["(unclosed"]}')
    code = main(["scan", str(CORPUS), "--patterns", str(patterns)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"pupsec: error: {patterns}: isPvtKey entry '(unclosed': ")
    assert "skipped" not in err


@pytest.mark.parametrize(
    "option,content,message",
    [
        ("--patterns", b'{"isUser": ', "Expecting value: line 1 column 12 (char 11)"),
        ("--taxonomy", b'{"db": ', "Expecting value: line 1 column 8 (char 7)"),
        ("--patterns", b'{"isMystery": ["x"]}', "unknown rule predicate: 'isMystery'"),
        ("--patterns", b'{"isUser": ["\xff"]}', "'utf-8' codec can't decode byte 0xff"),
        ("--taxonomy", b'{"db": ["\xff"]}', "'utf-8' codec can't decode byte 0xff"),
        ("--ground-truth", b"manifest_path,category,line\nx.pp,\xff,3\n",
         "'utf-8' codec can't decode byte 0xff"),
        # an empty substring, regex or keyword would match every name or value
        ("--patterns", b'{"isPassword": ["pwd", ""]}', "isPassword has an empty entry"),
        ("--patterns", b'{"isPvtKey": [""]}', "isPvtKey has an empty entry"),
        ("--taxonomy", b'{"DataStorage": [""]}', "DataStorage has an empty keyword"),
        # the search text "TYPE TITLE" always holds a space
        ("--taxonomy", b'{"DataStorage": ["mysql", " "]}', "DataStorage has an empty keyword"),
    ],
    ids=["patterns_truncated", "taxonomy_truncated", "patterns_unknown_key",
         "patterns_not_utf8", "taxonomy_not_utf8", "ground_truth_not_utf8",
         "patterns_empty_substring", "patterns_empty_regex", "taxonomy_empty_keyword",
         "taxonomy_blank_keyword"],
)
def test_cli_config_file_errors_name_the_file(tmp_path, capsys, option, content, message):
    config = tmp_path / "config"
    config.write_bytes(content)
    code = main(["scan", str(CORPUS), option, str(config)])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith(f"pupsec: error: {config}: {message}")


@pytest.mark.parametrize("target", ["manifest", "--ground-truth", "--patterns", "--taxonomy"])
def test_utf8_byte_order_mark_is_skipped(tmp_path, capsys, target):
    """A manifest or config file that starts with a UTF-8 byte-order mark
    scans as it does without one.  A second mark is an unexpected
    character."""
    corpus = shutil.copytree(CORPUS, tmp_path / "corpus")
    configs = {
        "--ground-truth": (tmp_path / "truth.csv", CORPUS_TRUTH.read_bytes()),
        "--patterns": (tmp_path / "patterns.json", b'{"isUser": ["user", "login"]}'),
        "--taxonomy": (tmp_path / "taxonomy.json", b'{"DataStorage": ["mysql", "db"]}'),
    }
    args = ["scan", str(corpus)]
    for option, (path, content) in configs.items():
        path.write_bytes(content)
        args += [option, str(path)]
    marked = corpus / "ci_master.pp" if target == "manifest" else configs[target][0]

    def run():
        code = main(args)
        return code, capsys.readouterr()

    plain = run()
    assert plain[0] == 0 and plain[1].err == ""  # nothing skipped
    marked.write_bytes(b"\xef\xbb\xbf" + marked.read_bytes())
    assert run() == plain
    if target == "manifest":
        marked.write_bytes(b"\xef\xbb\xbf" + marked.read_bytes())
        reason = f"{marked}:1:1: unexpected character '\\ufeff'"
        assert run_scan([marked]).skipped == ((str(marked), reason),)


def test_cli_bad_input_exits_2(capsys):
    code = main(["scan", "no/such/path"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_cli_unwritable_out_exits_2(tmp_path, capsys):
    for target in (tmp_path / "missing" / "r.json", tmp_path):
        code = main(["scan", str(CORPUS), "--fail-on-findings", "--out", str(target)])
        assert code == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"pupsec: error: cannot write {target}: [Errno ")


def test_cli_abort_on_parse_error_exits_2(tmp_path, capsys):
    (tmp_path / "bad.pp").write_text("$x = = nope")
    code = main(["scan", str(tmp_path), "--on-parse-error", "abort"])
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "source,message",
    [
        ("$x = \u00b2\n", "unexpected character '\u00b2'"),
        ("$n = " + "7" * 5000 + "\n", "number literal too long"),
    ],
    ids=["non_ascii_digit", "long_literal"],
)
def test_cli_skips_manifest_with_unlexable_number(tmp_path, capsys, source, message):
    (tmp_path / "good.pp").write_text("$x = 'ok'\nfile { 'f': content => $x }\n")
    (tmp_path / "number.pp").write_text(source, encoding="utf-8")
    code = main(["scan", str(tmp_path)])
    out, err = capsys.readouterr()
    assert code == 0
    assert f"number.pp:1:6: {message}" in err
    assert json.loads(out)["stats"]["total_resources"] == 1


def test_cli_entrypoint_via_module(tmp_path):
    result = subprocess.run(
        [sys.executable, "-B", "-m", "pupsec", "scan", str(WEAKNESS_SUITE / "sha1_unused.pp")],
        capture_output=True,
        cwd=str(Path(__file__).parent.parent),
        env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert result.returncode == 0
    doc = json.loads(result.stdout)
    assert doc["findings"] == []
