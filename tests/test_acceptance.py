"""Acceptance suite.

Each test is one release criterion, checked at its stated tolerance.
A per-criterion PASS/FAIL line is printed in the terminal summary (see
conftest.pytest_terminal_summary).
"""

import time

import pytest

from pupsec.classify import (
    build_membership_index,
    classify_expressions,
    collect_function_calls,
)
from pupsec.dataflow import DataflowAnalysis
from pupsec.ddg import build_ddg, collect_propagations
from pupsec.harness import RunConfig, analyze_manifest, evaluate, load_ground_truth, scan
from pupsec.nodes import ResourceDecl
from pupsec.parser import parse_manifest
from pupsec.report import categorize_resource, impacted_resource_pct, render_report
from pupsec.rules import WeaknessCategory, detect_candidates
from pupsec.synth import generate_manifest_text

from conftest import CORPUS, CORPUS_TRUTH, FIXTURES, load_fixture
from oracle import all_def_use_pairs, enumerate_traces, oracle_reaches


def analyze(manifest, mode="taint"):
    if mode == "pattern":
        index = build_membership_index(manifest)
        return detect_candidates(classify_expressions(index), collect_function_calls(index))
    return list(analyze_manifest(manifest)[0])


def test_criterion_1_fixture_suite_runs_the_documented_behaviors():
    started = time.monotonic()

    # Weak hash written into a managed password file: exactly one finding.
    findings = analyze(load_fixture("sha1_password_file.pp"))
    assert len(findings) == 1
    assert findings[0].category is WeaknessCategory.WEAK_CRYPTO_ALGORITHM
    assert findings[0].sink.resource_type == "file_line"

    # Unused hash: no findings in taint mode, one candidate in pattern mode.
    unused = load_fixture("sha1_unused.pp")
    assert analyze(unused) == []
    assert len(analyze(unused, mode="pattern")) == 1

    # Reachability with and without an intervening redefinition.
    reach = load_fixture("proto_reaches.pp")
    url_attr = [s for s in reach.statements if isinstance(s, ResourceDecl)][0].attributes[1]
    analysis = DataflowAnalysis(build_membership_index(reach))
    assert analysis.reaches(reach.statements[0], url_attr) is True
    redefined = load_fixture("proto_redefined.pp")
    url_attr2 = [s for s in redefined.statements if isinstance(s, ResourceDecl)][0].attributes[1]
    analysis = DataflowAnalysis(build_membership_index(redefined))
    assert analysis.reaches(redefined.statements[0], url_attr2) is False

    # Hard-coded user name flowing into a chat contact resource.
    findings = analyze(load_fixture("slack_contact.pp"))
    assert len(findings) == 1
    assert findings[0].category is WeaknessCategory.HARD_CODED_SECRET
    assert findings[0].sink.resource_type == "icinga::slack_contact"

    # Insecure scheme reaching two attributes of the container resource,
    # with the dead-end intermediate contributing nothing.
    findings = analyze(load_fixture("magnum_auth.pp"))
    assert len(findings) == 2
    assert all(f.category is WeaknessCategory.HTTP_WITHOUT_TLS for f in findings)
    assert {f.sink.attribute_name for f in findings} == {"auth_uri", "auth_url"}
    assert all(f.sink.resource_type == "magnum" for f in findings)
    assert all("magnum_url" not in step.label for f in findings for step in f.path)

    # Empty password concatenated via join() into an exec command.
    findings = analyze(load_fixture("jenkins_auth.pp"))
    assert len(findings) == 1
    assert findings[0].category is WeaknessCategory.EMPTY_PASSWORD
    assert findings[0].sink.resource_type == "exec"
    assert findings[0].sink.attribute_name == "command"

    # Empty password used directly as a database password.
    findings = analyze(load_fixture("gerrit_mysql.pp"))
    assert len(findings) == 1
    assert findings[0].category is WeaknessCategory.EMPTY_PASSWORD
    assert findings[0].sink.resource_type == "mysql::db"
    assert findings[0].sink.attribute_name == "password"

    # Weak hash flowing into a file override's content attribute.
    findings = analyze(load_fixture("nagios_htpasswd.pp"))
    assert len(findings) == 1
    assert findings[0].category is WeaknessCategory.WEAK_CRYPTO_ALGORITHM
    assert findings[0].sink.resource_type == "File"
    assert findings[0].sink.attribute_name == "content"

    # One invalid-bind taint with exactly two sinks.
    manifest = load_fixture("haproxy_vips.pp")
    index = build_membership_index(manifest)
    classified = classify_expressions(index)
    candidates = detect_candidates(classified, collect_function_calls(index))
    props = collect_propagations(build_ddg(manifest, candidates, index))
    assert len(props) == 1
    assert props[0].taint.category is WeaknessCategory.INVALID_IP_BINDING
    assert len(props[0].paths) == 2

    # Hard-coded password reaching an exec command through three
    # intermediate definitions.
    findings = analyze(load_fixture("onos_dashboard.pp"))
    password = [f for f in findings if f.weakness_name == "$password"]
    assert len(password) == 1
    assert password[0].sink.resource_type == "exec"
    assert password[0].sink.attribute_name == "command"
    intermediates = [s for s in password[0].path if s.kind == "intermediate"]
    assert len(intermediates) == 3

    elapsed = time.monotonic() - started
    assert elapsed < 1.0, f"fixture suite took {elapsed:.2f}s"


def test_criterion_2_false_positive_guards():
    for src in (
        "$db_admin_password = undef",
        "$admin_password = pick($access_hash['password'])",
    ):
        manifest = parse_manifest(src, "guard.pp")
        index = build_membership_index(manifest)
        candidates = detect_candidates(classify_expressions(index), collect_function_calls(index))
        secrets = [c for c in candidates if c.category is WeaknessCategory.HARD_CODED_SECRET]
        assert secrets == [], src


def test_criterion_3_impacted_percentage_arithmetic():
    assert impacted_resource_pct(2945, 65599) == pytest.approx(4.49, abs=0.005)
    assert impacted_resource_pct(4457, 108552) == pytest.approx(4.11, abs=0.005)


def test_criterion_4_reachability_matches_bruteforce_on_500_manifests():
    started = time.monotonic()
    pairs_checked = 0
    disagreements = 0
    for seed in range(500):
        text = generate_manifest_text(seed, max_statements=12, max_depth=2)
        manifest = parse_manifest(text, "gen.pp")
        analysis = DataflowAnalysis(build_membership_index(manifest))
        traces = enumerate_traces(manifest)
        for def_node, use_node, var in all_def_use_pairs(manifest):
            expected = oracle_reaches(traces, def_node, use_node, var)
            if analysis.reaches(def_node, use_node) is not expected:
                disagreements += 1
            pairs_checked += 1
    elapsed = time.monotonic() - started
    assert disagreements == 0
    assert pairs_checked > 1000
    assert elapsed < 30.0, f"oracle sweep took {elapsed:.1f}s"


def test_criterion_5_taint_findings_subset_of_pattern_findings():
    violations = 0
    for seed in range(200):
        manifest = parse_manifest(generate_manifest_text(seed), "gen.pp")
        taint_keys = {
            (f.category, f.weakness_location.line, f.weakness_location.column)
            for f in analyze(manifest)
        }
        pattern_keys = {
            (c.category, c.location.line, c.location.column)
            for c in analyze(manifest, mode="pattern")
        }
        if not taint_keys <= pattern_keys:
            violations += 1
    assert violations == 0


def test_criterion_6_corpus_precision_and_recall():
    truth = load_ground_truth(str(CORPUS_TRUTH))
    taint = evaluate(scan(RunConfig(inputs=(str(CORPUS),), mode="taint")), truth)["overall"]
    pattern = evaluate(scan(RunConfig(inputs=(str(CORPUS),), mode="pattern")), truth)["overall"]
    assert taint["recall"] == 1.0
    assert pattern["recall"] == 1.0
    assert taint["precision"] > pattern["precision"]


def test_criterion_7_reports_identical_across_worker_counts():
    payloads = []
    for jobs in (1, 8):
        report = scan(RunConfig(inputs=(str(FIXTURES),), jobs=jobs))
        payloads.append(
            render_report(list(report.findings), report.stats, "json", mode=report.mode)
        )
    assert payloads[0] == payloads[1]


def test_criterion_8_resource_taxonomy_exemplars():
    exemplars = [
        ("mysql::db", "gerrit", "DataStorage"),
        ("rjil::haproxy_service", "api", "LoadBalancers"),
        ("file_line", "pw_file", "File"),
        ("icinga::slack_contact", "slack_search_team", "CommunicationPlatforms"),
        ("magnum", "::magnum::keystone::authtoken", "Containerization"),
        ("exec", "jenkins_auth_config", "ContinuousIntegration"),
        ("onos::dashboard", "create_dashboard_link", "Networking"),
        ("totally_novel_type", "x", "Unknown"),
    ]
    for rtype, rtitle, expected in exemplars:
        assert categorize_resource(rtype, rtitle) == expected, (rtype, rtitle)
