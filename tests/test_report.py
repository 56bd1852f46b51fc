import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_report
from pupsec.classify import AttributeId
from pupsec.cli import main
from pupsec.errors import ScanError, UnknownFormat, ZeroTotal
from pupsec.harness import RunConfig, analyze_manifest, evaluate, load_ground_truth, scan
from pupsec.nodes import SourceLocation
from pupsec.parser import parse_manifest
from pupsec.report import (
    DEFAULT_TAXONOMY,
    Finding,
    PathStep,
    categorize_resource,
    compute_stats,
    impacted_resource_pct,
    load_taxonomy,
    render_report,
    resources_per_weakness_stats,
)
from pupsec.rules import WeaknessCategory
from pupsec.synth import generate_manifest_text

from conftest import CORPUS, CORPUS_TRUTH, FIXTURES


def make_finding(manifest="m.pp", line=1, category=WeaknessCategory.HARD_CODED_SECRET,
                 rtype="file", rtitle="x", attr="content", ordinal=0):
    sink = AttributeId(manifest, rtype, rtitle, attr, ordinal)
    weakness_loc = SourceLocation(manifest, line, 1)
    sink_loc = SourceLocation(manifest, line + 5, 3)
    return Finding(
        category=category,
        manifest_path=manifest,
        weakness_location=weakness_loc,
        weakness_name="$secret",
        sink=sink,
        sink_location=sink_loc,
        path=(
            PathStep("taint", "$secret", line, 1),
            PathStep("sink", f"{rtype}[{rtitle}].{attr}", line + 5, 3),
        ),
    )


# -- impacted resource percentage ------------------------------------------------


def test_impacted_resource_pct_reference_values():
    assert impacted_resource_pct(2945, 65599) == pytest.approx(4.49, abs=0.005)
    assert impacted_resource_pct(4457, 108552) == pytest.approx(4.11, abs=0.005)


def test_impacted_resource_pct_zero_impacted():
    assert impacted_resource_pct(0, 1000) == 0.00


def test_impacted_resource_pct_zero_total_raises():
    with pytest.raises(ZeroTotal):
        impacted_resource_pct(0, 0)


def test_impacted_resource_pct_bounds():
    with pytest.raises(ValueError):
        impacted_resource_pct(5, 4)


# -- per-weakness spread ----------------------------------------------------------


def test_spread_single_weakness_two_resources():
    findings = [
        make_finding(rtitle="api", ordinal=0),
        make_finding(rtitle="discovery", ordinal=1),
    ]
    assert resources_per_weakness_stats(findings) == (2, 2, 2)


def test_spread_single_finding():
    assert resources_per_weakness_stats([make_finding()]) == (1, 1, 1)


def test_spread_synthetic_counts():
    # weakness sink-counts {1, 1, 3, 35}: min 1, lower-middle median 1, max 35
    findings = []
    for widx, count in enumerate([1, 1, 3, 35]):
        for r in range(count):
            findings.append(make_finding(line=widx + 1, rtitle=f"r{r}", ordinal=r))
    assert resources_per_weakness_stats(findings) == (1, 1, 35)


def test_spread_empty_findings():
    assert resources_per_weakness_stats([]) is None


# -- taxonomy ---------------------------------------------------------------------


@pytest.mark.parametrize(
    "rtype,rtitle,expected",
    [
        ("mysql::db", "gerrit", "DataStorage"),
        ("rjil::haproxy_service", "api", "LoadBalancers"),
        ("file_line", "anything", "File"),
        ("totally_novel_type", "x", "Unknown"),
        ("icinga::slack_contact", "oncall", "CommunicationPlatforms"),
        ("magnum", "::magnum::keystone::authtoken", "Containerization"),
        ("exec", "jenkins_auth_config", "ContinuousIntegration"),
        ("onos::dashboard", "main", "Networking"),
        ("firewall", "100 allow", "Networking"),
    ],
)
def test_default_taxonomy_categories(rtype, rtitle, expected):
    assert categorize_resource(rtype, rtitle, DEFAULT_TAXONOMY) == expected


def test_taxonomy_order_matters_first_match_wins():
    # 'jenkins::file_sync' matches ContinuousIntegration before File
    assert categorize_resource("jenkins::file_sync", "x", DEFAULT_TAXONOMY) == (
        "ContinuousIntegration"
    )


def test_taxonomy_has_seven_default_categories():
    assert len(DEFAULT_TAXONOMY) == 7


def test_taxonomy_override_file(tmp_path):
    f = tmp_path / "taxonomy.json"
    f.write_text('{"Monitoring": ["nagios"], "Everything": ["e"]}')
    taxonomy = load_taxonomy(str(f))
    assert taxonomy == (("Monitoring", ("nagios",)), ("Everything", ("e",)))
    assert categorize_resource("nagios::server", "x", taxonomy) == "Monitoring"
    assert categorize_resource("exec", "deploy", taxonomy) == "Everything"
    assert categorize_resource("zzz", "qqq", taxonomy) == "Unknown"


# -- stats aggregation ---------------------------------------------------------


def test_per_category_counts_sum_to_impacted():
    findings = [
        make_finding(rtype="mysql::db", rtitle="a", ordinal=0),
        make_finding(rtype="file", rtitle="b", ordinal=1),
        make_finding(rtype="oddball", rtitle="c", ordinal=2),
        make_finding(rtype="oddball", rtitle="c", ordinal=2),  # same resource twice
    ]
    from pupsec.classify import ResourceInfo

    resources = [
        ResourceInfo("m.pp", "mysql::db", "a", 0, SourceLocation("m.pp", 1, 1)),
        ResourceInfo("m.pp", "file", "b", 1, SourceLocation("m.pp", 2, 1)),
        ResourceInfo("m.pp", "oddball", "c", 2, SourceLocation("m.pp", 3, 1)),
        ResourceInfo("m.pp", "untouched", "d", 3, SourceLocation("m.pp", 4, 1)),
    ]
    stats = compute_stats(findings, resources)
    assert stats["total_resources"] == 4
    assert stats["impacted_resources"] == 3
    assert sum(c["resources"] for c in stats["per_category"].values()) == 3
    assert list(stats["per_category"]) == ["DataStorage", "File", "Unknown"]
    # the whole object, in the key order the report prints
    share = {"resources": 1, "pct": 33.33}
    assert list(stats.items()) == [
        ("total_resources", 4),
        ("impacted_resources", 3),
        ("impacted_pct", 75.0),
        ("per_category", {"DataStorage": share, "File": share, "Unknown": share}),
        ("per_weakness_stats", {"min": 3, "median": 3, "max": 3}),  # one weakness, 3 sinks
    ]
    assert compute_stats([], resources)["per_weakness_stats"] is None


def _analyzed(tree):
    """The findings and resources of every ``.pp`` file under *tree* that
    parses, with the paths ``scan`` gives them."""
    findings, resources = [], []
    for path in sorted(tree.glob("**/*.pp")):
        try:
            manifest = parse_manifest(path.read_text(encoding="utf-8"), str(path))
        except ScanError:
            continue
        found, kept = analyze_manifest(manifest)
        findings += found
        resources += kept
    return findings, resources


@pytest.mark.parametrize("tree", [FIXTURES, CORPUS], ids=["fixtures", "corpus"])
def test_stats_are_the_reports_stats_object(tree, tmp_path):
    """``compute_stats`` returns the ``stats`` object that the JSON report
    prints, and ``Report.stats`` is that object: the records that carried
    it to the renderer are gone."""
    import pupsec
    import pupsec.report

    out = tmp_path / "report.json"
    assert main(["scan", str(tree), "--out", str(out)]) == 0
    printed = json.loads(out.read_text(encoding="utf-8"))["stats"]
    stats = compute_stats(*_analyzed(tree))
    assert stats == printed and list(stats) == list(printed)
    assert stats["impacted_resources"] > 0 and stats["per_weakness_stats"] is not None
    assert scan(RunConfig(inputs=(str(tree),))).stats == stats
    removed = ("CorpusStats", "CategoryStat", "_stats_to_dict")
    assert not any(hasattr(m, name) for m in (pupsec, pupsec.report) for name in removed)


# -- rendering -------------------------------------------------------------------


def empty_stats():
    return compute_stats([], [])


def test_render_unknown_format_raises():
    with pytest.raises(UnknownFormat):
        render_report([], empty_stats(), "yaml")


def test_render_json_zero_findings():
    payload = render_report([], empty_stats(), "json")
    doc = json.loads(payload)
    assert doc["findings"] == []
    assert doc["stats"]["total_resources"] == 0
    assert doc["rule_semantics"] == "disjunctive-names"
    assert doc["mode"] == "taint"


def test_render_is_deterministic():
    findings = [make_finding(), make_finding(line=9, rtitle="other", ordinal=1)]
    stats = empty_stats()
    for fmt in ("json", "text", "sarif"):
        assert render_report(findings, stats, fmt) == render_report(findings, stats, fmt)


def test_render_json_differs_for_different_findings():
    stats = empty_stats()
    a = render_report([make_finding()], stats, "json")
    b = render_report([make_finding(line=2)], stats, "json")
    assert a != b


def test_render_text_names_sink_and_category():
    f = make_finding(category=WeaknessCategory.WEAK_CRYPTO_ALGORITHM,
                     rtype="file_line", attr="line")
    text = render_report([f], empty_stats(), "text").decode()
    line = text.splitlines()[0]
    assert "file_line" in line
    assert ".line" in line
    assert "weak_crypto_algorithm" in line


def test_render_sarif_shape():
    f = make_finding()
    doc = json.loads(render_report([f], empty_stats(), "sarif"))
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "pupsec"
    assert len(run["tool"]["driver"]["rules"]) == 6
    result = run["results"][0]
    assert result["ruleId"] == "hard_coded_secret"
    region = result["locations"][0]["physicalLocation"]["region"]
    assert region["startLine"] == 1
    assert len(result["relatedLocations"]) == 2


def test_findings_sorted_in_output():
    findings = [
        make_finding(manifest="z.pp", line=1),
        make_finding(manifest="a.pp", line=7),
        make_finding(manifest="a.pp", line=2),
    ]
    doc = json.loads(render_report(findings, empty_stats(), "json"))
    keys = [(f["manifest"], f["line"]) for f in doc["findings"]]
    assert keys == [("a.pp", 2), ("a.pp", 7), ("z.pp", 1)]


def test_package_version_is_the_report_version():
    import pupsec
    import pupsec.report

    assert pupsec.__version__ == pupsec.report.VERSION


# -- the emitters write the bytes json.dumps(indent=2) writes ----------------------


def assert_same_as_reference(findings, stats, mode="taint", evaluation=None):
    assert render_report(findings, stats, "json", mode, evaluation) == reference_report.render_json(
        findings, stats, mode, evaluation
    )
    assert render_report(findings, stats, "sarif", mode, evaluation) == (
        reference_report.render_sarif(findings, mode, evaluation)
    )


@pytest.mark.parametrize("mode", ["taint", "pattern"])
def test_reports_match_the_reference_on_the_fixtures(mode):
    report = scan(RunConfig(inputs=(str(FIXTURES),), mode=mode))
    assert report.findings
    assert_same_as_reference(list(report.findings), report.stats, mode)


@pytest.mark.parametrize("mode", ["taint", "pattern"])
def test_reports_match_the_reference_on_generated_manifests(mode, tmp_path):
    for seed in range(300):
        (tmp_path / f"gen_{seed:03d}.pp").write_text(generate_manifest_text(seed))
    report = scan(RunConfig(inputs=(str(tmp_path),), mode=mode))
    assert report.findings and not report.skipped
    assert_same_as_reference(list(report.findings), report.stats, mode)


def test_empty_report_matches_the_reference():
    for mode in ("taint", "pattern"):
        assert_same_as_reference([], empty_stats(), mode)


def test_report_with_evaluation_matches_the_reference():
    report = scan(RunConfig(inputs=(str(CORPUS),)))
    evaluation = evaluate(report, load_ground_truth(str(CORPUS_TRUTH)))
    assert_same_as_reference(list(report.findings), report.stats, "taint", evaluation)


def test_finding_without_sink_location_matches_the_reference():
    finding = make_finding()
    finding.sink_location = None
    assert_same_as_reference([finding, make_finding(line=3)], empty_stats())


# Characters that JSON escapes, or that an encoder without ensure_ascii
# would write through: quotes, backslashes, controls, non-ASCII letters,
# line and paragraph separators, an astral character and lone surrogates.
AWKWARD = ['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\t", "\u00e9", "\u2028", "\u2029",
           "\U0001f600", "\ud800", "\udfff", "/"]
TEXTS = st.text(st.one_of(st.characters(), st.sampled_from(AWKWARD)), max_size=8)
NUMBERS = st.integers(min_value=0, max_value=10**12)


@st.composite
def findings_sharing_steps(draw):
    """Findings over a few manifests whose paths pick from one pool of
    steps, so steps repeat within a finding, across findings and across
    manifests."""
    steps = draw(st.lists(st.builds(PathStep, TEXTS, TEXTS, NUMBERS, NUMBERS),
                          min_size=1, max_size=5))
    manifests = draw(st.lists(TEXTS, min_size=1, max_size=3))
    findings = []
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        manifest = draw(st.sampled_from(manifests))
        sink = draw(st.none() | st.builds(AttributeId, st.just(manifest), TEXTS, TEXTS, TEXTS,
                                          NUMBERS))
        sink_location = draw(st.none() | st.builds(SourceLocation, st.just(manifest), NUMBERS,
                                                   NUMBERS))
        findings.append(Finding(
            category=draw(st.sampled_from(WeaknessCategory)),
            manifest_path=manifest,
            weakness_location=SourceLocation(manifest, draw(NUMBERS), draw(NUMBERS)),
            weakness_name=draw(TEXTS),
            sink=sink,
            sink_location=sink_location,
            path=tuple(draw(st.lists(st.sampled_from(steps), max_size=6))),
        ))
    return findings


@settings(max_examples=100, deadline=None)
@given(findings_sharing_steps(), TEXTS,
       st.none() | st.dictionaries(TEXTS, st.none() | NUMBERS | TEXTS, max_size=3))
def test_reports_with_awkward_text_match_the_reference(findings, mode, evaluation):
    assert_same_as_reference(findings, compute_stats(findings, []), mode, evaluation)
