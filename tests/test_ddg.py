import random
import sys
from collections import Counter

import pytest

from pupsec.classify import (
    AttributeId,
    build_membership_index,
    classify_expressions,
    collect_function_calls,
)
from pupsec.ddg import DataDependenceGraph, build_ddg, collect_propagations, confirm_findings
from pupsec.harness import analyze_manifest
from pupsec.parser import parse_manifest
from pupsec.report import PathStep
from pupsec.rules import WeaknessCategory, detect_candidates
from pupsec.synth import generate_manifest_text

import reference_ddg
from conftest import FIXTURES, RARE_FORMS, load_fixture, load_script
from oracle import oracle_findings


def pipeline(manifest):
    index = build_membership_index(manifest)
    classified = classify_expressions(index)
    calls = collect_function_calls(index)
    candidates = detect_candidates(classified, calls)
    ddg = build_ddg(manifest, candidates, index)
    return candidates, index, ddg


def findings_of(manifest):
    return list(analyze_manifest(manifest)[0])


def parse(src):
    return parse_manifest(src, "test.pp")


# -- graph construction --------------------------------------------------------


def test_weak_hash_flows_into_password_file():
    m = load_fixture("sha1_password_file.pp")
    candidates, index, ddg = pipeline(m)
    assert ddg is not None
    assert [step.kind for step in ddg.nodes] == ["taint", "sink"]
    assert ddg.edges == ((0, 1),)
    props = collect_propagations(ddg)
    assert len(props) == 1
    (path,) = props[0].paths.values()
    assert len(path) == 2  # taint straight into the sink


def test_unused_hash_builds_no_graph():
    m = load_fixture("sha1_unused.pp")
    candidates, index, ddg = pipeline(m)
    assert len(candidates) == 1
    assert ddg is None
    assert findings_of(m) == []


def test_no_candidates_builds_no_graph():
    m = parse("$x = 'safe'\nfile { 'f': content => $x }")
    _, _, ddg = pipeline(m)
    assert ddg is None


def test_graph_always_has_taint_and_sink():
    for seed in range(150):
        m = parse_manifest(generate_manifest_text(seed), "gen.pp")
        _, _, ddg = pipeline(m)
        if ddg is None:
            continue
        kinds = {step.kind for step in ddg.nodes}
        assert "taint" in kinds
        assert "sink" in kinds


def test_edges_point_at_valid_nodes_and_paths_are_walkable():
    for seed in range(150):
        m = parse_manifest(generate_manifest_text(seed), "gen.pp")
        _, _, ddg = pipeline(m)
        if ddg is None:
            continue
        n = len(ddg.nodes)
        assert all(0 <= a < n and 0 <= b < n for a, b in ddg.edges)
        edge_pairs = set(ddg.edges)
        # by identity: two candidates on one element have equal steps
        node_of = {id(step): i for i, step in enumerate(ddg.nodes)}
        for prop in collect_propagations(ddg):
            assert prop.paths
            for attr_id, path in prop.paths.items():
                assert path[0].kind == "taint"
                assert path[-1].kind == "sink"
                indexed = [node_of[id(step)] for step in path]
                assert ddg.taints[indexed[0]] is prop.taint
                assert ddg.attributes[indexed[-1]] == attr_id
                for a, b in zip(indexed, indexed[1:]):
                    assert (a, b) in edge_pairs


def test_graph_is_acyclic():
    for seed in range(150):
        m = parse_manifest(generate_manifest_text(seed), "gen.pp")
        _, _, ddg = pipeline(m)
        if ddg is None:
            continue
        succ = {}
        for a, b in ddg.edges:
            succ.setdefault(a, []).append(b)
        state = {}

        def visit(i):
            if state.get(i) == "done":
                return
            assert state.get(i) != "on_stack", f"cycle at seed {seed}"
            state[i] = "on_stack"
            for j in succ.get(i, ()):
                visit(j)
            state[i] = "done"

        for i in range(len(ddg.nodes)):
            visit(i)


# -- propagation fixtures --------------------------------------------------------


def test_one_taint_two_sinks():
    m = load_fixture("haproxy_vips.pp")
    candidates, index, ddg = pipeline(m)
    assert [c.category for c in candidates] == [WeaknessCategory.INVALID_IP_BINDING]
    props = collect_propagations(ddg)
    assert len(props) == 1
    sinks = set(props[0].paths)
    assert len(sinks) == 2
    assert {(s.resource_title, s.attribute_name) for s in sinks} == {
        ("api", "vip"),
        ("discovery", "vip"),
    }


def test_three_intermediate_chain():
    m = load_fixture("onos_dashboard.pp")
    candidates, index, ddg = pipeline(m)
    props = collect_propagations(ddg)
    password_prop = [p for p in props if p.taint.display_name == "$password"][0]
    (path,) = password_prop.paths.values()
    labels = [step.label if step.kind == "intermediate" else step.kind for step in path]
    assert labels == [
        "taint",
        "$dashboard_desc",
        "$json_hash",
        "$json_message",
        "sink",
    ]


def test_witness_path_is_shortest():
    src = """
$token_password = 'abc'
$hop = "${token_password}"
file { 'f':
  content => "${token_password}${hop}",
}
"""
    m = parse(src)
    _, _, ddg = pipeline(m)
    props = collect_propagations(ddg)
    (path,) = props[0].paths.values()
    # direct taint->sink edge exists, so the witness must not detour via $hop
    assert len(path) == 2


def test_witness_path_tie_breaks_on_textually_first_intermediate():
    # two equal-length routes to the sink; the witness must take the
    # earlier intermediate definition
    src = """
$api_password = 'abc'
$first_hop = "${api_password}"
$second_hop = "${api_password}"
file { 'f':
  content => "${first_hop}${second_hop}",
}
"""
    m = parse(src)
    _, _, ddg = pipeline(m)
    (prop,) = collect_propagations(ddg)
    (path,) = prop.paths.values()
    assert len(path) == 3
    assert path[1].kind == "intermediate"
    assert path[1].label == "$first_hop"


def test_intermediate_with_no_sink_is_kept_but_contributes_nothing():
    m = load_fixture("magnum_auth.pp")
    candidates, index, ddg = pipeline(m)
    inter_names = {step.label for step in ddg.nodes if step.kind == "intermediate"}
    assert "$magnum_url" in inter_names
    findings = findings_of(m)
    assert len(findings) == 2
    for f in findings:
        assert all("magnum_url" not in step.label for step in f.path)


def _random_dag(rng, tied=False):
    """A synthetic 10-node DDG: 2 taints, 5 intermediates, 3 sinks, with
    random forward edges.  The non-taint nodes are numbered by (line,
    column, draw order), the textual numbering ``build_ddg`` gives.  With
    *tied*, intermediates and sinks draw their lines from a narrow range,
    so several of them share a position and their textual order ties."""
    m = parse("$seed_password = 'x'\n$other_password = 'y'")
    index = build_membership_index(m)
    candidates = detect_candidates(classify_expressions(index), collect_function_calls(index))
    drawn = []
    for i in range(5):
        line = rng.randint(3, 5) if tied else i + 3
        drawn.append((line, 1, len(drawn), PathStep("intermediate", f"$v{i}", line, 1), None))
    for i in range(3):
        line = rng.randint(3, 5) if tied else i + 8
        attr = AttributeId("dag.pp", "file", f"r{i}", "content", i)
        drawn.append((line, 1, len(drawn), PathStep("sink", f"file[r{i}].content", line, 1), attr))
    drawn.sort(key=lambda d: d[:3])
    nodes = [PathStep("taint", c.display_name, c.location.line, c.location.column)
             for c in candidates]
    nodes += [d[3] for d in drawn]
    attributes = [None] * len(candidates) + [d[4] for d in drawn]
    edges = []
    for a in range(10):
        for b in range(max(a + 1, 2), 10):
            if attributes[a] is not None:
                continue  # sinks have no outgoing edges
            if rng.random() < 0.3:
                edges.append((a, b))
    return DataDependenceGraph(
        "dag.pp", tuple(candidates), tuple(nodes), tuple(edges), tuple(attributes))


def _bruteforce_reachable(edges, start):
    # enumerate every path outward from start
    succ = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    reached = set()
    stack = [(start, (start,))]
    while stack:
        node, path = stack.pop()
        for nxt in succ.get(node, ()):
            if nxt not in path:  # paths only; graph is a DAG anyway
                reached.add(nxt)
                stack.append((nxt, path + (nxt,)))
    return reached


def test_random_dag_propagations_match_bruteforce_closure():
    rng = random.Random(99)
    for _ in range(60):
        ddg = _random_dag(rng)
        props = {id(p.taint): p for p in collect_propagations(ddg)}
        for start, taint in enumerate(ddg.taints):
            expected_sinks = {
                ddg.attributes[i]
                for i in _bruteforce_reachable(ddg.edges, start)
                if ddg.attributes[i] is not None
            }
            prop = props.get(id(taint))
            got = frozenset(prop.paths) if prop is not None else frozenset()
            assert got == frozenset(expected_sinks)


def _bruteforce_witnesses(ddg, start):
    """The witness path to every sink reachable from *start*, chosen from
    all paths: the shortest, and among equal lengths the one whose steps
    come first by position in the predecessor's successor list.  Successors
    are ranked by node index, which ``build_ddg`` makes their text order."""
    succ = {}
    for a, b in ddg.edges:
        succ.setdefault(a, []).append(b)
    for neighbors in succ.values():
        neighbors.sort()
    best = {}  # sink index -> (length, positions, path)
    stack = [((start,), ())]
    while stack:
        path, positions = stack.pop()
        if ddg.attributes[path[-1]] is not None:
            ranked = (len(path), positions, path)
            if path[-1] not in best or ranked < best[path[-1]]:
                best[path[-1]] = ranked
        for pos, nxt in enumerate(succ.get(path[-1], ())):
            stack.append((path + (nxt,), positions + (pos,)))
    return {
        ddg.attributes[sink]: tuple(ddg.nodes[i] for i in path)
        for sink, (_, _, path) in best.items()
    }


def test_random_dag_witness_paths_match_bruteforce_enumeration():
    rng = random.Random(7)
    for trial in range(400):
        ddg = _random_dag(rng, tied=trial % 2 == 1)
        props = {id(p.taint): p for p in collect_propagations(ddg)}
        for start, taint in enumerate(ddg.taints):
            expected = _bruteforce_witnesses(ddg, start)
            prop = props.get(id(taint))
            assert (prop.paths if prop is not None else {}) == expected


# -- confirm_findings -------------------------------------------------------------


def test_one_finding_per_candidate_sink_pair():
    m = load_fixture("haproxy_vips.pp")
    findings = findings_of(m)
    assert len(findings) == 2
    assert {f.sink.resource_title for f in findings} == {"api", "discovery"}


def test_candidates_without_sinks_are_dropped():
    m = parse("$db_password = 'x'\n$used = 'y'\nfile { 'f': content => $used }")
    candidates, index, ddg = pipeline(m)
    assert len(candidates) == 1
    assert ddg is None


def test_direct_attribute_candidate_is_its_own_sink():
    m = parse("mysql::db { 'x': password => '' }")
    findings = findings_of(m)
    assert len(findings) == 1
    f = findings[0]
    assert f.category is WeaknessCategory.EMPTY_PASSWORD
    assert f.sink.attribute_name == "password"
    assert [s.kind for s in f.path] == ["taint", "sink"]


def _sweep(monkeypatch):
    """``scripts/sweep.py``, whose ``chain``, ``relay`` and ``many``
    templates run many witness paths through the same DDG nodes.  The
    script puts ``perfbench/`` on ``sys.path``; the test's copy of it is
    thrown away."""
    monkeypatch.setattr(sys, "path", sys.path[:])
    return load_script("sweep")


@pytest.mark.parametrize("shape", ["chain", "many"])
def test_confirm_findings_builds_one_path_step_per_ddg_node(shape, monkeypatch):
    import pupsec.ddg as ddg_mod

    sweep = _sweep(monkeypatch)
    text, _ = sweep.chain_text(50) if shape == "chain" else sweep.many_text(90)  # 40 links each

    built = []
    real_path_step = ddg_mod.PathStep

    def counting_path_step(*args):
        built.append(real_path_step(*args))
        return built[-1]

    monkeypatch.setattr(ddg_mod, "PathStep", counting_path_step)
    _, _, ddg = pipeline(parse(text))
    paths = [path for prop in collect_propagations(ddg) for path in prop.paths.values()]
    assert sum(map(len, paths)) > len({id(n) for path in paths for n in path})  # nodes repeat
    findings = confirm_findings(collect_propagations(ddg))
    # build_ddg makes each node's step once; the paths and findings share them
    assert [id(s) for s in built] == [id(s) for s in ddg.nodes]
    assert len(set(built)) == len(built)  # no step is built twice
    assert {id(s) for f in findings for s in f.path} <= {id(s) for s in built}


def test_filter_is_monotone_against_candidates():
    for seed in range(120):
        m = parse_manifest(generate_manifest_text(seed), "gen.pp")
        candidates, index, ddg = pipeline(m)
        findings = (
            confirm_findings(collect_propagations(ddg)) if ddg else []
        )
        candidate_keys = {(c.category, c.location.line, c.location.column) for c in candidates}
        finding_keys = {
            (f.category, f.weakness_location.line, f.weakness_location.column)
            for f in findings
        }
        assert finding_keys <= candidate_keys


def _reference_step(node):
    """A reference graph node as (kind, label, line, column, attribute):
    the witness-path step ``build_ddg`` makes for it, and its sink's
    attribute."""
    if isinstance(node, reference_ddg.TaintNode):
        return ("taint", node.candidate.display_name, node.loc.line, node.loc.column, None)
    if isinstance(node, reference_ddg.IntermediateNode):
        return ("intermediate", f"${node.var_name}", node.loc.line, node.loc.column, None)
    a = node.attribute
    label = f"{a.resource_type}[{a.resource_title}].{a.attribute_name}"
    return ("sink", label, node.loc.line, node.loc.column, a)


def test_build_ddg_equals_the_reference_on_every_input(monkeypatch):
    # The old construction, with an adjacency map per reader kind and an
    # index map per node kind, must give the same taints in the same
    # order, and the same nodes and edges once each of its nodes is mapped
    # to its step, or no graph where it gives none.  Counted as multisets:
    # two candidates on one element have equal steps.  The non-taint
    # nodes are numbered in textual order, which is what ranks a node's
    # successors, and the edges come sorted with no duplicates.
    sweep = _sweep(monkeypatch)
    texts = [(p.read_text(encoding="utf-8"), str(p)) for p in sorted(FIXTURES.rglob("*.pp"))]
    texts.append((RARE_FORMS, "rare.pp"))
    texts.extend((generate_manifest_text(seed), f"synthetic_{seed}.pp") for seed in range(300))
    for template, lines in ((sweep.chain_text, 50), (sweep.relay_text, 50), (sweep.many_text, 90)):
        texts.append((template(lines)[0], f"{template.__name__}.pp"))  # 40 links each
    graphs = 0
    for text, path in texts:
        m = parse_manifest(text, path)
        index = build_membership_index(m)
        candidates = detect_candidates(classify_expressions(index), collect_function_calls(index))
        ddg = build_ddg(m, candidates, index)
        reference = reference_ddg.build_ddg(m, candidates, index)
        assert (ddg is None) == (reference is None), path
        if ddg is None:
            continue
        graphs += 1
        assert ddg.manifest_path == reference.manifest_path, path
        reference_taints = [n.candidate for n in reference.nodes
                            if isinstance(n, reference_ddg.TaintNode)]
        assert len(ddg.taints) == len(reference_taints), path
        assert all(a is b for a, b in zip(ddg.taints, reference_taints)), path
        steps = [(s.kind, s.label, s.line, s.column, a) for s, a in zip(ddg.nodes, ddg.attributes)]
        reference_steps = [_reference_step(n) for n in reference.nodes]
        assert Counter(steps) == Counter(reference_steps), path
        assert (Counter((steps[a], steps[b]) for a, b in ddg.edges)
                == Counter((reference_steps[a], reference_steps[b]) for a, b in reference.edges)), path
        places = [(s.line, s.column) for s in ddg.nodes[len(ddg.taints):]]
        assert all(a < b for a, b in zip(places, places[1:])), path
        assert all(a < b for a, b in zip(ddg.edges, ddg.edges[1:])), path
        for prop in collect_propagations(ddg):
            sinks = [(p[-1].line, p[-1].column) for p in prop.paths.values()]
            assert sinks == sorted(sinks), path  # each candidate's sinks in textual order
    assert graphs > len(texts) // 3


def test_findings_equal_the_trace_oracle(monkeypatch):
    # The oracle replays every branch combination of a manifest and closes
    # the def-use flows it sees from each candidate's stored value, with no
    # use of the dataflow, the DDG or the slot table that both read.  Each
    # finding's witness path must be as short as the oracle's shortest.
    sweep = _sweep(monkeypatch)
    texts = [(p.read_text(encoding="utf-8"), str(p)) for p in sorted(FIXTURES.rglob("*.pp"))]
    texts.append((RARE_FORMS, "rare.pp"))
    texts.extend((generate_manifest_text(seed), f"synthetic_{seed}.pp") for seed in range(500))
    for template in (sweep.chain_text, sweep.relay_text, sweep.many_text):
        texts.append((template(90)[0], f"{template.__name__}.pp"))  # straight-line, one trace
    with_findings = 0
    for text, path in texts:
        m = parse_manifest(text, path)
        index = build_membership_index(m)
        candidates = detect_candidates(classify_expressions(index), collect_function_calls(index))
        expected = oracle_findings(m, candidates, index.resource_list)
        findings = analyze_manifest(m)[0]
        got = {(f.category, f.weakness_location, f.sink): len(f.path) for f in findings}
        assert got == expected, path
        assert len(findings) == len(got), path  # one finding per candidate and sink
        with_findings += bool(expected)
    assert with_findings > len(texts) // 3
