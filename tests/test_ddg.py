import random
import sys

import pytest

from pupsec.classify import (
    AttributeId,
    build_membership_index,
    classify_expressions,
    collect_function_calls,
)
from pupsec.ddg import (
    DataDependenceGraph,
    IntermediateNode,
    SinkNode,
    TaintNode,
    build_ddg,
    collect_propagations,
    confirm_findings,
)
from pupsec.harness import analyze_manifest
from pupsec.nodes import SourceLocation
from pupsec.parser import parse_manifest
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
    kinds = [type(n).__name__ for n in ddg.nodes]
    assert kinds == ["TaintNode", "SinkNode"]
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
        node_types = {type(n) for n in ddg.nodes}
        assert TaintNode in node_types
        assert SinkNode in node_types


def test_edges_point_at_valid_nodes_and_paths_are_walkable():
    for seed in range(150):
        m = parse_manifest(generate_manifest_text(seed), "gen.pp")
        _, _, ddg = pipeline(m)
        if ddg is None:
            continue
        n = len(ddg.nodes)
        assert all(0 <= a < n and 0 <= b < n for a, b in ddg.edges)
        edge_pairs = set(ddg.edges)
        for prop in collect_propagations(ddg):
            assert prop.paths
            for attr_id, path in prop.paths.items():
                assert isinstance(path[0], TaintNode)
                assert isinstance(path[-1], SinkNode)
                assert path[-1].attribute == attr_id
                indexed = [ddg.nodes.index(node) for node in path]
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
    labels = [
        n.var_name if isinstance(n, IntermediateNode) else type(n).__name__ for n in path
    ]
    assert labels == [
        "TaintNode",
        "dashboard_desc",
        "json_hash",
        "json_message",
        "SinkNode",
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
    assert isinstance(path[1], IntermediateNode)
    assert path[1].var_name == "first_hop"


def test_intermediate_with_no_sink_is_kept_but_contributes_nothing():
    m = load_fixture("magnum_auth.pp")
    candidates, index, ddg = pipeline(m)
    inter_names = {n.var_name for n in ddg.nodes if isinstance(n, IntermediateNode)}
    assert "magnum_url" in inter_names
    findings = findings_of(m)
    assert len(findings) == 2
    for f in findings:
        assert all("magnum_url" not in step.label for step in f.path)


def _random_dag(rng, tied=False):
    """A synthetic 10-node DDG: 2 taints, 5 intermediates, 3 sinks, with
    random forward edges.  With *tied*, intermediates and sinks draw their
    lines from a narrow range, so several of them share a position and
    their textual order ties."""
    m = parse("$seed_password = 'x'\n$other_password = 'y'")
    index = build_membership_index(m)
    candidates = detect_candidates(classify_expressions(index), collect_function_calls(index))
    nodes = [TaintNode(c) for c in candidates]
    for i in range(5):
        line = rng.randint(3, 5) if tied else i + 3
        nodes.append(IntermediateNode(f"v{i}", SourceLocation("dag.pp", line, 1)))
    for i in range(3):
        attr = AttributeId("dag.pp", "file", f"r{i}", "content", i)
        line = rng.randint(3, 5) if tied else i + 8
        nodes.append(SinkNode(attr, SourceLocation("dag.pp", line, 1)))
    edges = set()
    for a in range(10):
        for b in range(max(a + 1, 2), 10):
            if isinstance(nodes[a], SinkNode):
                continue  # sinks have no outgoing edges
            if rng.random() < 0.3:
                edges.add((a, b))
    return DataDependenceGraph("dag.pp", tuple(nodes), tuple(sorted(edges)))


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
        for start, node in enumerate(ddg.nodes):
            if not isinstance(node, TaintNode):
                continue
            expected_sinks = {
                ddg.nodes[i].attribute
                for i in _bruteforce_reachable(ddg.edges, start)
                if isinstance(ddg.nodes[i], SinkNode)
            }
            prop = props.get(id(node.candidate))
            got = frozenset(prop.paths) if prop is not None else frozenset()
            assert got == frozenset(expected_sinks)


_KIND_RANK = {TaintNode: 0, IntermediateNode: 1, SinkNode: 2}


def _bruteforce_witnesses(ddg, start):
    """The witness path to every sink reachable from *start*, chosen from
    all paths: the shortest, and among equal lengths the one whose steps
    come first by position in the predecessor's successor list.  Successors
    are listed in text order (line, column, taint < intermediate < sink),
    equal positions keeping node index order."""

    def text_order(i):
        node = ddg.nodes[i]
        return (node.loc.line, node.loc.column, _KIND_RANK[type(node)])

    succ = {}
    for a, b in ddg.edges:
        succ.setdefault(a, []).append(b)
    for neighbors in succ.values():
        neighbors.sort(key=text_order)
    best = {}  # sink index -> (length, positions, path)
    stack = [((start,), ())]
    while stack:
        path, positions = stack.pop()
        if isinstance(ddg.nodes[path[-1]], SinkNode):
            ranked = (len(path), positions, path)
            if path[-1] not in best or ranked < best[path[-1]]:
                best[path[-1]] = ranked
        for pos, nxt in enumerate(succ.get(path[-1], ())):
            stack.append((path + (nxt,), positions + (pos,)))
    return {
        ddg.nodes[sink].attribute: tuple(ddg.nodes[i] for i in path)
        for sink, (_, _, path) in best.items()
    }


def test_random_dag_witness_paths_match_bruteforce_enumeration():
    rng = random.Random(7)
    for trial in range(400):
        ddg = _random_dag(rng, tied=trial % 2 == 1)
        props = {id(p.taint): p for p in collect_propagations(ddg)}
        for start, node in enumerate(ddg.nodes):
            if not isinstance(node, TaintNode):
                continue
            expected = _bruteforce_witnesses(ddg, start)
            prop = props.get(id(node.candidate))
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
    assert len(built) <= len(ddg.nodes)
    assert len(set(built)) == len(built)  # no step is built twice
    assert {id(s) for f in findings for s in f.path} == {id(s) for s in built}


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


def test_build_ddg_equals_the_reference_on_every_input(monkeypatch):
    # The old construction, with an adjacency map per reader kind and an
    # index map per node kind, must give the same nodes in the same order
    # and the same edges, or no graph where it gives none.
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
        assert ddg == reference_ddg.build_ddg(m, candidates, index), path
        graphs += ddg is not None
        for prop in collect_propagations(ddg) if ddg is not None else ():
            sinks = [(p[-1].loc.line, p[-1].loc.column) for p in prop.paths.values()]
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
