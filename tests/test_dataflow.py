import os
import random
import sys

import pupsec.harness
from pupsec.classify import build_membership_index
from pupsec.dataflow import DataflowAnalysis
from pupsec.harness import _analyze_file, analyze_manifest
from pupsec.nodes import Assignment, AttributeNode, IfStatement, Manifest, ResourceDecl, VarRef
from pupsec.parser import parse_manifest
from pupsec.printer import manifest_source
from pupsec.report import compute_stats, render_report
from pupsec.rules import DEFAULT_PATTERNS
from pupsec.synth import generate_manifest_text

from conftest import FIXTURE_TEXTS, FIXTURES, RARE_FORMS, load_fixture, load_script
from oracle import all_def_use_pairs, enumerate_traces, oracle_reaches


def parse(src):
    return parse_manifest(src, "test.pp")


def analysis_of(manifest):
    return DataflowAnalysis(build_membership_index(manifest))


def slot_names(src):
    """The names the dataflow reads at `$probe = SRC`: the names of the
    one slot that the membership index gives it."""
    (slot,) = build_membership_index(parse(f"$probe = {src}")).expressions
    return set(slot[3])


# -- the names a slot reads ---------------------------------------------------


def test_uses_of_interpolation():
    assert slot_names('"${magnum_protocol}://${magnum_host}:5000/v3"') == {"magnum_protocol", "magnum_host"}


def test_uses_of_function_args():
    assert "jenkins_management_password" in slot_names("join(['a', \"${jenkins_management_password}\"], ' ')")


def test_uses_of_literal_is_empty():
    assert slot_names("'literal'") == set()


def test_uses_of_covers_all_expression_forms():
    src = "join($h['k'], [$a, { 'x' => $b }], $c ? { 'v' => $d, default => $e })"
    assert slot_names(src) == {"h", "a", "b", "c", "d", "e"}


def test_uses_of_resource_ref_title():
    assert slot_names('File["${libdir}/cli.groovy"]') == {"libdir"}


# -- reaches ------------------------------------------------------------------


def url_attribute(manifest):
    resource = [s for s in manifest.statements if isinstance(s, ResourceDecl)][0]
    return [a for a in resource.attributes if a.name == "url"][0]


def test_definition_reaches_use():
    m = load_fixture("proto_reaches.pp")
    definition = m.statements[0]
    assert analysis_of(m).reaches(definition, url_attribute(m)) is True


def test_redefinition_kills_earlier_definition():
    m = load_fixture("proto_redefined.pp")
    first, second = m.statements[0], m.statements[1]
    assert analysis_of(m).reaches(first, url_attribute(m)) is False
    assert analysis_of(m).reaches(second, url_attribute(m)) is True


def test_branch_definition_reaches_after_merge():
    m = load_fixture("haproxy_vips.pp")
    cls = m.statements[0]
    first_if = [s for s in cls.body if isinstance(s, IfStatement)][0]
    else_def = first_if.else_body[0]
    api_resource = [s for s in cls.body if isinstance(s, ResourceDecl)][0]
    vip_attr = api_resource.attributes[0]
    assert analysis_of(m).reaches(else_def, vip_attr) is True


def test_defs_in_sibling_branches_do_not_reach_each_other():
    src = """
if $cond {
  $x = 'a'
} else {
  $y = "${x}"
}
"""
    m = parse(src)
    if_stmt = m.statements[0]
    x_def = if_stmt.then_body[0]
    y_def = if_stmt.else_body[0]
    assert analysis_of(m).reaches(x_def, y_def) is False


def test_reassignment_in_one_branch_does_not_kill():
    src = """
$x = 'v1'
if $cond {
  $x = 'v2'
}
file { 'f': content => $x }
"""
    m = parse(src)
    first = m.statements[0]
    attr = m.statements[2].attributes[0]
    assert analysis_of(m).reaches(first, attr) is True


def test_reassignment_in_all_branches_kills():
    src = """
$x = 'v1'
if $cond {
  $x = 'v2'
} else {
  $x = 'v3'
}
file { 'f': content => $x }
"""
    m = parse(src)
    first = m.statements[0]
    attr = m.statements[2].attributes[0]
    assert analysis_of(m).reaches(first, attr) is False


def test_case_without_default_does_not_kill():
    src = """
$x = 'v1'
case $os {
  'a': { $x = 'v2' }
}
file { 'f': content => $x }
"""
    m = parse(src)
    assert analysis_of(m).reaches(m.statements[0], m.statements[2].attributes[0]) is True


def test_self_reference_reads_previous_definition():
    src = '$x = \'seed\'\n$x = "${x}-suffix"\nfile { \'f\': content => $x }'
    m = parse(src)
    first, second = m.statements[0], m.statements[1]
    attr = m.statements[2].attributes[0]
    # the old definition reaches the redefinition's right-hand side ...
    assert analysis_of(m).reaches(first, second) is True
    # ... but is killed for later uses; the new definition reaches them
    assert analysis_of(m).reaches(first, attr) is False
    assert analysis_of(m).reaches(second, attr) is True


def test_class_parameter_reaches_body_use():
    m = load_fixture("gerrit_mysql.pp")
    cls = m.statements[0]
    password_param = cls.parameters[1]
    resource = cls.body[0]
    password_attr = resource.attributes[0]
    analysis = DataflowAnalysis(build_membership_index(m))
    assert analysis.reaches(password_param, password_attr) is True


def test_a_use_record_is_made_exactly_where_a_value_can_flow():
    """A node gets a use record, at its first such slot, when one of its
    slots reads a name or when it is an attribute; a node whose slots read
    only literals gets none, and every attribute, each a sink, has one."""
    texts = FIXTURE_TEXTS + [RARE_FORMS, "$a = 'x'\nfile { 'f': mode => '0644' }\n"]
    texts += [generate_manifest_text(seed) for seed in range(100)]
    literal_only = 0
    for text in texts:
        index = build_membership_index(parse(text))
        expected, holders = {}, set()
        for _, attr_id, node, names, _ in index.expressions:
            if node is None:
                continue
            holders.add(id(node))
            assert (attr_id is not None) is (type(node) is AttributeNode)
            if names or attr_id is not None:
                expected.setdefault(id(node), node)
        analysis = DataflowAnalysis(index)
        assert [id(r.node) for r in analysis.use_records] == list(expected), text
        literal_only += len(holders) - len(expected)
    assert literal_only > 100


# -- kill metamorphic property ------------------------------------------------


def test_inserting_reassignment_flips_reachability():
    # On straight-line manifests: def .. use with no kill reaches; adding
    # an unconditional reassignment between them must flip the answer.
    rng = random.Random(2024)
    checked = 0
    for _ in range(40):
        var = rng.choice(["alpha", "beta", "gamma"])
        filler = [f"$other{i} = {i}" for i in range(rng.randint(0, 3))]
        src_lines = [f"${var} = 'original'"] + filler + [
            f"file {{ 'probe': content => ${var} }}"
        ]
        m = parse("\n".join(src_lines))
        definition = m.statements[0]
        attr = m.statements[-1].attributes[0]
        assert analysis_of(m).reaches(definition, attr) is True

        killed_lines = src_lines[:-1] + [f"${var} = 'killer'"] + src_lines[-1:]
        m2 = parse("\n".join(killed_lines))
        definition2 = m2.statements[0]
        attr2 = m2.statements[-1].attributes[0]
        assert analysis_of(m2).reaches(definition2, attr2) is False
        checked += 1
    assert checked == 40


def _sink_keys(text, tmp_path):
    path = tmp_path / "m.pp"
    path.write_text(text, encoding="utf-8")
    result = _analyze_file(str(path), "taint", DEFAULT_PATTERNS)
    assert result.error is None
    return {
        (f.category, f.weakness_name, f.sink.resource_type, f.sink.resource_title,
         f.sink.attribute_name, f.sink.ordinal)
        for f in result.findings
    }


def test_wrapping_statements_in_an_if_keeps_every_finding(tmp_path):
    # A may-reach join only adds definitions, so putting a run of top-level
    # assignments and resources under a condition can add (weakness, sink)
    # pairs but never lose one.
    rng = random.Random(7)
    checked = 0
    for seed in range(400):
        text = generate_manifest_text(seed)
        statements = parse(text).statements
        runs = [
            (start, end)
            for start in range(len(statements))
            for end in range(start + 1, len(statements) + 1)
            if all(isinstance(s, (Assignment, ResourceDecl)) for s in statements[start:end])
        ]
        if not runs:
            continue
        start, end = rng.choice(runs)
        wrapped = IfStatement(VarRef("zz_cond", statements[start].loc), statements[start:end], (),
                              statements[start].loc)
        new_statements = statements[:start] + (wrapped,) + statements[end:]
        wrapped_text = manifest_source(Manifest("m.pp", new_statements, ""))
        missing = _sink_keys(text, tmp_path) - _sink_keys(wrapped_text, tmp_path)
        assert not missing, (seed, start, end, missing)
        checked += 1
    assert checked >= 300


def _traced(call, tracer):
    """``call()`` with *tracer* as sys.settrace."""
    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        return call()
    finally:
        sys.settrace(previous)


def _branchy_text(lines):
    """A manifest of about *lines* lines of if/else blocks."""
    out = []
    for k in range(lines // 8):
        out += [
            "if $c {", "  $password = 'p'", f"  $cfg{k} = 'a'", "} else {",
            "  $password = 's'", f"  $cfg{k} = 'b'", "}",
            f"file {{ 'f{k}': content => $password, path => $cfg{k} }}",
        ]
    return "\n".join(out)


# The lines run in each ``pupsec`` module during ``call()``, and its result.
_line_events = load_script("line_events").line_events


def _deepest_stack(call):
    """The most frames on the stack at any call during ``call()``."""
    deepest = 0

    def tracer(frame, event, arg):
        nonlocal deepest
        depth = 0
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        deepest = max(deepest, depth)

    _traced(call, tracer)
    return deepest


def test_dataflow_stack_is_flat_and_the_index_walk_takes_two_frames_per_level():
    # The index walk runs deeper in the stack than the parser, which takes
    # three frames per `if` or `case` level; at two it survives every nest
    # the parser accepts.  The dataflow reads the index's flat table, so its
    # depth does not grow with nesting at all: a recursive walk, or a lookup
    # that recursed through nested overlays, would add frames per level.
    body = "$password = 'x'\nfile { 'f': content => $password }\n"
    for head, tail in (("if $a { ", "}"), ("case $a { 'v': { ", "} }")):
        shallow, deep = (parse(head * n + body + tail * n) for n in (20, 40))
        assert (_deepest_stack(lambda: build_membership_index(deep))
                - _deepest_stack(lambda: build_membership_index(shallow))) <= 2 * 20
        shallow, deep = map(build_membership_index, (shallow, deep))
        assert (_deepest_stack(lambda: DataflowAnalysis(deep))
                == _deepest_stack(lambda: DataflowAnalysis(shallow)))


def test_dataflow_work_grows_linearly_with_branchy_manifests(monkeypatch):
    # Every branchy block leaves one more live variable behind, so a join
    # that touches every live variable makes the work quadratic; `chain` and
    # `relay` read ever longer runs of definitions.  The executed lines of
    # every module of the per-file pipeline, from lexing to confirmed
    # findings, are counted, which is exact where a timing would be noisy.
    # On `relay` one secret reaches the file of every 4th link, so the
    # witness paths' total length grows quadratically, and on `many` every
    # earlier secret reaches every later file, so the findings grow
    # quadratically and their steps cubically.  There the DDG module's lines
    # are counted per unit of its output (graph nodes, edges and witness
    # steps), and on `many` the JSON and SARIF renderers' per finding and
    # witness step.
    monkeypatch.setattr(sys, "path", sys.path[:])  # sweep.py adds perfbench/
    sweep = load_script("sweep")
    graphs = []
    real_build_ddg = pupsec.harness.build_ddg

    def build_ddg(*args):
        graphs.append(real_build_ddg(*args))
        return graphs[-1]

    monkeypatch.setattr(pupsec.harness, "build_ddg", build_ddg)

    def run(text):
        graphs.clear()
        counts, (findings, resources) = _line_events(lambda: analyze_manifest(parse(text)))
        (ddg,) = graphs
        return counts, ddg, list(findings), list(resources)

    def steps(findings):
        return sum(len(f.path) for f in findings)

    for name, template, n in (("local branchy", _branchy_text, 500),
                              ("chain", lambda n: sweep.chain_text(n)[0], 500),
                              ("branchy", lambda n: sweep.branchy_text(n)[0], 500),
                              ("relay", lambda n: sweep.relay_text(n)[0], 500),
                              ("many", lambda n: sweep.many_text(n)[0], 90)):
        runs = [run(template(lines)) for lines in (n, 2 * n)]
        (small, *_), (large, *_) = runs
        small_out, large_out = (len(d.nodes) + len(d.edges) + steps(f) for _, d, f, _ in runs)
        assert set(large) == set(small), name
        for module in small:
            bound = 2.1 * small[module]
            if name in ("relay", "many") and module == "ddg.py":
                bound = 1.05 * small[module] * large_out / small_out
            assert large[module] <= bound, (name, module, small[module], large[module])
    for fmt in ("json", "sarif"):  # `runs` still holds the two `many` manifests
        per_unit = []
        for _, _, findings, resources in runs:
            stats = compute_stats(findings, resources)
            counts, _ = _line_events(lambda: render_report(findings, stats, fmt))
            per_unit.append(sum(counts.values()) / (len(findings) + steps(findings)))
        assert per_unit[1] <= 1.05 * per_unit[0], (fmt, per_unit)


# -- oracle agreement ----------------------------------------------------------


def test_reaches_agrees_with_bruteforce_oracle_on_small_sample():
    # Smoke-sized oracle run; the full 500-manifest sweep lives in the
    # acceptance suite.
    for seed in range(40):
        text = generate_manifest_text(seed, max_statements=8)
        m = parse_manifest(text, "gen.pp")
        analysis = DataflowAnalysis(build_membership_index(m))
        traces = enumerate_traces(m)
        for def_node, use_node, var in all_def_use_pairs(m):
            expected = oracle_reaches(traces, def_node, use_node, var)
            assert analysis.reaches(def_node, use_node) is expected, (
                seed,
                var,
                text,
            )


def test_line_events_script_prints_the_same_table_twice(capsys, monkeypatch):
    """``scripts/line_events.py`` on three fixture files: two runs print
    identical tables, and a ``--parent`` count of this same tree reads
    the same events and changes no module."""
    monkeypatch.setattr(sys, "path", sys.path[:])  # the script adds src/
    script = load_script("line_events")
    args = [str(FIXTURES), "--files", "3"]
    tables = []
    for _ in range(2):
        assert script.main(args) == 0
        tables.append(capsys.readouterr().out)
    assert tables[0] == tables[1]
    header, *rows = tables[0].splitlines()
    assert header.split() == ["module", "events"]
    assert rows[-1].split()[0] == "total" and int(rows[-1].split()[1].replace(",", "")) > 0
    src = os.path.dirname(os.path.dirname(pupsec.harness.__file__))
    assert script.main(args + ["--parent", src]) == 0
    header, *paired = capsys.readouterr().out.splitlines()
    assert header.split() == ["module", "parent", "this", "change"]
    assert [row.split()[:3:2] for row in paired] == [row.split() for row in rows]
    for row in paired:
        _, parent, this, change = row.split()
        assert parent == this and change == "+0", row
