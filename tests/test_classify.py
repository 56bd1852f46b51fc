from pupsec.classify import (
    AttributeId,
    build_membership_index,
    classify_expressions,
    collect_function_calls,
)
import pupsec.nodes as nodes_mod
from pupsec.dataflow import DataflowAnalysis
from pupsec.nodes import (
    Assignment,
    AttributeNode,
    ClassDef,
    DefinedTypeDef,
    ExprStatement,
    FunctionCall,
    InterpolatedString,
    Parameter,
    ResourceDecl,
    ResourceOverride,
    StrLiteral,
    VarRef,
    iter_nodes,
)
from pupsec.parser import parse_manifest
from pupsec.printer import expr_text
from pupsec.synth import generate_manifest_text

from conftest import FIXTURES, RARE_FORMS, load_fixture


def parse(src):
    return parse_manifest(src, "test.pp")


def entry_for(entries, name):
    matches = [e for e in entries if e.name == name]
    assert len(matches) == 1, f"expected one entry for {name}, got {matches}"
    return matches[0]


def attribute_ids(index):
    """The id of every attribute, in textual order, from its slot."""
    return [attr_id for _, attr_id, _, _, _ in index.expressions if attr_id is not None]


def attribute_count(manifest):
    return sum(isinstance(n, AttributeNode) for n in iter_nodes(manifest))


def test_string_expression():
    entries = classify_expressions(build_membership_index(parse("$db_user = 'dbadmin'")))
    e = entry_for(entries, "db_user")
    assert type(e.node) is Assignment and e.node.var_name == "db_user"
    assert e.attribute_id is None
    assert e.value == "dbadmin"


def test_function_expression():
    m = parse("$admin_password = pick($access_hash['password'])")
    entries = classify_expressions(build_membership_index(m))
    e = entry_for(entries, "admin_password")
    assert e.value == ()
    assert isinstance(e.node.value, FunctionCall)
    assert e.node.value.name == "pick"


def test_parameter_expression():
    m = parse("class c ($workers = '1') { }")
    entries = classify_expressions(build_membership_index(m))
    e = entry_for(entries, "workers")
    assert m.statements[0].name == "c"
    assert e.node is m.statements[0].parameters[0]
    assert type(e.node) is Parameter and e.node.name == "workers"
    assert e.attribute_id is None
    assert e.value == "1"


def test_undef_is_not_classified_as_string():
    entries = classify_expressions(build_membership_index(parse("$x = undef")))
    e = entry_for(entries, "x")
    assert e.value == ()


def test_parameter_without_default_is_not_an_entry():
    entries = classify_expressions(build_membership_index(parse("class c ($given) { }")))
    assert entries == []


def test_quoted_string_without_interpolation_is_a_string_value():
    entries = classify_expressions(build_membership_index(parse('$x = "plain"')))
    assert entry_for(entries, "x").value == "plain"


def test_interpolated_string_keeps_literal_fragments():
    entries = classify_expressions(build_membership_index(parse('$x = "a${y}b"')))
    e = entry_for(entries, "x")
    assert e.value == ("a", "b")


def test_var_ref_value_is_other():
    entries = classify_expressions(build_membership_index(parse("$x = $y")))
    assert entry_for(entries, "x").value == ()


def test_attribute_entries_one_per_attribute():
    m = load_fixture("sha1_password_file.pp")
    index = build_membership_index(m)
    entries = classify_expressions(index)
    attr_entries = [e for e in entries if e.attribute_id is not None]
    assert len(attr_entries) == len(attribute_ids(index)) == attribute_count(m) == 3


def test_attribute_entry_count_equals_total_attributes_on_generated():
    for seed in range(40):
        m = parse_manifest(generate_manifest_text(seed), "gen.pp")
        entries = classify_expressions(build_membership_index(m))
        attr_entries = [e for e in entries if e.attribute_id is not None]
        assert len(attr_entries) == attribute_count(m)


def test_attribute_ids_resolve_in_membership_index():
    for name in ("jenkins_auth.pp", "haproxy_vips.pp", "onos_dashboard.pp"):
        m = load_fixture(name)
        index = build_membership_index(m)
        for e in classify_expressions(index):
            if e.attribute_id is not None:
                assert e.attribute_id in attribute_ids(index)


def test_membership_index_maps_attributes_to_resource():
    m = load_fixture("sha1_password_file.pp")
    index = build_membership_index(m)
    assert len(index.resource_list) == 1
    for attr_id in attribute_ids(index):
        assert attr_id.resource_type == "file_line"
        assert attr_id.resource_title == "pw_file"
        assert attr_id.manifest_path == m.path
    assert {a.attribute_name for a in attribute_ids(index)} == {"ensure", "path", "line"}


def test_membership_index_empty_manifest():
    index = build_membership_index(parse("$x = 1"))
    assert attribute_ids(index) == []
    assert index.resource_list == ()


def test_same_typed_resources_get_distinct_ordinals():
    m = load_fixture("haproxy_vips.pp")
    index = build_membership_index(m)
    services = [r for r in index.resource_list if r.resource_type == "rjil::haproxy_service"]
    assert [(r.resource_title, r.ordinal) for r in services] == [("api", 0), ("discovery", 1)]
    vip_ids = [a for a in attribute_ids(index) if a.attribute_name == "vip"]
    assert len(vip_ids) == 2
    assert len({a.ordinal for a in vip_ids}) == 2


def test_resource_count_includes_overrides():
    m = load_fixture("nagios_htpasswd.pp")
    index = build_membership_index(m)
    assert len(index.resource_list) == 1
    assert index.resource_list[0].resource_type == "File"


def test_variable_title_uses_source_text():
    m = load_fixture("gerrit_mysql.pp")
    index = build_membership_index(m)
    assert index.resource_list[0].resource_title == "$database_name"
    # A double-quoted title is its text when nothing is embedded, else its source.
    plain = build_membership_index(parse('file { "plain": }'))
    assert plain.resource_list[0].resource_title == "plain"
    m = parse('file { "a${x}": }')
    title = expr_text(m.statements[0].title)
    assert build_membership_index(m).resource_list[0].resource_title == title == '"a${x}"'


def test_resources_inside_branches_are_indexed():
    src = """
class c {
  if $cond {
    file { 'a': ensure => present }
  } else {
    file { 'b': ensure => absent }
  }
}
"""
    index = build_membership_index(parse(src))
    assert [r.resource_title for r in index.resource_list] == ["a", "b"]


def test_classification_is_a_pure_function_of_the_ast():
    for seed in range(30):
        m = parse_manifest(generate_manifest_text(seed), "gen.pp")
        first = build_membership_index(m)
        second = build_membership_index(m)
        assert classify_expressions(first) == classify_expressions(second)
        assert attribute_ids(first) == attribute_ids(second)
        assert first.resource_list == second.resource_list


def test_collect_function_calls_tracks_owner():
    m = load_fixture("nagios_htpasswd.pp")
    calls = collect_function_calls(build_membership_index(m))
    by_name = {c.call.name: c for c in calls}
    for call, var_name in (("htpasswd_sha1", "nagiosadmin_pw"), ("hiera", "nagios_hiera")):
        site = by_name[call]
        assert type(site.node) is Assignment and site.node.var_name == var_name
        assert site.attribute_id is None


def test_statement_position_call_has_no_owner():
    """A call in statement position is held by its statement, which feeds
    nothing: it is no attribute and defines no variable."""
    index = build_membership_index(parse("notice('hello')"))
    calls = collect_function_calls(index)
    assert type(calls[0].node) is ExprStatement
    assert calls[0].attribute_id is None
    assert DataflowAnalysis(index).definition_for(calls[0].node) is None


def _sorted_by_position(manifest):
    """(attribute id, name, value, node) of every assignment, attribute
    and parameter default, sorted by (line, column, kind) with assignments
    before attributes before parameters: the order the classifier's output
    had when it sorted its entries.  An attribute's id is read off the
    AST: its resource's type, its title's text (see ``_rule_value``) or
    source, and the resource's pre-order position among the manifest's
    resources and overrides."""
    attr_id_of = {}
    resources = [n for n in iter_nodes(manifest) if isinstance(n, (ResourceDecl, ResourceOverride))]
    for ordinal, res in enumerate(resources):
        title = _rule_value(res.title)
        if type(title) is not str:
            title = expr_text(res.title)
        for attr in res.attributes:
            attr_id_of[id(attr)] = AttributeId(manifest.path, res.type_name, title, attr.name, ordinal)
    entries = []
    for node in iter_nodes(manifest):
        if isinstance(node, Assignment):
            entries.append((node.loc, 0, None, node.var_name, node.value, node))
        elif isinstance(node, AttributeNode):
            entries.append((node.loc, 1, attr_id_of[id(node)], node.name, node.value, node))
        elif isinstance(node, (ClassDef, DefinedTypeDef)):
            for param in node.parameters:
                if param.default is not None:
                    entries.append((param.loc, 2, None, param.name, param.default, param))
    entries.sort(key=lambda e: (e[0].line, e[0].column, e[1]))
    return [(attr_id, name, _rule_value(expr), id(node))
            for _, _, attr_id, name, expr, node in entries]


def _rule_value(expr):
    """The text a plain string holds, else the text parts of an
    interpolation, else no text at all."""
    if isinstance(expr, StrLiteral):
        return expr.value
    if isinstance(expr, InterpolatedString):
        text = [p for p in expr.parts if isinstance(p, str)]
        return "".join(text) if len(text) == len(expr.parts) else tuple(text)
    return ()


def test_classification_keeps_the_position_order_it_was_sorted_into():
    texts = [(p.read_text(encoding="utf-8"), str(p)) for p in sorted(FIXTURES.rglob("*.pp"))]
    texts.append((RARE_FORMS, "rare.pp"))
    texts.extend((generate_manifest_text(seed), f"gen_{seed}.pp") for seed in range(300))
    for text, path in texts:
        m = parse_manifest(text, path)
        entries = classify_expressions(build_membership_index(m))
        got = [(e.attribute_id, e.name, e.value, id(e.node)) for e in entries]
        assert got == _sorted_by_position(m), path


# Interpolated strings whose parts are, and are not, only text and variables.
EMBEDDED_FORMS = """\
$b = "a${h['k']}b${f($x)}"
$c = "${b}-${ b }-$b"
file { "/tmp/${c}": content => "${b ? { 'x' => 'y', default => $c }}" }
"""


def _walk_free(expr) -> bool:
    """A leaf, a ``VarRef``, or an interpolated string of text and
    ``VarRef``s: the expressions whose slot needs no walk."""
    if type(expr) not in nodes_mod._CHILDREN or type(expr) is VarRef:
        return True
    return type(expr) is InterpolatedString and all(type(p) in (str, VarRef) for p in expr.parts)


def test_each_analyzed_file_walks_its_statements_once(tmp_path, monkeypatch):
    """``build_membership_index`` is the one statement walk per file.  It
    walks each expression of its table at most once, and a walk-free one
    (see ``_walk_free``) not at all; every slot still holds the names and
    calls a walk would find.  The classifier, the call-site search and the
    dataflow read the slots it fills."""
    import pupsec.classify as classify_mod
    import pupsec.dataflow as dataflow_mod
    import pupsec.ddg as ddg_mod
    from pupsec.harness import _analyze_file
    from pupsec.rules import DEFAULT_PATTERNS

    walked, collectors, expression_walks, dataflows = [], [], [], []
    real_init = classify_mod._Collector.__init__
    real_dataflow = ddg_mod.DataflowAnalysis

    def counting_init(self, manifest):
        walked.append(manifest.path)
        collectors.append(self)
        real_init(self, manifest)
        collectors.append(None)  # the collector is done

    def counting_iter_nodes(obj):
        assert collectors and collectors[-1] is not None, "a walk outside the collector"
        expression_walks.append(obj)
        return iter_nodes(obj)

    def forbidden(*args):
        raise AssertionError("the dataflow walked an expression")

    def guarded_dataflow(index):
        dataflows.append(index)
        with monkeypatch.context() as m:
            for module in (classify_mod, dataflow_mod, nodes_mod):
                if hasattr(module, "iter_nodes"):
                    m.setattr(module, "iter_nodes", forbidden)
            return real_dataflow(index)

    monkeypatch.setattr(classify_mod._Collector, "__init__", counting_init)
    monkeypatch.setattr(classify_mod, "iter_nodes", counting_iter_nodes)
    monkeypatch.setattr(ddg_mod, "DataflowAnalysis", guarded_dataflow)
    paths = [str(p) for p in sorted(FIXTURES.rglob("*.pp"))]
    texts = [RARE_FORMS, EMBEDDED_FORMS] + [generate_manifest_text(seed) for seed in range(100)]
    for i, text in enumerate(texts):
        paths.append(str(tmp_path / f"m{i}.pp"))
        with open(paths[-1], "w", encoding="utf-8") as fh:
            fh.write(text)
    walk_free = walked_slots = 0
    for mode in ("taint", "pattern"):
        for path in paths:
            walked.clear()
            collectors.clear()
            expression_walks.clear()
            assert _analyze_file(path, mode, DEFAULT_PATTERNS).error is None, path
            assert walked == [path], (mode, path)
            slots = [s for s in collectors[0].exprs if s[2] is not None]  # markers hold nothing
            walks = [id(e) for e in expression_walks]
            assert len(set(walks)) == len(walks), (mode, path)
            assert set(walks) <= {id(s[0]) for s in slots}, (mode, path)
            for expr, _, _, names, calls in slots:
                found = list(iter_nodes(expr))
                assert names == tuple(n.name for n in found if isinstance(n, VarRef)), (mode, path)
                assert [id(c) for c in calls] == [id(n) for n in found if isinstance(n, FunctionCall)]
                if _walk_free(expr):
                    assert id(expr) not in walks, (mode, path, expr)
                    walk_free += 1
                else:
                    walked_slots += id(expr) in walks
    assert walk_free > walked_slots > 0
    assert len(dataflows) > len(paths) // 2
