import collections
import enum
import itertools
import random
import string
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pupsec.parser
import reference_parser
from pupsec.errors import ParseError, UnsupportedConstruct
from pupsec.harness import _analyze_file
from pupsec.lexer import tokenize
from pupsec.nodes import (
    Assignment,
    BinaryOp,
    ClassDef,
    Manifest,
    ResourceDecl,
    ResourceOverride,
    SourceLocation,
    StrLiteral,
    UnaryOp,
    UndefLiteral,
    VarRef,
    iter_nodes,
    structurally_equal,
)
from pupsec.parser import parse_interpolation, parse_manifest
from pupsec.printer import expr_text, manifest_source
from pupsec.rules import DEFAULT_PATTERNS
from pupsec.synth import generate_manifest_text

from conftest import FIXTURE_TEXTS, SNIPPETS, WEAKNESS_SUITE, load_fixture, mutated_fixtures


def parse(src: str) -> Manifest:
    return parse_manifest(src, "test.pp")


def test_simple_assignment():
    m = parse("$db_user = 'dbadmin'")
    assert len(m.statements) == 1
    stmt = m.statements[0]
    assert isinstance(stmt, Assignment)
    assert stmt.var_name == "db_user"
    assert isinstance(stmt.value, StrLiteral)
    assert stmt.value.value == "dbadmin"


def test_empty_file_has_no_statements():
    assert parse("").statements == ()


def test_comment_only_file_has_no_statements():
    assert parse("# only a comment").statements == ()


def test_resource_decl_attribute_order():
    m = load_fixture("sha1_password_file.pp")
    resources = [s for s in m.statements if isinstance(s, ResourceDecl)]
    assert len(resources) == 1
    res = resources[0]
    assert res.type_name == "file_line"
    assert [a.name for a in res.attributes] == ["ensure", "path", "line"]


def test_resource_override():
    m = load_fixture("nagios_htpasswd.pp")
    overrides = [s for s in m.statements if isinstance(s, ResourceOverride)]
    assert len(overrides) == 1
    assert overrides[0].type_name == "File"
    assert [a.name for a in overrides[0].attributes] == ["source", "content", "mode"]


def test_undef_is_not_a_string():
    m = parse("$x = undef\n$y = 'undef'\n$z = ''")
    assert isinstance(m.statements[0].value, UndefLiteral)
    assert isinstance(m.statements[1].value, StrLiteral)
    assert m.statements[1].value.value == "undef"
    assert m.statements[2].value.value == ""


def test_class_parameters_with_defaults():
    m = parse("class c ($workers = '1', $mode) { }")
    cls = m.statements[0]
    assert isinstance(cls, ClassDef)
    assert cls.parameters[0].name == "workers"
    assert isinstance(cls.parameters[0].default, StrLiteral)
    assert cls.parameters[1].default is None


def test_duplicate_attribute_rejected():
    with pytest.raises(ParseError):
        parse("file { 'x': mode => '0644', mode => '0600' }")


def test_duplicate_parameter_rejected():
    with pytest.raises(ParseError):
        parse("class c ($a = 1, $a = 2) { }")


def test_elsif_desugars_to_nested_if():
    m = parse("if $a { $x = 1 } elsif $b { $x = 2 } else { $x = 3 }")
    outer = m.statements[0]
    assert len(outer.else_body) == 1
    inner = outer.else_body[0]
    assert inner.condition.name == "b"
    assert inner.else_body[0].value.value == 3


def test_case_with_default_arm():
    m = parse("case $os { 'a', 'b': { $x = 1 } default: { $x = 2 } }")
    case = m.statements[0]
    assert len(case.arms) == 2
    assert [e.value for e in case.arms[0].matches] == ["a", "b"]
    assert case.arms[1].is_default


def test_selector_expression():
    m = parse("$g = $facts['os'] ? { 'sol' => 'wheel', default => 'root' }")
    sel = m.statements[0].value
    assert len(sel.arms) == 2
    assert sel.arms[1].is_default


def test_bareword_value_is_a_string():
    m = parse("file { 'x': ensure => present }")
    assert m.statements[0].attributes[0].value.value == "present"


def test_statement_call_without_parens_is_unsupported():
    with pytest.raises(UnsupportedConstruct) as exc:
        parse("include apache")
    assert exc.value.construct == "statement_function_call"


def test_node_block_is_unsupported():
    with pytest.raises(UnsupportedConstruct) as exc:
        parse("node 'web01' { }")
    assert exc.value.construct == "node_block"


def test_class_inheritance_is_unsupported():
    with pytest.raises(UnsupportedConstruct):
        parse("class a inherits b { }")


def test_typed_parameter_is_unsupported():
    with pytest.raises(UnsupportedConstruct):
        parse("class c (String $x = 'v') { }")


def test_parse_error_carries_location():
    with pytest.raises(ParseError) as exc:
        parse("$x =")
    assert exc.value.location.path == "test.pp"
    assert exc.value.location.line == 1


# -- interpolation ----------------------------------------------------------


def loc(line=1, col=1):
    return SourceLocation("test.pp", line, col)


def test_interpolation_variable_and_literal():
    result = parse_interpolation("${magnum_protocol}://x", loc())
    assert len(result.parts) == 2
    assert isinstance(result.parts[0], VarRef)
    assert result.parts[0].name == "magnum_protocol"
    assert result.parts[1] == "://x"


def test_interpolation_plain_literal():
    result = parse_interpolation("plain", loc())
    assert result.parts == ("plain",)


def test_interpolation_alternating_parts():
    result = parse_interpolation("a${x}b${y}", loc())
    assert [p if isinstance(p, str) else p.name for p in result.parts] == ["a", "x", "b", "y"]


@pytest.mark.parametrize(
    "body,expected",
    [
        ("${x}", ["x"]),
        ("$x", ["x"]),
        ("pre $x post", ["pre ", "x", " post"]),
        ("${a}${b}", ["a", "b"]),
        ("cost: $5", ["cost: ", "5"]),  # digits can be variable-ish in Puppet
        (r"escaped \$x", ["escaped $x"]),
        (r"quote \" here", ['quote " here']),
        ("tab\\tend", ["tab\tend"]),
        ("${h['k']}", [("access", "h")]),
        ("${f(1)}", [("call", "f")]),
    ],
)
def test_interpolation_grammar_cases(body, expected):
    result = parse_interpolation(body, loc())
    rendered = []
    for part in result.parts:
        if isinstance(part, str):
            rendered.append(part)
        elif isinstance(part, VarRef):
            rendered.append(part.name)
        elif part.__class__.__name__ == "AccessExpr":
            rendered.append(("access", part.base.name))
        else:
            rendered.append(("call", part.name))
    assert rendered == expected


def test_interpolation_unbalanced_brace_is_an_error():
    with pytest.raises(ParseError):
        parse_interpolation("${oops", loc())


def test_embedded_expression_location_points_into_file():
    m = parse('$u = "${h[\'k\']}end"')
    interp = m.statements[0].value
    access = interp.parts[0]
    assert access.loc.line == 1
    assert access.loc.column >= 7


# -- whole-frontend properties ----------------------------------------------


def test_parsing_is_deterministic_on_fixtures():
    for path in sorted(WEAKNESS_SUITE.glob("*.pp")):
        text = path.read_text(encoding="utf-8")
        assert parse_manifest(text, str(path)) == parse_manifest(text, str(path))


def test_every_node_location_points_inside_input():
    for path in sorted(WEAKNESS_SUITE.glob("*.pp")):
        text = path.read_text(encoding="utf-8")
        lines = text.split("\n")
        manifest = parse_manifest(text, str(path))
        for node in iter_nodes(manifest):
            node_loc = getattr(node, "loc", None)
            if node_loc is None:
                continue
            assert 1 <= node_loc.line <= len(lines)
            assert 1 <= node_loc.column <= len(lines[node_loc.line - 1]) + 1
            assert node_loc.path == str(path)


def test_print_reparse_roundtrip_on_fixtures():
    for path in sorted(WEAKNESS_SUITE.glob("*.pp")):
        manifest = parse_manifest(path.read_text(encoding="utf-8"), str(path))
        reparsed = parse_manifest(manifest_source(manifest), str(path))
        assert structurally_equal(manifest, reparsed), path.name


def test_print_reparse_roundtrip_on_generated_manifests():
    for seed in range(100):
        text = generate_manifest_text(seed)
        manifest = parse_manifest(text, "gen.pp")
        reparsed = parse_manifest(manifest_source(manifest), "gen.pp")
        assert structurally_equal(manifest, reparsed), f"seed={seed}"


def _recursive_expr_text(expr) -> str:
    """``expr_text`` of a binary operator as it was written before chains
    were walked in a loop: one recursive call per operand."""
    if isinstance(expr, BinaryOp):
        return f"({_recursive_expr_text(expr.left)} {expr.op} {_recursive_expr_text(expr.right)})"
    return expr_text(expr)


def test_binary_chain_text_matches_the_recursive_printer():
    terms = ["$a", "'b'", "f($c + 1)", "[1, $d - 2]", "($e * $f or $g)", "!$h", "3"]
    for depth in range(1, 101):
        rng = random.Random(depth)
        source = " ".join(
            f"{rng.choice(terms)} {rng.choice(list(PRECEDENCE))}" for _ in range(depth)
        )
        tree = parse(f"$x = {source} $z").statements[0].value
        text = expr_text(tree)
        assert text == _recursive_expr_text(tree), depth
        assert structurally_equal(parse(f"$x = {text}").statements[0].value, tree), depth


def test_deep_nesting_is_a_parse_error_not_a_crash():
    with pytest.raises(ParseError) as exc:
        parse("$x = " + "[" * 4000 + "]" * 4000)
    assert exc.value.message == "nesting too deep"
    deep_body = "${" + "[" * 2000 + "]" * 2000 + "}"
    with pytest.raises(ParseError) as exc:
        parse_interpolation(deep_body, loc())
    assert (exc.value.message, exc.value.location) == ("nesting too deep", loc())
    # Inside a manifest the skip reason still points at the file's start.
    with pytest.raises(ParseError) as exc:
        parse(f'\n$x = "{deep_body}"')
    assert exc.value.message == "nesting too deep"
    assert (exc.value.location.line, exc.value.location.column) == (1, 1)


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=string.printable, max_size=120))
def test_parser_totality_on_arbitrary_text(text):
    # Either a manifest or exactly one of the two declared errors; the
    # parser must never raise anything else.
    try:
        result = parse_manifest(text, "fuzz.pp")
        assert isinstance(result, Manifest)
    except (ParseError, UnsupportedConstruct):
        pass


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_parser_totality_on_generated_manifests(seed):
    manifest = parse_manifest(generate_manifest_text(seed), "gen.pp")
    assert isinstance(manifest, Manifest)


# -- precedence and nesting limits ---------------------------------------------

# Binding power of each binary operator, tightest last; written out here so
# the test does not read the parser's own table.
PRECEDENCE = {
    "or": 1,
    "and": 2,
    **dict.fromkeys(["==", "!=", "<", "<=", ">", ">=", "in"], 3),
    **dict.fromkeys(["+", "-"], 4),
    **dict.fromkeys(["*", "/", "%"], 5),
}


def _shape(expr) -> str:
    """An expression tree written with a parenthesis around every operator."""
    if isinstance(expr, BinaryOp):
        return f"({_shape(expr.left)} {expr.op} {_shape(expr.right)})"
    if isinstance(expr, UnaryOp):
        return f"({expr.op}{_shape(expr.operand)})"
    return expr.name


@pytest.mark.parametrize("first,second", list(itertools.product(PRECEDENCE, PRECEDENCE)))
def test_binary_operator_precedence_and_left_associativity(first, second):
    tree = parse(f"$x = $p {first} $q {second} $r").statements[0].value
    if PRECEDENCE[first] >= PRECEDENCE[second]:
        assert _shape(tree) == f"((p {first} q) {second} r)"
    else:
        assert _shape(tree) == f"(p {first} (q {second} r))"


def test_unary_operators_bind_tightest():
    assert _shape(parse("$x = !$a == $b").statements[0].value) == "((!a) == b)"
    assert _shape(parse("$x = -$a * $b").statements[0].value) == "((-a) * b)"


def test_deeply_nested_statements_are_a_parse_error():
    with pytest.raises(ParseError) as exc:
        parse("if $a { " * 400 + "}" * 400)
    assert exc.value.message == "nesting too deep"
    assert (exc.value.location.line, exc.value.location.column) == (1, 1)


TAINTED_BODY = "$password = 'x'\nfile { 'f': content => $password }\n"
NESTED_FORMS = {
    "parens": lambda n: "$x = " + "(" * n + "1" + ")" * n,
    "arrays": lambda n: "$x = " + "[" * n + "]" * n,
    "calls": lambda n: "$x = " + "f(" * n + ")" * n,
    "hashes": lambda n: "$x = " + "{1 => " * n + "1" + "}" * n,
    "unary": lambda n: "$x = " + "!" * n + "$y",
    "if": lambda n: "if $a { " * n + "}" * n,
    # A weakness that reaches a sink, so that build_ddg runs the dataflow.
    "if_taint": lambda n: "if $a { " * n + TAINTED_BODY + "}" * n,
    "case_taint": lambda n: "case $a { 'v': { " * n + TAINTED_BODY + "} }" * n,
}


def _deepest_accepted(parse_fn, form) -> int:
    """The largest nesting depth of *form* that *parse_fn* parses."""

    def accepts(depth):
        try:
            parse_fn(form(depth), "deep.pp")
        except ParseError:
            return False
        return True

    low, high = 1, 2
    while accepts(high):
        low, high = high, high * 2
    while high - low > 1:
        mid = (low + high) // 2
        if accepts(mid):
            low = mid
        else:
            high = mid
    return low


@pytest.mark.parametrize("form", NESTED_FORMS)
def test_nesting_limit_is_no_lower_than_the_reference(form, tmp_path):
    make = NESTED_FORMS[form]
    depth = _deepest_accepted(reference_parser.parse_manifest, make)
    parse_manifest(make(depth), "deep.pp")
    path = tmp_path / "deep.pp"
    path.write_text(make(depth), encoding="utf-8")
    for mode in ("taint", "pattern"):
        assert _analyze_file(str(path), mode, DEFAULT_PATTERNS).error is None
    # Whatever the parser now accepts, the later stages must survive.
    path.write_text(make(_deepest_accepted(parse_manifest, make)), encoding="utf-8")
    for mode in ("taint", "pattern"):
        _analyze_file(str(path), mode, DEFAULT_PATTERNS)


# -- differential tests against the replaced precedence-ladder parser ----------


def _parsed(module, text):
    """The manifest *module* parses from *text*, or the error it raises as
    (type, message, location)."""
    try:
        return module.parse_manifest(text, "m.pp")
    except (ParseError, UnsupportedConstruct) as exc:
        message = str(exc)
        if module is reference_parser:
            message = message.replace("expression nesting too deep", "nesting too deep")
        return type(exc), message, exc.location


def assert_same_tree_as_reference(text):
    assert _parsed(pupsec.parser, text) == _parsed(reference_parser, text)


def test_fixture_trees_match_reference():
    for text in FIXTURE_TEXTS:
        assert_same_tree_as_reference(text)


def test_generated_manifest_trees_match_reference():
    for seed in range(300):
        assert_same_tree_as_reference(generate_manifest_text(seed))


GRAMMAR_SNIPPETS = SNIPPETS + [
    "if ", "elsif ", "else ", "case ", "default", "class ", "define ", " or ", " and ",
    " in ", "==", "=>", "f(", "[1, ", "{'k' => ", " ? {", "File[",
]


@settings(max_examples=300, deadline=None)
@given(mutated_fixtures(GRAMMAR_SNIPPETS))
def test_mutated_fixture_trees_match_reference(text):
    assert_same_tree_as_reference(text)


INTERPOLATION_PIECES = [
    "\\", "\\n", "\\t", "\\$", '\\"', "\\\\", "\\q", "\\\n", "$x", "$::a::b", "$a::", "$1", "$", "$::",
    "${", "${x}", "${ y }", "${::z}", "${h['k']}", "${f(1)}", "${'}'}", "${}", "{", "}", "'", '"',
    "\n", "a", " ", "${true}", "${false}", "${undef}", "${Ab::c}", "${_x}", "${::a::b}",
    "${ true }", "${\ty\n}", "${ Ab::c }", "${ ::a }", "${ a b }",
]


def _interpolated(module, body, location):
    try:
        return module.parse_interpolation(body, location)
    except (ParseError, UnsupportedConstruct) as exc:
        return type(exc), str(exc), exc.location


@settings(max_examples=500, deadline=None)
@given(
    st.lists(st.sampled_from(INTERPOLATION_PIECES), max_size=10).map("".join),
    st.integers(min_value=1, max_value=300),
    st.integers(min_value=1, max_value=40),
)
def test_interpolation_matches_reference(body, line, column):
    location = SourceLocation("m.pp", line, column)
    assert _interpolated(pupsec.parser, body, location) == _interpolated(reference_parser, body, location)


# -- per-token cost ---------------------------------------------------------------


def _python_calls(texts):
    """How often parsing *texts* entered each Python code object."""
    calls = collections.Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code] += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        for text in texts:
            parse_manifest(text, "m.pp")
    finally:
        sys.setprofile(previous)
    return calls


def test_parsing_runs_no_enum_code():
    """Token kinds are plain strings, so no kind lookup or hash runs a
    method of ``enum`` (``Enum.__hash__`` is a Python function)."""
    texts = FIXTURE_TEXTS + [generate_manifest_text(seed) for seed in range(100)]
    calls = _python_calls(texts)
    assert sum(calls.values()) > 0
    assert [code.co_name for code in calls if code.co_filename == enum.__file__] == []


def test_parsing_makes_at_most_two_and_a_half_python_calls_per_token():
    """The parser, statement level included, reads the token list
    directly, not through a helper call for each token read, and a prefix
    operator or suffix costs no frame of its own."""
    tokens = sum(len(tokenize(text, "m.pp")) for text in FIXTURE_TEXTS)
    calls = sum(_python_calls(FIXTURE_TEXTS).values())
    assert calls <= 2.5 * tokens, (calls, tokens)
