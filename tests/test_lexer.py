import pytest
from hypothesis import given, settings

import pupsec.lexer
import reference_lexer
from pupsec.errors import ParseError, UnsupportedConstruct
from pupsec.lexer import TokenKind, tokenize
from pupsec.parser import parse_manifest
from pupsec.synth import generate_manifest_text

from conftest import FIXTURE_TEXTS, mutated_fixtures


def kinds(text):
    return [t.kind for t in tokenize(text, "x.pp")]


def test_assignment_tokens():
    toks = tokenize("$db_user = 'dbadmin'", "x.pp")
    assert [t.kind for t in toks] == [
        TokenKind.VARIABLE,
        TokenKind.ASSIGN,
        TokenKind.SQ_STRING,
        TokenKind.EOF,
    ]
    assert toks[0].text == "db_user"
    assert toks[2].value == "dbadmin"


def test_comments_are_discarded():
    assert kinds("# line comment\n$x = 1 /* block\ncomment */ + 2") == [
        TokenKind.VARIABLE,
        TokenKind.ASSIGN,
        TokenKind.NUMBER,
        TokenKind.PLUS,
        TokenKind.NUMBER,
        TokenKind.EOF,
    ]


def test_comment_markers_inside_strings_are_preserved():
    toks = tokenize("$x = '# not a comment'", "x.pp")
    assert toks[2].value == "# not a comment"


def test_line_and_column_are_one_based():
    toks = tokenize("$a = 1\n  $b = 2", "x.pp")
    assert (toks[0].line, toks[0].column) == (1, 1)
    b = [t for t in toks if t.text == "b"][0]
    assert (b.line, b.column) == (2, 3)


def test_qualified_names_and_type_refs():
    toks = tokenize("mysql::db File Mysql::Db", "x.pp")
    assert toks[0].kind is TokenKind.NAME
    assert toks[1].kind is TokenKind.TYPE_REF
    assert toks[2].kind is TokenKind.TYPE_REF


def test_variable_with_top_scope_prefix_is_stripped():
    toks = tokenize("$::operatingsystem", "x.pp")
    assert toks[0].text == "operatingsystem"


def test_single_quote_escapes():
    toks = tokenize(r"$x = 'it\'s \\ fine'", "x.pp")
    assert toks[2].value == "it's \\ fine"
    # Any other backslash is kept as it stands.
    assert tokenize(r"'a\nb'", "x.pp")[0].value == "a\\nb"


def test_double_quoted_body_is_raw():
    toks = tokenize("$x = \"v=${h['k']}:end\"", "x.pp")
    assert toks[2].kind is TokenKind.DQ_STRING
    assert toks[2].value == "v=${h['k']}:end"


def test_unterminated_string_is_a_parse_error():
    with pytest.raises(ParseError):
        tokenize("$x = 'oops", "x.pp")


@pytest.mark.parametrize(
    "source,construct",
    [
        ("$x = @(EOT)", "heredoc"),
        ("@@file { 'x': }", "exported_resource"),
        ("File['a'] -> File['b']", "chaining_arrow"),
        ("$x =~ /re/", "regex_match"),
        ("File <| |>", "resource_collector"),
        ("each($xs) |$x| {}", "lambda"),
        ("$xs.each", "method_call"),
    ],
)
def test_recognized_but_unsupported_syntax(source, construct):
    with pytest.raises(UnsupportedConstruct) as exc:
        tokenize(source, "x.pp")
    assert exc.value.construct == construct


def test_unknown_character_is_a_parse_error():
    with pytest.raises(ParseError):
        tokenize("$x = 1 & 2", "x.pp")


@pytest.mark.parametrize("digit", ["\u00b2", "\u0663"])  # superscript two, Arabic-Indic three
def test_non_ascii_digit_is_a_parse_error(digit):
    with pytest.raises(ParseError) as exc:
        tokenize(f"$x = {digit}", "x.pp")
    assert (exc.value.location.line, exc.value.location.column) == (1, 6)
    assert exc.value.message == f"unexpected character {digit!r}"


@pytest.mark.parametrize(
    "source,line,column,message",
    [
        ("$x = ::1", 1, 6, "unexpected character ':'"),
        ("$x = caf\u00e9", 1, 9, "unexpected character '\u00e9'"),
        ("$x = $ + 1", 1, 6, "invalid variable name"),
        ("$a = 1\n  $b = 'open\nstill open", 2, 8, "unterminated string"),
        ('$a = "x ${y[\'k\']} z', 1, 6, "unterminated string"),
        ("$a = 1 /* open\ncomment", 1, 8, "unterminated block comment"),
        pytest.param("$x = " + "7" * 5000, 1, 6, "number literal too long", id="long-number"),
    ],
)
def test_errors_are_reported_where_the_token_starts(source, line, column, message):
    with pytest.raises(ParseError) as exc:
        tokenize(source, "x.pp")
    assert (exc.value.location.line, exc.value.location.column) == (line, column)
    assert exc.value.message == message


@pytest.mark.parametrize(
    "body",
    [
        'plain \\" escaped',
        '${"}"} quote hides a brace',
        '${ {1 => "}"}[1] } nested braces',
        "${x\\}} backslash inside",
    ],
)
def test_double_quoted_body_ends_at_the_right_quote(body):
    toks = tokenize(f'$x = "{body}"\n$y', "x.pp")
    assert toks[2].value == body
    assert (toks[3].kind, toks[3].line, toks[3].column) == (TokenKind.VARIABLE, 2, 1)


def test_eof_token_follows_trailing_trivia():
    toks = tokenize("$x = 1 # done\n/* c\n*/  \n\t", "x.pp")
    assert (toks[-1].kind, toks[-1].line, toks[-1].column) == (TokenKind.EOF, 4, 2)


# One text per alternative of the master pattern, and what it lexes to: the
# kind of its first token, or the error it raises.
ALTERNATIVE_SAMPLES = {
    "trivia": ("# c\n", TokenKind.EOF),
    "open_comment": ("/* c", "unterminated block comment"),
    "sq": ("'a'", TokenKind.SQ_STRING),
    "open_sq": ("'a", "unterminated string"),
    "dq": ('"a${b}"', TokenKind.DQ_STRING),
    "dq_open": ('"${h[\'}\']}"', TokenKind.DQ_STRING),
    "var": ("$::a", TokenKind.VARIABLE),
    "bad_var": ("$-", "invalid variable name"),
    "number": ("1.5", TokenKind.NUMBER),
    "name": ("if", TokenKind.KW_IF),
    "type_ref": ("File", TokenKind.TYPE_REF),
    "bad_colons": (":: a", "unexpected character ':'"),
    "unsupported_op": ("->", "unsupported construct: chaining_arrow"),
    "symbol": ("=>", TokenKind.ARROW),
    "eof": ("", TokenKind.EOF),
    "bad_char": ("^", "unexpected character '^'"),
}


def test_every_master_alternative_has_a_marker_and_a_handler():
    names = [name for name, _ in pupsec.lexer._ALTERNATIVES]
    assert names == list(ALTERNATIVE_SAMPLES)
    # Group 1 is the blanks; any other capturing group would shift the markers.
    assert pupsec.lexer._MASTER.groups == 1 + len(names)
    for index, name in enumerate(names, start=2):
        sample, expected = ALTERNATIVE_SAMPLES[name]
        assert getattr(pupsec.lexer, f"_{name.upper()}") == index
        assert pupsec.lexer._MASTER.match(sample).lastindex == index, name
        try:
            outcome = tokenize(sample, "x.pp")[0].kind
        except (ParseError, UnsupportedConstruct) as exc:
            outcome = str(exc).removeprefix("x.pp:1:1: ")
        assert outcome == expected, name


# -- differential tests against the replaced character-at-a-time scanner --------

def _lex(tokenize_fn, text):
    """The tokens as comparable tuples, or the exception raised."""
    try:
        return [(t.kind, t.text, type(t.value), t.value, t.line, t.column) for t in tokenize_fn(text, "m.pp")]
    except Exception as exc:
        return exc


def assert_same_as_reference(text):
    expected, actual = _lex(reference_lexer.tokenize, text), _lex(tokenize, text)
    if isinstance(expected, AttributeError):
        # The reference takes a non-ASCII digit for a number and crashes.
        assert isinstance(actual, ParseError)
        char = text.split("\n")[actual.location.line - 1][actual.location.column - 1]
        assert char.isdigit() and not char.isascii()
        assert actual.message == f"unexpected character {char!r}"
    elif isinstance(expected, Exception):
        assert (type(actual), str(actual)) == (type(expected), str(expected))
    else:
        assert actual == expected


def test_fixture_tokens_match_reference():
    for text in FIXTURE_TEXTS:
        assert_same_as_reference(text)


def test_generated_manifest_tokens_match_reference():
    for seed in range(40):
        assert_same_as_reference(generate_manifest_text(seed))


@settings(max_examples=300, deadline=None)
@given(mutated_fixtures())
def test_mutated_fixture_tokens_match_reference(text):
    assert_same_as_reference(text)


@settings(max_examples=300, deadline=None)
@given(mutated_fixtures())
def test_parse_manifest_raises_only_declared_errors_on_mutated_fixtures(text):
    try:
        parse_manifest(text, "m.pp")
    except (ParseError, UnsupportedConstruct):
        pass
