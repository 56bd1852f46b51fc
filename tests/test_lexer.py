import re
import sys

import pytest
from hypothesis import given, settings

import pupsec.lexer
import reference_lexer
from pupsec.errors import ParseError, UnsupportedConstruct
from pupsec.lexer import TokenKind, tokenize
from pupsec.parser import parse_manifest
from pupsec.synth import generate_manifest_text

from conftest import DQ_EDGES, FIXTURE_TEXTS, load_script, mutated_fixtures


def kinds(text):
    return [t[0] for t in tokenize(text, "x.pp")]


def test_assignment_tokens():
    toks = tokenize("$db_user = 'dbadmin'", "x.pp")
    assert [t[0] for t in toks] == [
        TokenKind.VARIABLE,
        TokenKind.ASSIGN,
        TokenKind.SQ_STRING,
        TokenKind.EOF,
    ]
    assert toks[0][1] == "db_user"
    assert toks[2][2] == "dbadmin"


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
    assert toks[2][2] == "# not a comment"


def test_line_and_column_are_one_based():
    toks = tokenize("$a = 1\n  $b = 2", "x.pp")
    assert toks[0][3:] == (1, 1)
    b = [t for t in toks if t[1] == "b"][0]
    assert b[3:] == (2, 3)


def test_qualified_names_and_type_refs():
    toks = tokenize("mysql::db File Mysql::Db", "x.pp")
    assert toks[0][0] is TokenKind.NAME
    assert toks[1][0] is TokenKind.TYPE_REF
    assert toks[2][0] is TokenKind.TYPE_REF


def test_variable_with_top_scope_prefix_is_stripped():
    toks = tokenize("$::operatingsystem", "x.pp")
    assert toks[0][1] == "operatingsystem"


def test_single_quote_escapes():
    toks = tokenize(r"$x = 'it\'s \\ fine'", "x.pp")
    assert toks[2][2] == "it's \\ fine"
    # Any other backslash is kept as it stands.
    assert tokenize(r"'a\nb'", "x.pp")[0][2] == "a\\nb"


def test_double_quoted_body_is_raw():
    toks = tokenize("$x = \"v=${h['k']}:end\"", "x.pp")
    assert toks[2][0] is TokenKind.DQ_STRING
    assert toks[2][2] == "v=${h['k']}:end"


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
    assert toks[2][2] == body
    assert (toks[3][0], toks[3][3], toks[3][4]) == (TokenKind.VARIABLE, 2, 1)


def test_eof_token_follows_trailing_trivia():
    toks = tokenize("$x = 1 # done\n/* c\n*/  \n\t", "x.pp")
    assert (toks[-1][0], toks[-1][3], toks[-1][4]) == (TokenKind.EOF, 4, 2)


# One text per alternative of the pattern's token group, and what it lexes
# to: the kind of its first token, or the error it raises.
ALTERNATIVE_SAMPLES = {
    "open_comment": ("/* c", "unterminated block comment"),
    "sq": ("'a'", TokenKind.SQ_STRING),
    "open_sq": ("'a", "unterminated string"),
    "dq": ('"a${b}${h[\'}\']}"', TokenKind.DQ_STRING),
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


def _outcome(sample):
    try:
        return tokenize(sample, "x.pp")[0][0]
    except (ParseError, UnsupportedConstruct) as exc:
        return str(exc).removeprefix("x.pp:1:1: ")


def test_every_alternative_has_a_sample_that_lexes_to_its_kind_or_error():
    alternatives = pupsec.lexer._ALTERNATIVES
    assert [name for name, _ in alternatives] == list(ALTERNATIVE_SAMPLES)
    assert pupsec.lexer._FIND.groups == 2  # the trivia and the token
    for name, pattern in alternatives:
        sample, expected = ALTERNATIVE_SAMPLES[name]
        assert re.compile(pattern).groups == 0, name
        # The alternation takes the first alternative that matches.
        first = next(n for n, p in alternatives if re.match(p, sample, re.DOTALL))
        assert first == name
        assert _outcome(sample) == expected, name
    # The two parts of the pattern outside the table: trivia, and a '"' that
    # `dq` cannot close, where the match takes the rest of the text.
    assert pupsec.lexer._FIND.match("# c\n").groups() == ("# c\n", "")
    unclosed = '"${f({})}" $x'
    m = pupsec.lexer._FIND.match(unclosed)
    assert (m.group(2), m.end()) == (None, len(unclosed))
    assert _outcome(unclosed) == TokenKind.DQ_STRING


class _CountingPattern:
    """Stands in for the lexer's pattern and counts the characters that the
    matches of each ``findall`` or ``finditer`` call lex: their trivia and
    token groups.  The text that the match at an unclosed '"' skips, which
    the engine never reads, is not counted."""

    def __init__(self, pattern):
        self.pattern = pattern
        self.chars = 0

    def findall(self, text, pos=0):
        found = self.pattern.findall(text, pos)
        self.chars += sum(len(trivia) + len(token) for trivia, token in found)
        return found

    def finditer(self, text, pos=0):
        for m in self.pattern.finditer(text, pos):
            self.chars += len(m.group(1)) + len(m.group(2) or "")
            yield m


def _chain_text(lines):
    return load_script("sweep").TEMPLATES["chain"][0](lines)[0]


@pytest.mark.parametrize(
    "make",
    [
        lambda n: '$x = "${f(1, {a => 2})}"\n' * n,
        lambda n: '$x = "${x\\}}"\n' * n,
        _chain_text,
    ],
    ids=["nested-braces", "backslash", "chain"],
)
def test_lexing_reads_each_character_once(make, monkeypatch):
    """Doubling the text at most doubles what the pattern lexes: after a
    string that only ``_dq_end`` can close, lexing goes on from its end and
    does not lex the rest of the text again."""
    monkeypatch.setattr(sys, "path", sys.path[:])  # sweep.py adds src/ and perfbench/
    counter = _CountingPattern(pupsec.lexer._FIND)
    monkeypatch.setattr(pupsec.lexer, "_FIND", counter)
    counts = []
    for lines in (1000, 2000):
        counter.chars = 0
        tokenize(make(lines), "x.pp")
        counts.append(counter.chars)
    assert 0 < counts[1] <= 2.1 * counts[0], counts


# -- differential tests against the replaced character-at-a-time scanner --------

def _fields(tok):
    """A token's five fields: the lexer's tuple, or the reference's record."""
    if isinstance(tok, tuple):
        assert len(tok) == 5, tok
        return tok
    return tok.kind, tok.text, tok.value, tok.line, tok.column


def _lex(tokenize_fn, text):
    """The tokens as comparable tuples, or the exception raised."""
    try:
        return [(t[0], t[1], type(t[2]), t[2], t[3], t[4]) for t in map(_fields, tokenize_fn(text, "m.pp"))]
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


@pytest.mark.parametrize("string", DQ_EDGES)
def test_strings_at_the_edge_of_the_dq_pattern_match_reference(string):
    assert_same_as_reference(string)
    assert_same_as_reference(f"$x = {string}\n$y = '1'")


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
