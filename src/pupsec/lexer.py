"""Tokenizer for the Puppet manifest subset.

``tokenize`` matches one compiled master pattern (``_MASTER``) at the
current offset.  Its alternatives (``_ALTERNATIVES``) say what the next
token is: trivia, a single- or double-quoted string, a ``$variable``, a
number, a name, a type reference, an unsupported operator, a symbol or
the end of the input.  Each alternative ends in an empty marker group,
and ``tokenize`` dispatches on the index of the marker that matched
(``m.lastindex``, one of the module constants ``_TRIVIA`` ... ``_BAD_CHAR``).
It tests the two most frequent matches first: symbols, then trivia.
Blanks before a token on the same line are the match's group 1, so the
token starts where that group ends.  Some alternatives name an error
instead (``_OPEN_COMMENT``, ``_OPEN_SQ``, ``_BAD_VAR``, ``_BAD_COLONS``,
``_BAD_CHAR``) and match the text the error is reported at.  Lines and
columns come from match offsets and the offset where the current line
starts, which moves only past trivia and strings, the tokens that can
contain a newline.

``TokenKind`` is a plain class of string constants, not an ``Enum``: on
Python 3.11 ``EnumType`` defines ``__getattr__``, which makes every
``TokenKind.X`` load take the slow attribute path, and ``Enum.__hash__``
is a Python function, so every dict lookup keyed by a kind would run
Python code.

Double-quoted bodies are kept raw for the parser.  The ``dq`` alternative
covers bodies whose ``${...}`` parts hold no quote, brace or backslash.
Any other ``"`` falls to ``dq_open``, and ``_dq_end`` scans for the end of
that string: a backslash skips two characters, and ``interpolation_end``
(shared with the parser) skips each ``${...}``, quotes inside included.

Comments (``# ...`` and ``/* ... */``) are discarded here, so the parser
only ever sees code tokens.  Constructs that are recognizably Puppet but
outside the supported subset (heredocs, lambdas, chaining arrows, ...)
raise UnsupportedConstruct as early as possible.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError, UnsupportedConstruct
from .nodes import SourceLocation


class TokenKind:
    """Token kinds: plain strings, each equal to its own name.  The parser
    compares them with ``is``, which holds because each kind is the one
    string stored here; never compare a kind with a string built at run
    time."""

    NAME = "NAME"  # bareword, possibly '::'-qualified, starts lowercase
    TYPE_REF = "TYPE_REF"  # capitalized word, e.g. File, Mysql::Db
    VARIABLE = "VARIABLE"  # $name (text stores the name without sigil)
    NUMBER = "NUMBER"
    SQ_STRING = "SQ_STRING"  # value: resolved text
    DQ_STRING = "DQ_STRING"  # value: raw body between the quotes
    LBRACE = "LBRACE"
    RBRACE = "RBRACE"
    LBRACK = "LBRACK"
    RBRACK = "RBRACK"
    LPAREN = "LPAREN"
    RPAREN = "RPAREN"
    COMMA = "COMMA"
    COLON = "COLON"
    SEMI = "SEMI"
    ARROW = "ARROW"  # =>
    ASSIGN = "ASSIGN"  # =
    QUESTION = "QUESTION"
    EQ = "EQ"
    NE = "NE"
    LT = "LT"
    LE = "LE"
    GT = "GT"
    GE = "GE"
    PLUS = "PLUS"
    MINUS = "MINUS"
    STAR = "STAR"
    SLASH = "SLASH"
    PERCENT = "PERCENT"
    BANG = "BANG"
    KW_CLASS = "KW_CLASS"
    KW_DEFINE = "KW_DEFINE"
    KW_IF = "KW_IF"
    KW_ELSIF = "KW_ELSIF"
    KW_ELSE = "KW_ELSE"
    KW_CASE = "KW_CASE"
    KW_DEFAULT = "KW_DEFAULT"
    KW_UNDEF = "KW_UNDEF"
    KW_TRUE = "KW_TRUE"
    KW_FALSE = "KW_FALSE"
    KW_AND = "KW_AND"
    KW_OR = "KW_OR"
    KW_IN = "KW_IN"
    EOF = "EOF"


KEYWORDS = {
    "class": TokenKind.KW_CLASS,
    "define": TokenKind.KW_DEFINE,
    "if": TokenKind.KW_IF,
    "elsif": TokenKind.KW_ELSIF,
    "else": TokenKind.KW_ELSE,
    "case": TokenKind.KW_CASE,
    "default": TokenKind.KW_DEFAULT,
    "undef": TokenKind.KW_UNDEF,
    "true": TokenKind.KW_TRUE,
    "false": TokenKind.KW_FALSE,
    "and": TokenKind.KW_AND,
    "or": TokenKind.KW_OR,
    "in": TokenKind.KW_IN,
}


@dataclass(slots=True)
class Token:
    kind: str  # one of the TokenKind constants
    text: str
    value: object
    line: int
    column: int

    def loc(self, path: str) -> SourceLocation:
        return SourceLocation(path, self.line, self.column)



# Recognized Puppet operators outside the supported subset, by construct.
_UNSUPPORTED = {
    "<<|": "resource_collector",
    "<|": "resource_collector",
    "@(": "heredoc",
    "@@": "exported_resource",
    "->": "chaining_arrow",
    "~>": "chaining_arrow",
    "=~": "regex_match",
    "!~": "regex_match",
    "+=": "append_assignment",
    "@": "virtual_resource",
    "|": "lambda",
    ".": "method_call",
}

_SYMBOLS = {
    "=>": TokenKind.ARROW,
    "==": TokenKind.EQ,
    "!=": TokenKind.NE,
    "<=": TokenKind.LE,
    ">=": TokenKind.GE,
    "{": TokenKind.LBRACE,
    "}": TokenKind.RBRACE,
    "[": TokenKind.LBRACK,
    "]": TokenKind.RBRACK,
    "(": TokenKind.LPAREN,
    ")": TokenKind.RPAREN,
    ",": TokenKind.COMMA,
    ":": TokenKind.COLON,
    ";": TokenKind.SEMI,
    "=": TokenKind.ASSIGN,
    "?": TokenKind.QUESTION,
    "<": TokenKind.LT,
    ">": TokenKind.GT,
    "+": TokenKind.PLUS,
    "-": TokenKind.MINUS,
    "*": TokenKind.STAR,
    "/": TokenKind.SLASH,
    "%": TokenKind.PERCENT,
    "!": TokenKind.BANG,
}


def _alternation(operators) -> str:
    # Longest first, so that '=>' is tried before '='.
    return "|".join(re.escape(op) for op in sorted(operators, key=len, reverse=True))


# The alternatives of ``_MASTER``, in the order they are tried: one is
# tried only where every earlier one failed.  The last two always match,
# so ``_MASTER.match`` never fails.  No pattern may hold a capturing group:
# it would shift the marker groups, and so ``lastindex``.
_ALTERNATIVES = (
    ("trivia", r"(?:[ \t\r\n]+|#[^\n]*|/\*.*?\*/)+"),
    ("open_comment", r"/\*"),
    ("sq", r"'[^'\\]*(?:\\.[^'\\]*)*'"),
    ("open_sq", "'"),
    ("dq", r'"[^"\\$]*(?:(?:\\.|\$(?!\{)|\$\{[^{}"\'\\]*\})[^"\\$]*)*"'),
    ("dq_open", '"'),
    ("var", r"\$(?:::)?[A-Za-z0-9_]+(?:::[A-Za-z0-9_]+)*"),
    ("bad_var", r"\$"),
    ("number", r"[0-9]+(?:\.[0-9]+)?"),
    ("name", r"(?:::)?[a-z_][A-Za-z0-9_]*(?:::[A-Za-z_][A-Za-z0-9_]*)*"),
    ("type_ref", r"(?:::)?[A-Z][A-Za-z0-9_]*(?:::[A-Za-z_][A-Za-z0-9_]*)*"),
    ("bad_colons", "::"),
    ("unsupported_op", _alternation(_UNSUPPORTED)),
    ("symbol", _alternation(_SYMBOLS)),
    ("eof", r"\Z"),
    ("bad_char", "."),
)
# Group 1 holds the blanks before the token.  Each alternative ends in an
# empty marker group, so ``m.lastindex`` says which one matched.  Markers
# at the end match faster than named groups around whole alternatives,
# likely because the engine can then reject an alternative on its first
# character.
_MASTER = re.compile(
    r"([ \t]*)(?:" + "|".join(f"(?:{pattern})()" for _, pattern in _ALTERNATIVES) + ")",
    re.DOTALL,
)
# The marker group of each alternative: ``_`` and its name in upper case.
(
    _TRIVIA, _OPEN_COMMENT, _SQ, _OPEN_SQ, _DQ, _DQ_OPEN, _VAR, _BAD_VAR, _NUMBER, _NAME,
    _TYPE_REF, _BAD_COLONS, _UNSUPPORTED_OP, _SYMBOL, _EOF, _BAD_CHAR,
) = range(2, len(_ALTERNATIVES) + 2)

# Alternatives that match the start of a token the lexer rejects.
_ERRORS = {
    _OPEN_COMMENT: "unterminated block comment",
    _OPEN_SQ: "unterminated string",
    _BAD_VAR: "invalid variable name",
    _BAD_COLONS: "unexpected character ':'",
}
_SQ_ESCAPE = re.compile(r"\\([\\'])")
_INTERPOLATION_STOP = re.compile(r"\\.|['\"{}]", re.DOTALL)  # an escape, a quote or a brace
_DQ_STOP = re.compile(r'\\.|"|\$\{', re.DOTALL)  # an escape, the closing quote or a `${`


def interpolation_end(text: str, pos: int) -> int:
    """Offset of the ``}`` that closes the ``${`` whose content starts at
    *pos*, or -1 if there is none.  A backslash skips the next character,
    and braces inside quotes do not count."""
    depth = 1
    quote = ""
    while (m := _INTERPOLATION_STOP.search(text, pos)) is not None:
        c, pos = m.group(), m.end()
        if quote:
            if c == quote:
                quote = ""
        elif c in ("'", '"'):
            quote = c
        elif c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                return m.start()
    return -1


def _dq_end(text: str, pos: int) -> int:
    """Offset of the quote that ends the double-quoted string whose body
    starts at *pos*, or -1 if the string is unterminated."""
    while (m := _DQ_STOP.search(text, pos)) is not None:
        pos = m.end()
        if m.group() == '"':
            return m.start()
        if m.group() == "${":
            pos = interpolation_end(text, pos) + 1
            if pos == 0:
                return -1
    return -1


def tokenize(text: str, path: str) -> list[Token]:
    """Tokenize *text*, raising ParseError/UnsupportedConstruct on bad input."""
    tokens: list[Token] = []
    append = tokens.append
    match = _MASTER.match
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of the current line
    while True:
        m = match(text, pos)
        alt = m.lastindex
        start = m.end(1)
        pos = m.end()
        column = start - line_start + 1
        if alt == _SYMBOL:
            s = text[start:pos]
            append(Token(_SYMBOLS[s], s, s, line, column))
            continue
        if alt == _TRIVIA:
            pass  # its newlines are counted below, with the strings'
        elif alt == _NAME:
            s = text[start:pos]
            append(Token(KEYWORDS.get(s, TokenKind.NAME), s, s, line, column))
            continue
        elif alt == _VAR:
            name = text[start + 1 : pos].removeprefix("::")
            append(Token(TokenKind.VARIABLE, name, name, line, column))
            continue
        elif alt == _TYPE_REF:
            s = text[start:pos]
            append(Token(TokenKind.TYPE_REF, s, s, line, column))
            continue
        elif alt == _NUMBER:
            s = text[start:pos]
            try:
                value = float(s) if "." in s else int(s)
            except ValueError:  # beyond Python's int-string digit limit
                raise ParseError(SourceLocation(path, line, column), "number literal too long") from None
            append(Token(TokenKind.NUMBER, s, value, line, column))
            continue
        elif alt == _SQ:
            body = text[start + 1 : pos - 1]
            if "\\" in body:
                body = _SQ_ESCAPE.sub(r"\1", body)
            append(Token(TokenKind.SQ_STRING, body, body, line, column))
        elif alt == _DQ or alt == _DQ_OPEN:
            if alt == _DQ_OPEN:
                pos = _dq_end(text, pos) + 1
                if pos == 0:
                    raise ParseError(SourceLocation(path, line, column), "unterminated string")
            body = text[start + 1 : pos - 1]
            append(Token(TokenKind.DQ_STRING, body, body, line, column))
        elif alt == _EOF:
            append(Token(TokenKind.EOF, "", None, line, column))
            return tokens
        elif alt == _UNSUPPORTED_OP:
            raise UnsupportedConstruct(SourceLocation(path, line, column), _UNSUPPORTED[text[start:pos]])
        elif alt == _BAD_CHAR:
            raise ParseError(SourceLocation(path, line, column), f"unexpected character {text[start:pos]!r}")
        else:
            raise ParseError(SourceLocation(path, line, column), _ERRORS[alt])
        # Only trivia and strings can span lines.
        newlines = text.count("\n", start, pos)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", start, pos) + 1
