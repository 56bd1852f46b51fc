"""Tokenizer for the Puppet manifest subset.

``tokenize`` returns plain ``(kind, text, value, line, column)`` tuples,
``EOF`` last.  One ``findall`` of the compiled pattern ``_FIND`` lexes the
manifest: each match is ``(trivia, token)``, where group 1 holds the
comments and blanks before the token and group 2 the token's text, one of
``_ALTERNATIVES``.  The alternatives are ordered so that the common
tokens are tried first and each alternative fails on its first character
where it cannot match; only alternatives that can start with the same
character keep a fixed relative order, which decides what such a
character lexes to.  So the loop over the matches runs in the regex
engine, and ``tokenize`` only works out each token's kind from its text:
the ``_SYMBOLS`` dict first, then its first character (``_LEADS``).  Some
alternatives match the text an error is reported at instead: an open
``/*`` or ``'``, a bare ``$`` or ``::``, an unsupported operator and any
other character.  Lines and columns come from the lengths of the two
groups and the offset where the current line starts, which moves only
past trivia and strings, the tokens that can contain a newline.

``TokenKind`` is a plain class of string constants, not an ``Enum``: on
Python 3.11 ``EnumType`` defines ``__getattr__``, which makes every
``TokenKind.X`` load take the slow attribute path, and ``Enum.__hash__``
is a Python function, so every dict lookup keyed by a kind would run
Python code.

Double-quoted bodies are kept raw for the parser.  The ``dq`` alternative
covers bodies whose ``${...}`` parts hold no brace or backslash outside
quoted text.  At any other ``"`` group 2 does not take part and the match
runs to the end of the text, which the engine skips without reading, so
the ``findall`` ends there.  ``_dq_end`` then finds the end of that string
(a backslash skips two characters, and ``interpolation_end``, shared with
the parser, skips each ``${...}``, quotes inside included), and a new
``findall`` lexes on from it.  No text is lexed twice.

Comments (``# ...`` and ``/* ... */``) are discarded here, so the parser
only ever sees code tokens.  Constructs that are recognizably Puppet but
outside the supported subset (heredocs, lambdas, chaining arrows, ...)
raise UnsupportedConstruct as early as possible.
"""

from __future__ import annotations

import re
import string

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


# Single-character symbols that no other alternative starts with.
_BRACKETS = "{}[](),;?*%"

# The alternatives of group 2, in the order they are tried: one is tried
# only where every earlier one failed.  Each starts with a character test,
# so the engine rejects an alternative that cannot match on its first
# character, and the common tokens come first: names, then variables.  The
# order is free only between alternatives that cannot start with the same
# character; those that can keep their relative order (``sq`` before
# ``open_sq``, ``top_name`` before ``bad_colons`` before the ``:`` of
# ``symbol``, ``open_comment`` before the ``/`` of ``symbol``, and so on).
# The last two match at any offset but that of a '"', which ``dq`` or the
# branch after group 2 takes, so a match never fails.  No pattern may hold
# a capturing group.
_ALTERNATIVES = (
    ("name", r"[a-z_][A-Za-z0-9_]*(?:::[A-Za-z_][A-Za-z0-9_]*)*"),
    ("var", r"\$(?:::)?[A-Za-z0-9_]+(?:::[A-Za-z0-9_]+)*"),
    ("bad_var", r"\$"),
    ("bracket", f"[{re.escape(_BRACKETS)}]"),
    ("sq", r"'[^'\\]*(?:\\.[^'\\]*)*'"),
    ("open_sq", "'"),
    # A `${...}` body may hold quoted text, written unrolled: a
    # per-character alternation backtracks and costs more.
    ("dq", r'"[^"\\$]*(?:(?:\\.|\$(?!\{)|\$\{[^{}"\'\\]*(?:(?:\'[^\'\\]*\'|"[^"\\]*")[^{}"\'\\]*)*\})[^"\\$]*)*"'),
    ("number", r"[0-9]+(?:\.[0-9]+)?"),
    ("type_ref", r"[A-Z][A-Za-z0-9_]*(?:::[A-Za-z_][A-Za-z0-9_]*)*"),
    ("top_name", r"::[a-z_][A-Za-z0-9_]*(?:::[A-Za-z_][A-Za-z0-9_]*)*"),
    ("top_type_ref", r"::[A-Z][A-Za-z0-9_]*(?:::[A-Za-z_][A-Za-z0-9_]*)*"),
    ("bad_colons", "::"),
    ("open_comment", r"/\*"),
    ("unsupported_op", _alternation(_UNSUPPORTED)),
    ("symbol", _alternation([op for op in _SYMBOLS if op not in _BRACKETS])),
    ("eof", r"\Z"),
    ("bad_char", '[^"]'),
)
# Blanks, then any run of comments, each followed by blanks.
_TRIVIA = r"[ \t\r\n]*(?:(?:#[^\n]*|/\*.*?\*/)[ \t\r\n]*)*"
# Group 1 is the trivia and group 2 the token.  At a '"' that no
# alternative matches, group 2 stays empty and ``.*`` takes the rest of
# the text: the engine jumps to the end without reading it.
_FIND = re.compile(
    f"({_TRIVIA})(?:({'|'.join(pattern for _, pattern in _ALTERNATIVES)})|\".*)",
    re.DOTALL,
)

# The kind of a token that is not a symbol, by its first character.  A
# ':' here starts '::', alone or before a name or type reference.
_TOP_SCOPE = "::"
_LEADS = {
    **dict.fromkeys(string.ascii_lowercase + "_", TokenKind.NAME),
    **dict.fromkeys(string.ascii_uppercase, TokenKind.TYPE_REF),
    **dict.fromkeys(string.digits, TokenKind.NUMBER),
    "$": TokenKind.VARIABLE,
    "'": TokenKind.SQ_STRING,
    '"': TokenKind.DQ_STRING,
    ":": _TOP_SCOPE,
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


def tokenize(text: str, path: str) -> list[tuple]:
    """Tokenize *text* into ``(kind, text, value, line, column)`` tuples,
    raising ParseError/UnsupportedConstruct on bad input."""
    tokens: list[tuple] = []
    append = tokens.append
    symbols, leads, keywords = _SYMBOLS, _LEADS, KEYWORDS
    NAME, VARIABLE, SQ_STRING, DQ_STRING, TYPE_REF, NUMBER = (
        TokenKind.NAME, TokenKind.VARIABLE, TokenKind.SQ_STRING, TokenKind.DQ_STRING,
        TokenKind.TYPE_REF, TokenKind.NUMBER,
    )
    pos = 0
    line = 1
    line_start = 0  # offset of the first character of the current line
    while True:
        for trivia, s in _FIND.findall(text, pos):
            if trivia:
                if "\n" in trivia:
                    line += trivia.count("\n")
                    line_start = pos + trivia.rindex("\n") + 1
                pos += len(trivia)
            kind = symbols.get(s)
            if kind is not None:
                append((kind, s, s, line, pos - line_start + 1))
                pos += len(s)
                continue
            column = pos - line_start + 1
            kind = leads.get(s[:1])
            if kind is NAME:
                append((keywords.get(s, NAME), s, s, line, column))
            elif kind is VARIABLE:
                if len(s) == 1:
                    raise ParseError(SourceLocation(path, line, column), "invalid variable name")
                name = s[1:].removeprefix("::")
                append((VARIABLE, name, name, line, column))
            elif kind is SQ_STRING or kind is DQ_STRING:
                if len(s) == 1:  # an open "'": a '"' never matches alone
                    raise ParseError(SourceLocation(path, line, column), "unterminated string")
                body = s[1:-1]
                if kind is SQ_STRING and "\\" in body:
                    body = _SQ_ESCAPE.sub(r"\1", body)
                append((kind, body, body, line, column))
                if "\n" in s:  # only trivia and strings can span lines
                    line += s.count("\n")
                    line_start = pos + s.rindex("\n") + 1
            elif kind is TYPE_REF:
                append((TYPE_REF, s, s, line, column))
            elif kind is NUMBER:
                try:
                    value = float(s) if "." in s else int(s)
                except ValueError:  # beyond Python's int-string digit limit
                    raise ParseError(SourceLocation(path, line, column), "number literal too long") from None
                append((NUMBER, s, value, line, column))
            elif kind is _TOP_SCOPE:
                if len(s) == 2:
                    raise ParseError(SourceLocation(path, line, column), "unexpected character ':'")
                append((leads[s[2]], s, s, line, column))
            elif s:
                loc = SourceLocation(path, line, column)
                if s in _UNSUPPORTED:
                    raise UnsupportedConstruct(loc, _UNSUPPORTED[s])
                raise ParseError(loc, "unterminated block comment" if s == "/*" else f"unexpected character {s!r}")
            elif pos == len(text):
                append((TokenKind.EOF, "", None, line, column))
                return tokens
            else:  # a '"' that ``dq`` cannot close; the match took the rest of the text
                end = _dq_end(text, pos + 1) + 1
                if end == 0:
                    raise ParseError(SourceLocation(path, line, column), "unterminated string")
                body = text[pos + 1 : end - 1]
                append((DQ_STRING, body, body, line, column))
                if "\n" in body:
                    line += body.count("\n")
                    line_start = pos + 1 + body.rindex("\n") + 1
                pos = end
                break  # a new findall lexes on from the end of the string
            pos += len(s)
