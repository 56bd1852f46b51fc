"""Tokenizer for the Puppet manifest subset.

``tokenize`` matches one compiled master pattern of named alternatives
(``_MASTER``) at the current offset, and the name of the alternative that
matched says what the next token is: trivia, a single- or double-quoted
string, a ``$variable``, a number, a name, a type reference, an
unsupported operator, a symbol or the end of the input.  Blanks before a
token on the same line are part of its match.  Some alternatives name an
error instead (``open_comment``, ``open_sq``, ``bad_var``, ``bad_colons``,
``bad_char``) and match the text the error is reported at.  Lines and
columns come from match offsets and the offset where the current line
starts, which moves only past trivia and strings, the tokens that can
contain a newline.

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
from enum import Enum, auto

from .errors import ParseError, UnsupportedConstruct
from .nodes import SourceLocation


class TokenKind(Enum):
    NAME = auto()  # bareword, possibly '::'-qualified, starts lowercase
    TYPE_REF = auto()  # capitalized word, e.g. File, Mysql::Db
    VARIABLE = auto()  # $name (text stores the name without sigil)
    NUMBER = auto()
    SQ_STRING = auto()  # value: resolved text
    DQ_STRING = auto()  # value: raw body between the quotes
    LBRACE = auto()
    RBRACE = auto()
    LBRACK = auto()
    RBRACK = auto()
    LPAREN = auto()
    RPAREN = auto()
    COMMA = auto()
    COLON = auto()
    SEMI = auto()
    ARROW = auto()  # =>
    ASSIGN = auto()  # =
    QUESTION = auto()
    EQ = auto()
    NE = auto()
    LT = auto()
    LE = auto()
    GT = auto()
    GE = auto()
    PLUS = auto()
    MINUS = auto()
    STAR = auto()
    SLASH = auto()
    PERCENT = auto()
    BANG = auto()
    KW_CLASS = auto()
    KW_DEFINE = auto()
    KW_IF = auto()
    KW_ELSIF = auto()
    KW_ELSE = auto()
    KW_CASE = auto()
    KW_DEFAULT = auto()
    KW_UNDEF = auto()
    KW_TRUE = auto()
    KW_FALSE = auto()
    KW_AND = auto()
    KW_OR = auto()
    KW_IN = auto()
    EOF = auto()


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
    kind: TokenKind
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

# Alternatives that match the start of a token the lexer rejects.
_ERRORS = {
    "open_comment": "unterminated block comment",
    "open_sq": "unterminated string",
    "bad_var": "invalid variable name",
    "bad_colons": "unexpected character ':'",
}


def _alternation(operators) -> str:
    # Longest first, so that '=>' is tried before '='.
    return "|".join(re.escape(op) for op in sorted(operators, key=len, reverse=True))


# Order matters: an alternative is tried only where every earlier one
# failed.  The last two always match, so ``_MASTER.match`` never fails.
_MASTER = re.compile(
    r"[ \t]*(?:"
    + "|".join(
        f"(?P<{name}>{pattern})"
        for name, pattern in (
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
            ("unsupported", _alternation(_UNSUPPORTED)),
            ("symbol", _alternation(_SYMBOLS)),
            ("eof", r"\Z"),
            ("bad_char", "."),
        )
    )
    + ")",
    re.DOTALL,
)
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
        group = m.lastgroup
        start, pos = m.span(group)
        column = start - line_start + 1
        if group == "symbol":
            s = m.group(group)
            append(Token(_SYMBOLS[s], s, s, line, column))
            continue
        if group == "name":
            s = m.group(group)
            append(Token(KEYWORDS.get(s, TokenKind.NAME), s, s, line, column))
            continue
        if group == "var":
            name = text[start + 1 : pos].removeprefix("::")
            append(Token(TokenKind.VARIABLE, name, name, line, column))
            continue
        if group == "type_ref":
            s = m.group(group)
            append(Token(TokenKind.TYPE_REF, s, s, line, column))
            continue
        if group == "number":
            s = m.group(group)
            try:
                value = float(s) if "." in s else int(s)
            except ValueError:  # beyond Python's int-string digit limit
                raise ParseError(SourceLocation(path, line, column), "number literal too long") from None
            append(Token(TokenKind.NUMBER, s, value, line, column))
            continue
        if group == "sq":
            body = text[start + 1 : pos - 1]
            if "\\" in body:
                body = _SQ_ESCAPE.sub(r"\1", body)
            append(Token(TokenKind.SQ_STRING, body, body, line, column))
        elif group == "dq" or group == "dq_open":
            if group == "dq_open":
                pos = _dq_end(text, pos) + 1
                if pos == 0:
                    raise ParseError(SourceLocation(path, line, column), "unterminated string")
            body = text[start + 1 : pos - 1]
            append(Token(TokenKind.DQ_STRING, body, body, line, column))
        elif group == "eof":
            append(Token(TokenKind.EOF, "", None, line, column))
            return tokens
        elif group == "unsupported":
            raise UnsupportedConstruct(SourceLocation(path, line, column), _UNSUPPORTED[m.group(group)])
        elif group == "bad_char":
            raise ParseError(SourceLocation(path, line, column), f"unexpected character {m.group(group)!r}")
        elif group != "trivia":
            raise ParseError(SourceLocation(path, line, column), _ERRORS[group])
        # Only trivia and strings can span lines.
        newlines = text.count("\n", start, pos)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", start, pos) + 1
