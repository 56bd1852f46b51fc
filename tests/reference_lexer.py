"""The character-at-a-time tokenizer that ``pupsec.lexer`` replaced.

Kept as a test oracle, as ``oracle.py`` is for reachability: the
differential tests in ``test_lexer.py`` require ``pupsec.lexer.tokenize``
to return the same tokens as ``tokenize`` here, or to raise the same error.
The one known divergence is a non-ASCII digit such as ``²``: this
scanner takes it for the start of a number and then fails with
AttributeError, where ``pupsec.lexer`` raises ParseError.  Its tokens are
the ``Token`` records that ``pupsec.lexer`` built before it returned plain
tuples; ``reference_parser.py`` reads them too.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from pupsec.errors import ParseError, UnsupportedConstruct
from pupsec.lexer import KEYWORDS, TokenKind
from pupsec.nodes import SourceLocation

_WORD_RE = re.compile(r"(::)?[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*")
_VAR_RE = re.compile(r"(::)?[A-Za-z0-9_]+(::[A-Za-z0-9_]+)*")
_NUM_RE = re.compile(r"[0-9]+(\.[0-9]+)?")


@dataclass(slots=True)
class Token:
    kind: str  # one of the TokenKind constants
    text: str
    value: object
    line: int
    column: int

    def loc(self, path: str) -> SourceLocation:
        return SourceLocation(path, self.line, self.column)


class _Scanner:
    def __init__(self, text: str, path: str):
        self.text = text
        self.path = path
        self.pos = 0
        self.line = 1
        self.col = 1

    def _loc(self) -> SourceLocation:
        return SourceLocation(self.path, self.line, self.col)

    def _advance(self, n: int = 1) -> None:
        for _ in range(n):
            if self.pos < len(self.text) and self.text[self.pos] == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
            self.pos += 1

    def _peek(self, offset: int = 0) -> str:
        i = self.pos + offset
        return self.text[i] if i < len(self.text) else ""

    def _startswith(self, s: str) -> bool:
        return self.text.startswith(s, self.pos)

    def tokens(self) -> list[Token]:
        out: list[Token] = []
        while True:
            tok = self._next_token()
            out.append(tok)
            if tok.kind is TokenKind.EOF:
                return out

    def _next_token(self) -> Token:
        self._skip_trivia()
        if self.pos >= len(self.text):
            return Token(TokenKind.EOF, "", None, self.line, self.col)
        line, col = self.line, self.col
        c = self._peek()

        if c == "'":
            return self._sq_string(line, col)
        if c == '"':
            return self._dq_string(line, col)
        if c == "$":
            return self._variable(line, col)
        if c.isdigit():
            m = _NUM_RE.match(self.text, self.pos)
            text = m.group(0)
            self._advance(len(text))
            value = float(text) if "." in text else int(text)
            return Token(TokenKind.NUMBER, text, value, line, col)
        if c.isalpha() or c == "_" or self._startswith("::"):
            m = _WORD_RE.match(self.text, self.pos)
            if not m:
                raise ParseError(self._loc(), f"unexpected character {c!r}")
            text = m.group(0)
            self._advance(len(text))
            kind = KEYWORDS.get(text)
            if kind is None:
                first = text.lstrip(":")[0]
                kind = TokenKind.TYPE_REF if first.isupper() else TokenKind.NAME
            return Token(kind, text, text, line, col)

        return self._symbol(line, col)

    def _skip_trivia(self) -> None:
        while self.pos < len(self.text):
            c = self._peek()
            if c in " \t\r\n":
                self._advance()
            elif c == "#":
                while self.pos < len(self.text) and self._peek() != "\n":
                    self._advance()
            elif self._startswith("/*"):
                start = self._loc()
                self._advance(2)
                while self.pos < len(self.text) and not self._startswith("*/"):
                    self._advance()
                if self.pos >= len(self.text):
                    raise ParseError(start, "unterminated block comment")
                self._advance(2)
            else:
                return

    def _sq_string(self, line: int, col: int) -> Token:
        start = self._loc()
        self._advance()  # opening quote
        chars: list[str] = []
        while True:
            if self.pos >= len(self.text):
                raise ParseError(start, "unterminated string")
            c = self._peek()
            if c == "\\":
                nxt = self._peek(1)
                if nxt in ("'", "\\"):
                    chars.append(nxt)
                    self._advance(2)
                else:
                    chars.append("\\")
                    self._advance()
            elif c == "'":
                self._advance()
                text = "".join(chars)
                return Token(TokenKind.SQ_STRING, text, text, line, col)
            else:
                chars.append(c)
                self._advance()

    def _dq_string(self, line: int, col: int) -> Token:
        # The raw body is kept verbatim; escape resolution and interpolation
        # splitting happen in the parser.  Quotes inside ${...} must not
        # terminate the string.
        start = self._loc()
        self._advance()  # opening quote
        body_start = self.pos
        depth = 0
        inner_quote = ""
        while True:
            if self.pos >= len(self.text):
                raise ParseError(start, "unterminated string")
            c = self._peek()
            if c == "\\":
                self._advance(2)
                continue
            if inner_quote:
                if c == inner_quote:
                    inner_quote = ""
                self._advance()
                continue
            if depth == 0 and c == '"':
                body = self.text[body_start : self.pos]
                self._advance()
                return Token(TokenKind.DQ_STRING, body, body, line, col)
            if c == "$" and self._peek(1) == "{":
                depth += 1
                self._advance(2)
                continue
            if depth > 0:
                if c in ("'", '"'):
                    inner_quote = c
                elif c == "{":
                    depth += 1
                elif c == "}":
                    depth -= 1
            self._advance()

    def _variable(self, line: int, col: int) -> Token:
        self._advance()  # '$'
        m = _VAR_RE.match(self.text, self.pos)
        if not m:
            raise ParseError(SourceLocation(self.path, line, col), "invalid variable name")
        raw = m.group(0)
        self._advance(len(raw))
        name = raw[2:] if raw.startswith("::") else raw
        return Token(TokenKind.VARIABLE, name, name, line, col)

    def _symbol(self, line: int, col: int) -> Token:
        loc = SourceLocation(self.path, line, col)
        two = self.text[self.pos : self.pos + 2]
        unsupported = {
            "@(": "heredoc",
            "@@": "exported_resource",
            "->": "chaining_arrow",
            "~>": "chaining_arrow",
            "=~": "regex_match",
            "!~": "regex_match",
            "<|": "resource_collector",
            "+=": "append_assignment",
        }
        if self.text.startswith("<<|", self.pos):
            raise UnsupportedConstruct(loc, "resource_collector")
        if two in unsupported:
            raise UnsupportedConstruct(loc, unsupported[two])
        doubles = {
            "=>": TokenKind.ARROW,
            "==": TokenKind.EQ,
            "!=": TokenKind.NE,
            "<=": TokenKind.LE,
            ">=": TokenKind.GE,
        }
        if two in doubles:
            self._advance(2)
            return Token(doubles[two], two, two, line, col)
        c = self._peek()
        if c == "@":
            raise UnsupportedConstruct(loc, "virtual_resource")
        if c == "|":
            raise UnsupportedConstruct(loc, "lambda")
        if c == ".":
            raise UnsupportedConstruct(loc, "method_call")
        singles = {
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
        if c in singles:
            self._advance()
            return Token(singles[c], c, c, line, col)
        raise ParseError(loc, f"unexpected character {c!r}")


def tokenize(text: str, path: str) -> list[Token]:
    return _Scanner(text, path).tokens()
