"""Recursive-descent parser for the Puppet manifest subset.

Supported grammar: assignments, class/defined-type definitions with
parameter defaults, resource declarations, resource overrides
(``File['x'] { ... }``), if/elsif/else, case, selectors, single- and
double-quoted strings with interpolation, prefix and statement-position
function calls, arrays, hashes, ``[]`` access, ``undef``, booleans,
numbers, resource references, and the usual comparison/boolean/arithmetic
operators.  Recognized-but-unsupported Puppet syntax raises
UnsupportedConstruct; malformed input raises ParseError.

Binary operators are parsed by precedence climbing (Pratt, "Top Down
Operator Precedence", 1973): ``_BINARY`` maps each operator token to its
binding power, and ``parse_expression`` keeps folding operators that bind
at least as tightly as its caller asked for.  That table alone decides
precedence; every binary operator associates to the left.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from .errors import ParseError, UnsupportedConstruct
from .lexer import Token, TokenKind, interpolation_end, tokenize
from .nodes import (
    AccessExpr,
    ArrayLiteral,
    Assignment,
    AttributeNode,
    BinaryOp,
    BoolLiteral,
    CaseArm,
    CaseStatement,
    ClassDef,
    DefinedTypeDef,
    Expr,
    ExprStatement,
    FunctionCall,
    HashLiteral,
    IfStatement,
    InterpolatedString,
    Manifest,
    NumberLiteral,
    Parameter,
    ResourceDecl,
    ResourceOverride,
    ResourceRef,
    SelectorArm,
    SelectorExpr,
    SourceLocation,
    Statement,
    StrLiteral,
    UnaryOp,
    UndefLiteral,
    VarRef,
)

# Statement-position barewords that are real Puppet but not in the subset.
_UNSUPPORTED_STATEMENT_WORDS = {
    "node": "node_block",
    "unless": "unless_statement",
    "function": "function_definition",
    "type": "type_alias",
    "plan": "plan_definition",
}

# Binary operators: the operator each token spells and how tightly it binds.
_BINARY = {
    TokenKind.KW_OR: ("or", 1),
    TokenKind.KW_AND: ("and", 2),
    TokenKind.EQ: ("==", 3),
    TokenKind.NE: ("!=", 3),
    TokenKind.LT: ("<", 3),
    TokenKind.LE: ("<=", 3),
    TokenKind.GT: (">", 3),
    TokenKind.GE: (">=", 3),
    TokenKind.KW_IN: ("in", 3),
    TokenKind.PLUS: ("+", 4),
    TokenKind.MINUS: ("-", 4),
    TokenKind.STAR: ("*", 5),
    TokenKind.SLASH: ("/", 5),
    TokenKind.PERCENT: ("%", 5),
}

_CLOSERS = {TokenKind.RPAREN: ")", TokenKind.RBRACK: "]", TokenKind.RBRACE: "}"}

_EXPR_START = {
    TokenKind.SQ_STRING,
    TokenKind.DQ_STRING,
    TokenKind.VARIABLE,
    TokenKind.NUMBER,
    TokenKind.NAME,
    TokenKind.TYPE_REF,
    TokenKind.LBRACK,
    TokenKind.LBRACE,
    TokenKind.LPAREN,
    TokenKind.KW_UNDEF,
    TokenKind.KW_TRUE,
    TokenKind.KW_FALSE,
    TokenKind.BANG,
    TokenKind.MINUS,
}


class _Parser:
    """Recursive descent over one token list, which ends in ``EOF``.
    ``pos`` indexes the next token and never moves past ``EOF``.

    Every path reads ``self.tokens[self.pos]`` and moves ``self.pos``
    itself, the statement level included: a helper call per token read
    costs more than the read.  The one token helper left is ``expect``,
    which checks a token's kind and raises if it is wrong."""

    def __init__(self, tokens: list[Token], path: str):
        self.tokens = tokens
        self.path = path
        self.pos = 0

    def expect(self, kind: str, what: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not kind:
            raise ParseError(tok.loc(self.path), f"expected {what}, found {tok.text or 'end of input'!r}")
        if kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    # -- blocks and lists --------------------------------------------------

    def _block(self) -> tuple[Statement, ...]:
        """``{ statements }``.  The loop is its own rather than a call to
        ``parse_statements``, so each nesting level costs one frame less."""
        self.expect(TokenKind.LBRACE, "'{'")
        tokens = self.tokens
        stmts: list[Statement] = []
        while (kind := tokens[self.pos].kind) is not TokenKind.RBRACE and kind is not TokenKind.EOF:
            stmts.append(self.parse_statement())
        self.expect(TokenKind.RBRACE, "'}'")
        return tuple(stmts)

    def _delimited(self, close: str, what: str, item: Callable[[], object]) -> tuple:
        """Comma-separated *item*s up to and including *close*; the opening
        token is already consumed and a trailing comma is allowed."""
        tokens = self.tokens
        items = []
        while tokens[self.pos].kind is not close:
            items.append(item())
            kind = tokens[self.pos].kind
            if kind is TokenKind.COMMA:
                self.pos += 1
            elif kind is not close:
                raise ParseError(
                    tokens[self.pos].loc(self.path), f"expected ',' or '{_CLOSERS[close]}' in {what}"
                )
        self.pos += 1
        return tuple(items)

    # -- statements --------------------------------------------------------

    def parse_statements(self) -> tuple[Statement, ...]:
        tokens = self.tokens
        stmts: list[Statement] = []
        while tokens[self.pos].kind is not TokenKind.EOF:
            stmts.append(self.parse_statement())
        return tuple(stmts)

    def parse_statement(self) -> Statement:
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        kind = tok.kind
        if kind is TokenKind.VARIABLE:
            self.pos = pos + 1
            self.expect(TokenKind.ASSIGN, "'='")
            value = self.parse_expression()
            return Assignment(tok.text, value, SourceLocation(self.path, tok.line, tok.column))
        if kind is TokenKind.NAME:
            if tok.text in _UNSUPPORTED_STATEMENT_WORDS:
                raise UnsupportedConstruct(tok.loc(self.path), _UNSUPPORTED_STATEMENT_WORDS[tok.text])
            nxt = tokens[pos + 1].kind
            if nxt is TokenKind.LBRACE:
                return self._resource_decl()
            if nxt is TokenKind.LPAREN:
                call = self.parse_expression()
                return ExprStatement(call, call.loc)
            if nxt in _EXPR_START:
                # e.g. `include apache` -- statement calls without parentheses
                raise UnsupportedConstruct(tok.loc(self.path), "statement_function_call")
            raise ParseError(tok.loc(self.path), f"unexpected bare word {tok.text!r}")
        if kind is TokenKind.KW_IF:
            return self._if_statement()
        if kind is TokenKind.KW_CLASS:
            return self._class_def()
        if kind is TokenKind.KW_DEFINE:
            return self._defined_type()
        if kind is TokenKind.KW_CASE:
            return self._case_statement()
        if kind is TokenKind.TYPE_REF:
            return self._resource_override()
        raise ParseError(tok.loc(self.path), f"expected statement, found {tok.text or 'end of input'!r}")

    def _class_def(self) -> ClassDef:
        kw = self.tokens[self.pos]
        self.pos += 1
        name = self.expect(TokenKind.NAME, "class name")
        params = self._parameter_list()
        tok = self.tokens[self.pos]
        if tok.kind is TokenKind.NAME and tok.text == "inherits":
            raise UnsupportedConstruct(tok.loc(self.path), "class_inheritance")
        return ClassDef(name.text, params, self._block(), kw.loc(self.path))

    def _defined_type(self) -> DefinedTypeDef:
        kw = self.tokens[self.pos]
        self.pos += 1
        name = self.expect(TokenKind.NAME, "defined type name")
        params = self._parameter_list()
        return DefinedTypeDef(name.text, params, self._block(), kw.loc(self.path))

    def _parameter_list(self) -> tuple[Parameter, ...]:
        tokens = self.tokens
        if tokens[self.pos].kind is not TokenKind.LPAREN:
            return ()
        self.pos += 1
        seen: set[str] = set()

        def parameter() -> Parameter:
            tok = tokens[self.pos]
            if tok.kind is TokenKind.TYPE_REF:
                raise UnsupportedConstruct(tok.loc(self.path), "typed_parameter")
            var = self.expect(TokenKind.VARIABLE, "parameter")
            if var.text in seen:
                raise ParseError(var.loc(self.path), f"duplicate parameter ${var.text}")
            seen.add(var.text)
            default = None
            if tokens[self.pos].kind is TokenKind.ASSIGN:
                self.pos += 1
                default = self.parse_expression()
            return Parameter(var.text, default, var.loc(self.path))

        return self._delimited(TokenKind.RPAREN, "parameter list", parameter)

    def _if_statement(self) -> IfStatement:
        tokens = self.tokens
        kw = tokens[self.pos]  # 'if' or 'elsif'
        self.pos += 1
        condition = self.parse_expression()
        then_body = self._block()
        else_body: tuple[Statement, ...] = ()
        kind = tokens[self.pos].kind
        if kind is TokenKind.KW_ELSIF:
            # Desugar `elsif` into a nested if inside the else branch.
            else_body = (self._if_statement(),)
        elif kind is TokenKind.KW_ELSE:
            self.pos += 1
            else_body = self._block()
        return IfStatement(condition, then_body, else_body, SourceLocation(self.path, kw.line, kw.column))

    def _case_statement(self) -> CaseStatement:
        tokens = self.tokens
        kw = tokens[self.pos]
        self.pos += 1
        scrutinee = self.parse_expression()
        self.expect(TokenKind.LBRACE, "'{'")
        arms: list[CaseArm] = []
        while tokens[self.pos].kind is not TokenKind.RBRACE:
            arm_tok = tokens[self.pos]
            matches: list[Expr] = []
            is_default = False
            while True:
                if tokens[self.pos].kind is TokenKind.KW_DEFAULT:
                    self.pos += 1
                    is_default = True
                else:
                    matches.append(self.parse_expression())
                if tokens[self.pos].kind is not TokenKind.COMMA:
                    break
                self.pos += 1
            self.expect(TokenKind.COLON, "':'")
            arms.append(CaseArm(tuple(matches), self._block(), is_default, arm_tok.loc(self.path)))
        self.expect(TokenKind.RBRACE, "'}'")
        return CaseStatement(scrutinee, tuple(arms), kw.loc(self.path))

    def _resource_decl(self) -> ResourceDecl:
        """``type { title: attributes }``; ``parse_statement`` has seen the
        type name and the ``{``."""
        type_tok = self.tokens[self.pos]
        self.pos += 2
        title = self.parse_expression()
        self.expect(TokenKind.COLON, "':' after resource title")
        loc = SourceLocation(self.path, type_tok.line, type_tok.column)
        return ResourceDecl(type_tok.text, title, self._attribute_list(), loc)

    def _resource_override(self) -> ResourceOverride:
        type_tok = self.tokens[self.pos]
        self.pos += 1
        self.expect(TokenKind.LBRACK, "'['")
        title = self.parse_expression()
        self.expect(TokenKind.RBRACK, "']'")
        self.expect(TokenKind.LBRACE, "'{' for resource override")
        return ResourceOverride(type_tok.text, title, self._attribute_list(), type_tok.loc(self.path))

    def _attribute_list(self) -> tuple[AttributeNode, ...]:
        tokens = self.tokens
        seen: set[str] = set()

        def attribute() -> AttributeNode:
            name_tok = tokens[self.pos]
            if name_tok.kind is not TokenKind.NAME:
                if name_tok.kind is TokenKind.SEMI:
                    raise UnsupportedConstruct(name_tok.loc(self.path), "multi_body_resource")
                self.expect(TokenKind.NAME, "attribute name")  # raises
            name = name_tok.text
            if name in seen:
                raise ParseError(name_tok.loc(self.path), f"duplicate attribute {name!r}")
            seen.add(name)
            self.pos += 1
            self.expect(TokenKind.ARROW, "'=>'")
            value = self.parse_expression()
            return AttributeNode(name, value, SourceLocation(self.path, name_tok.line, name_tok.column))

        return self._delimited(TokenKind.RBRACE, "resource body", attribute)

    # -- expressions -------------------------------------------------------

    def parse_expression(self, min_power: int = 1) -> Expr:
        """Precedence climbing over ``_BINARY``: an operand, then every
        operator that binds at least *min_power*, each taking a right
        operand that binds tighter, so all of them associate left."""
        left = self._unary()
        while True:
            tok = self.tokens[self.pos]
            entry = _BINARY.get(tok.kind)
            if entry is None or entry[1] < min_power:
                return left
            self.pos += 1
            op, power = entry
            right = self.parse_expression(power + 1)
            left = BinaryOp(op, left, right, SourceLocation(self.path, tok.line, tok.column))

    def _unary(self) -> Expr:
        """Prefix ``!`` and ``-``, then a primary with its ``[key]`` and
        ``? { ... }`` suffixes."""
        tokens = self.tokens
        tok = tokens[self.pos]
        kind = tok.kind
        if kind is TokenKind.BANG or kind is TokenKind.MINUS:
            self.pos += 1
            return UnaryOp(tok.text, self._unary(), SourceLocation(self.path, tok.line, tok.column))
        expr = self._primary()
        while True:
            kind = tokens[self.pos].kind
            if kind is TokenKind.LBRACK:
                self.pos += 1
                key = self.parse_expression()
                self.expect(TokenKind.RBRACK, "']'")
                expr = AccessExpr(expr, key, expr.loc)
            elif kind is TokenKind.QUESTION:
                q = tokens[self.pos]
                self.pos += 1
                self.expect(TokenKind.LBRACE, "'{'")
                arms = self._delimited(TokenKind.RBRACE, "selector", self._selector_arm)
                expr = SelectorExpr(expr, arms, SourceLocation(self.path, q.line, q.column))
            else:
                return expr

    def _selector_arm(self) -> SelectorArm:
        arm_tok = self.tokens[self.pos]
        match = None
        if arm_tok.kind is TokenKind.KW_DEFAULT:
            self.pos += 1
        else:
            match = self.parse_expression()
        self.expect(TokenKind.ARROW, "'=>'")
        return SelectorArm(match, self.parse_expression(), match is None, arm_tok.loc(self.path))

    def _hash_entry(self) -> tuple[Expr, Expr]:
        key = self.parse_expression()
        self.expect(TokenKind.ARROW, "'=>'")
        return key, self.parse_expression()

    def _primary(self) -> Expr:
        tokens = self.tokens
        tok = tokens[self.pos]
        kind = tok.kind
        if kind is not TokenKind.EOF:
            self.pos += 1
        if kind is TokenKind.DQ_STRING:  # placed at its body, one column in
            return _interpolated_string(tok.value, SourceLocation(self.path, tok.line, tok.column + 1))
        loc = SourceLocation(self.path, tok.line, tok.column)
        if kind is TokenKind.SQ_STRING:
            return StrLiteral(tok.value, loc)
        if kind is TokenKind.VARIABLE:
            return VarRef(tok.text, loc)
        if kind is TokenKind.NUMBER:
            return NumberLiteral(tok.value, loc)
        if kind is TokenKind.KW_UNDEF:
            return UndefLiteral(loc)
        if kind is TokenKind.KW_TRUE or kind is TokenKind.KW_FALSE:
            return BoolLiteral(kind is TokenKind.KW_TRUE, loc)
        if kind is TokenKind.LBRACK:
            return ArrayLiteral(self._delimited(TokenKind.RBRACK, "array", self.parse_expression), loc)
        if kind is TokenKind.LBRACE:
            return HashLiteral(self._delimited(TokenKind.RBRACE, "hash", self._hash_entry), loc)
        if kind is TokenKind.LPAREN:
            inner = self.parse_expression()
            self.expect(TokenKind.RPAREN, "')'")
            return inner
        if kind is TokenKind.NAME:
            if tokens[self.pos].kind is TokenKind.LPAREN:
                self.pos += 1
                args = self._delimited(TokenKind.RPAREN, "call arguments", self.parse_expression)
                return FunctionCall(tok.text, args, loc)
            # Unquoted barewords are strings in Puppet (e.g. `ensure => present`).
            return StrLiteral(tok.text, loc)
        if kind is TokenKind.TYPE_REF:
            if tokens[self.pos].kind is TokenKind.LBRACK:
                self.pos += 1
                title = self.parse_expression()
                self.expect(TokenKind.RBRACK, "']'")
                return ResourceRef(tok.text, title, loc)
            return StrLiteral(tok.text, loc)
        raise ParseError(loc, f"expected expression, found {tok.text or 'end of input'!r}")


def parse_manifest(text: str, path: str) -> Manifest:
    """Parse one manifest into an AST.

    Returns a Manifest, or raises exactly one ParseError/UnsupportedConstruct.
    """
    if not path:
        raise ValueError("path must be nonempty")
    try:
        tokens = tokenize(text, path)
        parser = _Parser(tokens, path)
        statements = parser.parse_statements()
        parser.expect(TokenKind.EOF, "end of input")
    except RecursionError:
        raise ParseError(SourceLocation(path, 1, 1), "nesting too deep") from None
    return Manifest(path=path, statements=statements, raw_text=text)


_ESCAPES = {'"': '"', "\\": "\\", "$": "$", "n": "\n", "t": "\t"}
# What ``_interpolated_string`` looks for, by ``m.lastindex``: a backslash
# escape, a ``${name}`` (blanks allowed inside the braces) whose name is
# not ``true``, ``false`` or ``undef``, a ``$name`` reference, or the ``{``
# of any other ``${...}``, which ``_parse_embedded`` reads.
_INTERPOLATION_RE = re.compile(
    r"\\(.)"
    r"|\$\{\s*(?!(?:true|false|undef)\s*\})((?:::)?[A-Za-z_][A-Za-z0-9_]*(?:::[A-Za-z_][A-Za-z0-9_]*)*)\s*\}"
    r"|\$((?:::)?[A-Za-z0-9_]+(?:::[A-Za-z0-9_]+)*)"
    r"|\$(\{)",
    re.DOTALL,
)
_ESCAPED, _EMBEDDED = 1, 4  # groups 2 and 3 hold the name of a `${name}` and a `$name`


def parse_interpolation(double_quoted_body: str, location: SourceLocation) -> InterpolatedString:
    """Split the raw body of a double-quoted string into literal fragments
    and embedded expressions (``$var``, ``${var}``, ``${expr}``)."""
    try:
        return _interpolated_string(double_quoted_body, location)
    except RecursionError:
        raise ParseError(location, "nesting too deep") from None


def _interpolated_string(body: str, location: SourceLocation) -> InterpolatedString:
    # The parser calls this directly: parse_manifest reports RecursionError at 1:1.
    parts: list[object] = []
    literal = ""  # the pending text before *pos*, escapes resolved
    pos = 0
    multiline = "\n" in body
    search = _INTERPOLATION_RE.search
    while (m := search(body, pos)) is not None:
        i, kind = m.start(), m.lastindex
        if kind == _ESCAPED:
            literal += body[pos:i] + _ESCAPES.get(m.group(1), m.group())
            pos = m.end()
            continue
        if text := literal + body[pos:i]:
            parts.append(text)
        literal, pos = "", m.end()
        if multiline and (newlines := body.count("\n", 0, i)):
            line, column = location.line + newlines, i - body.rfind("\n", 0, i)
        else:
            # `location.line` itself, not `+ 0`: past line 256 that would be a
            # new int object, kept alive by every part's location.
            line, column = location.line, location.column + i
        part_loc = SourceLocation(location.path, line, column)
        if kind != _EMBEDDED:
            parts.append(VarRef(m.group(kind).removeprefix("::"), part_loc))
            continue
        end = interpolation_end(body, pos)
        if end < 0:
            raise ParseError(part_loc, "unbalanced '${' in string interpolation")
        inner_loc = SourceLocation(location.path, line, column + 2)
        parts.append(_parse_embedded(body[pos:end], inner_loc, part_loc))
        pos = end + 1
    if text := literal + body[pos:]:
        parts.append(text)
    return InterpolatedString(tuple(parts), location)


def _parse_embedded(inner: str, inner_loc: SourceLocation, part_loc: SourceLocation) -> Expr:
    if not inner.strip():
        raise ParseError(part_loc, "empty interpolation")
    tokens = tokenize(inner, inner_loc.path)
    _shift_tokens(tokens, inner_loc)
    # Inside ${...} a leading bareword denotes a variable unless it is
    # immediately called as a function.
    if tokens and tokens[0].kind is TokenKind.NAME and not (
        len(tokens) > 1 and tokens[1].kind is TokenKind.LPAREN
    ):
        first = tokens[0]
        name = first.text[2:] if first.text.startswith("::") else first.text
        tokens[0] = Token(TokenKind.VARIABLE, name, name, first.line, first.column)
    parser = _Parser(tokens, inner_loc.path)
    expr = parser.parse_expression()
    parser.expect(TokenKind.EOF, "end of interpolation")
    return expr


def _shift_tokens(tokens: list[Token], base: SourceLocation) -> None:
    """Rebase token coordinates from the embedded text onto the manifest."""
    for tok in tokens:
        if tok.line == 1:
            tok.column = base.column + tok.column - 1
        tok.line = base.line + tok.line - 1
