"""The recursive-descent parser with a precedence ladder that
``pupsec.parser`` replaced.

Kept as a test oracle, as ``reference_lexer.py`` is for the lexer: the
differential tests in ``test_parser.py`` require ``pupsec.parser`` to build
the same trees as ``parse_manifest`` and ``parse_interpolation`` here, or to
raise the same error.  The one intended divergence is the message for input
nested too deeply, which ``pupsec.parser`` words as "nesting too deep".
It reads ``pupsec.lexer``'s tokens as ``reference_lexer.Token`` records.
The original module docstring follows.

Recursive-descent parser for the Puppet manifest subset.

Supported grammar: assignments, class/defined-type definitions with
parameter defaults, resource declarations, resource overrides
(``File['x'] { ... }``), if/elsif/else, case, selectors, single- and
double-quoted strings with interpolation, prefix and statement-position
function calls, arrays, hashes, ``[]`` access, ``undef``, booleans,
numbers, resource references, and the usual comparison/boolean/arithmetic
operators.  Recognized-but-unsupported Puppet syntax raises
UnsupportedConstruct; malformed input raises ParseError.
"""

from __future__ import annotations

import re

from pupsec import lexer
from pupsec.errors import ParseError, UnsupportedConstruct
from pupsec.lexer import TokenKind
from pupsec.nodes import (
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
from reference_lexer import Token

# Statement-position barewords that are real Puppet but not in the subset.
_UNSUPPORTED_STATEMENT_WORDS = {
    "node": "node_block",
    "unless": "unless_statement",
    "function": "function_definition",
    "type": "type_alias",
    "plan": "plan_definition",
}

_BARE_NAME_RE = re.compile(r"(::)?[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*\Z")

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


def tokenize(text: str, path: str) -> list[Token]:
    return [Token(*tok) for tok in lexer.tokenize(text, path)]


class _Parser:
    def __init__(self, tokens: list[Token], path: str):
        self.tokens = tokens
        self.path = path
        self.pos = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, offset: int = 0) -> Token:
        i = min(self.pos + offset, len(self.tokens) - 1)
        return self.tokens[i]

    def at(self, kind: TokenKind) -> bool:
        return self.peek().kind is kind

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokenKind.EOF:
            self.pos += 1
        return tok

    def expect(self, kind: TokenKind, what: str) -> Token:
        tok = self.peek()
        if tok.kind is not kind:
            raise ParseError(tok.loc(self.path), f"expected {what}, found {tok.text or 'end of input'!r}")
        return self.advance()

    def loc(self, tok: Token) -> SourceLocation:
        return tok.loc(self.path)

    # -- statements --------------------------------------------------------

    def parse_statements(self, *terminators: TokenKind) -> tuple[Statement, ...]:
        stmts: list[Statement] = []
        while not self.at(TokenKind.EOF) and self.peek().kind not in terminators:
            stmts.append(self.parse_statement())
        return tuple(stmts)

    def parse_statement(self) -> Statement:
        tok = self.peek()
        kind = tok.kind
        if kind is TokenKind.VARIABLE:
            return self._assignment()
        if kind is TokenKind.KW_CLASS:
            return self._class_def()
        if kind is TokenKind.KW_DEFINE:
            return self._defined_type()
        if kind is TokenKind.KW_IF:
            return self._if_statement()
        if kind is TokenKind.KW_CASE:
            return self._case_statement()
        if kind is TokenKind.NAME:
            if tok.text in _UNSUPPORTED_STATEMENT_WORDS:
                raise UnsupportedConstruct(self.loc(tok), _UNSUPPORTED_STATEMENT_WORDS[tok.text])
            nxt = self.peek(1).kind
            if nxt is TokenKind.LBRACE:
                return self._resource_decl()
            if nxt is TokenKind.LPAREN:
                call = self.parse_expression()
                return ExprStatement(call, call.loc)
            if nxt in _EXPR_START:
                # e.g. `include apache` -- statement calls without parentheses
                raise UnsupportedConstruct(self.loc(tok), "statement_function_call")
            raise ParseError(self.loc(tok), f"unexpected bare word {tok.text!r}")
        if kind is TokenKind.TYPE_REF:
            return self._resource_override()
        raise ParseError(self.loc(tok), f"expected statement, found {tok.text or 'end of input'!r}")

    def _assignment(self) -> Assignment:
        var = self.advance()
        self.expect(TokenKind.ASSIGN, "'='")
        value = self.parse_expression()
        return Assignment(var.text, value, self.loc(var))

    def _class_def(self) -> ClassDef:
        kw = self.advance()
        name = self.expect(TokenKind.NAME, "class name")
        params = self._parameter_list()
        if self.at(TokenKind.NAME) and self.peek().text == "inherits":
            raise UnsupportedConstruct(self.loc(self.peek()), "class_inheritance")
        self.expect(TokenKind.LBRACE, "'{'")
        body = self.parse_statements(TokenKind.RBRACE)
        self.expect(TokenKind.RBRACE, "'}'")
        return ClassDef(name.text, params, body, self.loc(kw))

    def _defined_type(self) -> DefinedTypeDef:
        kw = self.advance()
        name = self.expect(TokenKind.NAME, "defined type name")
        params = self._parameter_list()
        self.expect(TokenKind.LBRACE, "'{'")
        body = self.parse_statements(TokenKind.RBRACE)
        self.expect(TokenKind.RBRACE, "'}'")
        return DefinedTypeDef(name.text, params, body, self.loc(kw))

    def _parameter_list(self) -> tuple[Parameter, ...]:
        if not self.at(TokenKind.LPAREN):
            return ()
        self.advance()
        params: list[Parameter] = []
        seen: set[str] = set()
        while not self.at(TokenKind.RPAREN):
            if self.at(TokenKind.TYPE_REF):
                raise UnsupportedConstruct(self.loc(self.peek()), "typed_parameter")
            var = self.expect(TokenKind.VARIABLE, "parameter")
            if var.text in seen:
                raise ParseError(self.loc(var), f"duplicate parameter ${var.text}")
            seen.add(var.text)
            default = None
            if self.at(TokenKind.ASSIGN):
                self.advance()
                default = self.parse_expression()
            params.append(Parameter(var.text, default, self.loc(var)))
            if self.at(TokenKind.COMMA):
                self.advance()
            elif not self.at(TokenKind.RPAREN):
                raise ParseError(self.loc(self.peek()), "expected ',' or ')' in parameter list")
        self.advance()
        return tuple(params)

    def _if_statement(self) -> IfStatement:
        kw = self.advance()
        condition = self.parse_expression()
        self.expect(TokenKind.LBRACE, "'{'")
        then_body = self.parse_statements(TokenKind.RBRACE)
        self.expect(TokenKind.RBRACE, "'}'")
        else_body: tuple[Statement, ...] = ()
        if self.at(TokenKind.KW_ELSIF):
            # Desugar `elsif` into a nested if inside the else branch.
            else_body = (self._if_statement_from_elsif(),)
        elif self.at(TokenKind.KW_ELSE):
            self.advance()
            self.expect(TokenKind.LBRACE, "'{'")
            else_body = self.parse_statements(TokenKind.RBRACE)
            self.expect(TokenKind.RBRACE, "'}'")
        return IfStatement(condition, then_body, else_body, self.loc(kw))

    def _if_statement_from_elsif(self) -> IfStatement:
        kw = self.advance()  # 'elsif'
        condition = self.parse_expression()
        self.expect(TokenKind.LBRACE, "'{'")
        then_body = self.parse_statements(TokenKind.RBRACE)
        self.expect(TokenKind.RBRACE, "'}'")
        else_body: tuple[Statement, ...] = ()
        if self.at(TokenKind.KW_ELSIF):
            else_body = (self._if_statement_from_elsif(),)
        elif self.at(TokenKind.KW_ELSE):
            self.advance()
            self.expect(TokenKind.LBRACE, "'{'")
            else_body = self.parse_statements(TokenKind.RBRACE)
            self.expect(TokenKind.RBRACE, "'}'")
        return IfStatement(condition, then_body, else_body, self.loc(kw))

    def _case_statement(self) -> CaseStatement:
        kw = self.advance()
        scrutinee = self.parse_expression()
        self.expect(TokenKind.LBRACE, "'{'")
        arms: list[CaseArm] = []
        while not self.at(TokenKind.RBRACE):
            arm_tok = self.peek()
            matches: list[Expr] = []
            is_default = False
            while True:
                if self.at(TokenKind.KW_DEFAULT):
                    self.advance()
                    is_default = True
                else:
                    matches.append(self.parse_expression())
                if self.at(TokenKind.COMMA):
                    self.advance()
                else:
                    break
            self.expect(TokenKind.COLON, "':'")
            self.expect(TokenKind.LBRACE, "'{'")
            body = self.parse_statements(TokenKind.RBRACE)
            self.expect(TokenKind.RBRACE, "'}'")
            arms.append(CaseArm(tuple(matches), body, is_default, self.loc(arm_tok)))
        self.expect(TokenKind.RBRACE, "'}'")
        return CaseStatement(scrutinee, tuple(arms), self.loc(kw))

    def _resource_decl(self) -> ResourceDecl:
        type_tok = self.advance()
        self.expect(TokenKind.LBRACE, "'{'")
        title = self.parse_expression()
        self.expect(TokenKind.COLON, "':' after resource title")
        attributes = self._attribute_list()
        self.expect(TokenKind.RBRACE, "'}'")
        return ResourceDecl(type_tok.text, title, attributes, self.loc(type_tok))

    def _resource_override(self) -> ResourceOverride:
        type_tok = self.advance()
        self.expect(TokenKind.LBRACK, "'['")
        title = self.parse_expression()
        self.expect(TokenKind.RBRACK, "']'")
        self.expect(TokenKind.LBRACE, "'{' for resource override")
        attributes = self._attribute_list()
        self.expect(TokenKind.RBRACE, "'}'")
        return ResourceOverride(type_tok.text, title, attributes, self.loc(type_tok))

    def _attribute_list(self) -> tuple[AttributeNode, ...]:
        attrs: list[AttributeNode] = []
        seen: set[str] = set()
        while not self.at(TokenKind.RBRACE):
            if self.at(TokenKind.SEMI):
                raise UnsupportedConstruct(self.loc(self.peek()), "multi_body_resource")
            name_tok = self.expect(TokenKind.NAME, "attribute name")
            if name_tok.text in seen:
                raise ParseError(self.loc(name_tok), f"duplicate attribute {name_tok.text!r}")
            seen.add(name_tok.text)
            self.expect(TokenKind.ARROW, "'=>'")
            value = self.parse_expression()
            attrs.append(AttributeNode(name_tok.text, value, self.loc(name_tok)))
            if self.at(TokenKind.COMMA):
                self.advance()
            elif not self.at(TokenKind.RBRACE):
                raise ParseError(self.loc(self.peek()), "expected ',' or '}' in resource body")
        return tuple(attrs)

    # -- expressions -------------------------------------------------------

    def parse_expression(self) -> Expr:
        return self._or_expr()

    def _or_expr(self) -> Expr:
        left = self._and_expr()
        while self.at(TokenKind.KW_OR):
            op = self.advance()
            right = self._and_expr()
            left = BinaryOp("or", left, right, self.loc(op))
        return left

    def _and_expr(self) -> Expr:
        left = self._comparison()
        while self.at(TokenKind.KW_AND):
            op = self.advance()
            right = self._comparison()
            left = BinaryOp("and", left, right, self.loc(op))
        return left

    _COMPARISONS = {
        TokenKind.EQ: "==",
        TokenKind.NE: "!=",
        TokenKind.LT: "<",
        TokenKind.LE: "<=",
        TokenKind.GT: ">",
        TokenKind.GE: ">=",
        TokenKind.KW_IN: "in",
    }

    def _comparison(self) -> Expr:
        left = self._additive()
        while self.peek().kind in self._COMPARISONS:
            op = self.advance()
            right = self._additive()
            left = BinaryOp(self._COMPARISONS[op.kind], left, right, self.loc(op))
        return left

    def _additive(self) -> Expr:
        left = self._multiplicative()
        while self.peek().kind in (TokenKind.PLUS, TokenKind.MINUS):
            op = self.advance()
            right = self._multiplicative()
            left = BinaryOp(op.text, left, right, self.loc(op))
        return left

    def _multiplicative(self) -> Expr:
        left = self._unary()
        while self.peek().kind in (TokenKind.STAR, TokenKind.SLASH, TokenKind.PERCENT):
            op = self.advance()
            right = self._unary()
            left = BinaryOp(op.text, left, right, self.loc(op))
        return left

    def _unary(self) -> Expr:
        if self.at(TokenKind.BANG):
            op = self.advance()
            return UnaryOp("!", self._unary(), self.loc(op))
        if self.at(TokenKind.MINUS):
            op = self.advance()
            return UnaryOp("-", self._unary(), self.loc(op))
        return self._postfix()

    def _postfix(self) -> Expr:
        expr = self._primary()
        while True:
            if self.at(TokenKind.LBRACK):
                self.advance()
                key = self.parse_expression()
                self.expect(TokenKind.RBRACK, "']'")
                expr = AccessExpr(expr, key, expr.loc)
            elif self.at(TokenKind.QUESTION):
                expr = self._selector(expr)
            else:
                return expr

    def _selector(self, scrutinee: Expr) -> SelectorExpr:
        q = self.advance()
        self.expect(TokenKind.LBRACE, "'{'")
        arms: list[SelectorArm] = []
        while not self.at(TokenKind.RBRACE):
            arm_tok = self.peek()
            if self.at(TokenKind.KW_DEFAULT):
                self.advance()
                match: Expr | None = None
                is_default = True
            else:
                match = self.parse_expression()
                is_default = False
            self.expect(TokenKind.ARROW, "'=>'")
            value = self.parse_expression()
            arms.append(SelectorArm(match, value, is_default, self.loc(arm_tok)))
            if self.at(TokenKind.COMMA):
                self.advance()
            elif not self.at(TokenKind.RBRACE):
                raise ParseError(self.loc(self.peek()), "expected ',' or '}' in selector")
        self.advance()
        return SelectorExpr(scrutinee, tuple(arms), self.loc(q))

    def _primary(self) -> Expr:
        tok = self.peek()
        kind = tok.kind
        if kind is TokenKind.SQ_STRING:
            self.advance()
            return StrLiteral(tok.value, self.loc(tok))
        if kind is TokenKind.DQ_STRING:
            self.advance()
            body_loc = SourceLocation(self.path, tok.line, tok.column + 1)
            return parse_interpolation(tok.value, body_loc)
        if kind is TokenKind.VARIABLE:
            self.advance()
            return VarRef(tok.text, self.loc(tok))
        if kind is TokenKind.NUMBER:
            self.advance()
            return NumberLiteral(tok.value, self.loc(tok))
        if kind is TokenKind.KW_UNDEF:
            self.advance()
            return UndefLiteral(self.loc(tok))
        if kind is TokenKind.KW_TRUE:
            self.advance()
            return BoolLiteral(True, self.loc(tok))
        if kind is TokenKind.KW_FALSE:
            self.advance()
            return BoolLiteral(False, self.loc(tok))
        if kind is TokenKind.LBRACK:
            return self._array_literal()
        if kind is TokenKind.LBRACE:
            return self._hash_literal()
        if kind is TokenKind.LPAREN:
            self.advance()
            inner = self.parse_expression()
            self.expect(TokenKind.RPAREN, "')'")
            return inner
        if kind is TokenKind.NAME:
            self.advance()
            if self.at(TokenKind.LPAREN):
                return self._call_args(tok)
            # Unquoted barewords are strings in Puppet (e.g. `ensure => present`).
            return StrLiteral(tok.text, self.loc(tok))
        if kind is TokenKind.TYPE_REF:
            self.advance()
            if self.at(TokenKind.LBRACK):
                self.advance()
                title = self.parse_expression()
                self.expect(TokenKind.RBRACK, "']'")
                return ResourceRef(tok.text, title, self.loc(tok))
            return StrLiteral(tok.text, self.loc(tok))
        raise ParseError(self.loc(tok), f"expected expression, found {tok.text or 'end of input'!r}")

    def _array_literal(self) -> ArrayLiteral:
        open_tok = self.advance()
        items: list[Expr] = []
        while not self.at(TokenKind.RBRACK):
            items.append(self.parse_expression())
            if self.at(TokenKind.COMMA):
                self.advance()
            elif not self.at(TokenKind.RBRACK):
                raise ParseError(self.loc(self.peek()), "expected ',' or ']' in array")
        self.advance()
        return ArrayLiteral(tuple(items), self.loc(open_tok))

    def _hash_literal(self) -> HashLiteral:
        open_tok = self.advance()
        entries: list[tuple[Expr, Expr]] = []
        while not self.at(TokenKind.RBRACE):
            key = self.parse_expression()
            self.expect(TokenKind.ARROW, "'=>'")
            value = self.parse_expression()
            entries.append((key, value))
            if self.at(TokenKind.COMMA):
                self.advance()
            elif not self.at(TokenKind.RBRACE):
                raise ParseError(self.loc(self.peek()), "expected ',' or '}' in hash")
        self.advance()
        return HashLiteral(tuple(entries), self.loc(open_tok))

    def _call_args(self, name_tok: Token) -> FunctionCall:
        self.expect(TokenKind.LPAREN, "'('")
        args: list[Expr] = []
        while not self.at(TokenKind.RPAREN):
            args.append(self.parse_expression())
            if self.at(TokenKind.COMMA):
                self.advance()
            elif not self.at(TokenKind.RPAREN):
                raise ParseError(self.loc(self.peek()), "expected ',' or ')' in call arguments")
        self.advance()
        return FunctionCall(name_tok.text, tuple(args), self.loc(name_tok))


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
        raise ParseError(SourceLocation(path, 1, 1), "expression nesting too deep") from None
    return Manifest(path=path, statements=statements, raw_text=text)


_ESCAPES = {'"': '"', "\\": "\\", "$": "$", "n": "\n", "t": "\t"}
_SIMPLE_VAR_RE = re.compile(r"(::)?[A-Za-z0-9_]+(::[A-Za-z0-9_]+)*")


def parse_interpolation(double_quoted_body: str, location: SourceLocation) -> InterpolatedString:
    """Split the raw body of a double-quoted string into literal fragments
    and embedded expressions (``$var``, ``${var}``, ``${expr}``)."""
    body = double_quoted_body
    parts: list[object] = []
    chars: list[str] = []
    line, col = location.line, location.column
    i = 0

    def track(segment: str) -> None:
        nonlocal line, col
        for ch in segment:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1

    def flush() -> None:
        if chars:
            parts.append("".join(chars))
            chars.clear()

    while i < len(body):
        c = body[i]
        if c == "\\" and i + 1 < len(body):
            nxt = body[i + 1]
            if nxt in _ESCAPES:
                chars.append(_ESCAPES[nxt])
            else:
                chars.append(c)
                chars.append(nxt)
            track(body[i : i + 2])
            i += 2
            continue
        if c == "$" and i + 1 < len(body) and body[i + 1] == "{":
            part_loc = SourceLocation(location.path, line, col)
            end = _matching_brace(body, i + 2, part_loc)
            inner = body[i + 2 : end]
            inner_loc = SourceLocation(location.path, line, col + 2)
            flush()
            parts.append(_parse_embedded(inner, inner_loc, part_loc))
            track(body[i : end + 1])
            i = end + 1
            continue
        if c == "$":
            m = _SIMPLE_VAR_RE.match(body, i + 1)
            if m:
                part_loc = SourceLocation(location.path, line, col)
                name = m.group(0)
                flush()
                stripped = name[2:] if name.startswith("::") else name
                parts.append(VarRef(stripped, part_loc))
                consumed = 1 + len(name)
                track(body[i : i + consumed])
                i += consumed
                continue
        chars.append(c)
        track(c)
        i += 1

    flush()
    return InterpolatedString(tuple(parts), location)


def _matching_brace(body: str, start: int, open_loc: SourceLocation) -> int:
    """Index of the '}' closing the '${' whose content starts at *start*."""
    depth = 1
    quote = ""
    i = start
    while i < len(body):
        c = body[i]
        if c == "\\":
            i += 2
            continue
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
                return i
        i += 1
    raise ParseError(open_loc, "unbalanced '${' in string interpolation")


def _parse_embedded(inner: str, inner_loc: SourceLocation, part_loc: SourceLocation) -> Expr:
    text = inner.strip()
    if not text:
        raise ParseError(part_loc, "empty interpolation")
    stripped = text[2:] if text.startswith("::") else text
    if _BARE_NAME_RE.match(text) and text not in ("true", "false", "undef"):
        return VarRef(stripped, part_loc)
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
