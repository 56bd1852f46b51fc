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
from .lexer import TokenKind, interpolation_end, tokenize
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

# A prefix operator's operand binds tighter than any binary operator.
_PREFIX_POWER = max(power for _, power in _BINARY.values()) + 1

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
    ``pos`` indexes the next token and never moves past ``EOF``.  A token
    is the lexer's ``(kind, text, value, line, column)`` tuple, read by
    index.

    Every path reads ``self.tokens[self.pos]`` and moves ``self.pos``
    itself, the statement level included: a helper call per token read
    costs more than the read.  The one token helper left is ``expect``,
    which checks a token's kind and raises if it is wrong."""

    def __init__(self, tokens: list[tuple], path: str):
        self.tokens = tokens
        self.path = path
        self.pos = 0

    def _loc(self, tok: tuple) -> SourceLocation:
        """Where *tok* starts.  The paths that build nodes write this out,
        a call less per node."""
        return SourceLocation(self.path, tok[3], tok[4])

    def expect(self, kind: str, what: str) -> tuple:
        tok = self.tokens[self.pos]
        if tok[0] is not kind:
            raise ParseError(self._loc(tok), f"expected {what}, found {tok[1] or 'end of input'!r}")
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
        while (kind := tokens[self.pos][0]) is not TokenKind.RBRACE and kind is not TokenKind.EOF:
            stmts.append(self.parse_statement())
        self.expect(TokenKind.RBRACE, "'}'")
        return tuple(stmts)

    def _delimited(self, close: str, what: str, item: Callable[[], object]) -> tuple:
        """Comma-separated *item*s up to and including *close*; the opening
        token is already consumed and a trailing comma is allowed."""
        tokens = self.tokens
        items = []
        while tokens[self.pos][0] is not close:
            items.append(item())
            tok = tokens[self.pos]
            if tok[0] is TokenKind.COMMA:
                self.pos += 1
            elif tok[0] is not close:
                raise ParseError(self._loc(tok), f"expected ',' or '{_CLOSERS[close]}' in {what}")
        self.pos += 1
        return tuple(items)

    # -- statements --------------------------------------------------------

    def parse_statements(self) -> tuple[Statement, ...]:
        tokens = self.tokens
        stmts: list[Statement] = []
        while tokens[self.pos][0] is not TokenKind.EOF:
            stmts.append(self.parse_statement())
        return tuple(stmts)

    def parse_statement(self) -> Statement:
        tokens = self.tokens
        pos = self.pos
        tok = tokens[pos]
        kind = tok[0]
        if kind is TokenKind.VARIABLE:
            self.pos = pos + 1
            self.expect(TokenKind.ASSIGN, "'='")
            value = self.parse_expression()
            return Assignment(tok[1], value, SourceLocation(self.path, tok[3], tok[4]))
        if kind is TokenKind.NAME:
            if tok[1] in _UNSUPPORTED_STATEMENT_WORDS:
                raise UnsupportedConstruct(self._loc(tok), _UNSUPPORTED_STATEMENT_WORDS[tok[1]])
            nxt = tokens[pos + 1][0]
            if nxt is TokenKind.LBRACE:
                return self._resource_decl()
            if nxt is TokenKind.LPAREN:
                call = self.parse_expression()
                return ExprStatement(call, call.loc)
            if nxt in _EXPR_START:
                # e.g. `include apache` -- statement calls without parentheses
                raise UnsupportedConstruct(self._loc(tok), "statement_function_call")
            raise ParseError(self._loc(tok), f"unexpected bare word {tok[1]!r}")
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
        raise ParseError(self._loc(tok), f"expected statement, found {tok[1] or 'end of input'!r}")

    def _class_def(self) -> ClassDef:
        kw = self.tokens[self.pos]
        self.pos += 1
        name = self.expect(TokenKind.NAME, "class name")
        params = self._parameter_list()
        tok = self.tokens[self.pos]
        if tok[0] is TokenKind.NAME and tok[1] == "inherits":
            raise UnsupportedConstruct(self._loc(tok), "class_inheritance")
        return ClassDef(name[1], params, self._block(), SourceLocation(self.path, kw[3], kw[4]))

    def _defined_type(self) -> DefinedTypeDef:
        kw = self.tokens[self.pos]
        self.pos += 1
        name = self.expect(TokenKind.NAME, "defined type name")
        params = self._parameter_list()
        return DefinedTypeDef(name[1], params, self._block(), SourceLocation(self.path, kw[3], kw[4]))

    def _parameter_list(self) -> tuple[Parameter, ...]:
        tokens = self.tokens
        if tokens[self.pos][0] is not TokenKind.LPAREN:
            return ()
        self.pos += 1
        seen: set[str] = set()

        def parameter() -> Parameter:
            tok = tokens[self.pos]
            if tok[0] is TokenKind.TYPE_REF:
                raise UnsupportedConstruct(self._loc(tok), "typed_parameter")
            var = self.expect(TokenKind.VARIABLE, "parameter")
            loc = SourceLocation(self.path, var[3], var[4])
            if var[1] in seen:
                raise ParseError(loc, f"duplicate parameter ${var[1]}")
            seen.add(var[1])
            default = None
            if tokens[self.pos][0] is TokenKind.ASSIGN:
                self.pos += 1
                default = self.parse_expression()
            return Parameter(var[1], default, loc)

        return self._delimited(TokenKind.RPAREN, "parameter list", parameter)

    def _if_statement(self) -> IfStatement:
        tokens = self.tokens
        kw = tokens[self.pos]  # 'if' or 'elsif'
        self.pos += 1
        condition = self.parse_expression()
        then_body = self._block()
        else_body: tuple[Statement, ...] = ()
        kind = tokens[self.pos][0]
        if kind is TokenKind.KW_ELSIF:
            # Desugar `elsif` into a nested if inside the else branch.
            else_body = (self._if_statement(),)
        elif kind is TokenKind.KW_ELSE:
            self.pos += 1
            else_body = self._block()
        return IfStatement(condition, then_body, else_body, SourceLocation(self.path, kw[3], kw[4]))

    def _case_statement(self) -> CaseStatement:
        tokens = self.tokens
        kw = tokens[self.pos]
        self.pos += 1
        scrutinee = self.parse_expression()
        self.expect(TokenKind.LBRACE, "'{'")
        arms: list[CaseArm] = []
        while tokens[self.pos][0] is not TokenKind.RBRACE:
            arm_tok = tokens[self.pos]
            matches: list[Expr] = []
            is_default = False
            while True:
                if tokens[self.pos][0] is TokenKind.KW_DEFAULT:
                    self.pos += 1
                    is_default = True
                else:
                    matches.append(self.parse_expression())
                if tokens[self.pos][0] is not TokenKind.COMMA:
                    break
                self.pos += 1
            self.expect(TokenKind.COLON, "':'")
            arm_loc = SourceLocation(self.path, arm_tok[3], arm_tok[4])
            arms.append(CaseArm(tuple(matches), self._block(), is_default, arm_loc))
        self.expect(TokenKind.RBRACE, "'}'")
        return CaseStatement(scrutinee, tuple(arms), SourceLocation(self.path, kw[3], kw[4]))

    def _resource_decl(self) -> ResourceDecl:
        """``type { title: attributes }``; ``parse_statement`` has seen the
        type name and the ``{``."""
        type_tok = self.tokens[self.pos]
        self.pos += 2
        title = self.parse_expression()
        self.expect(TokenKind.COLON, "':' after resource title")
        loc = SourceLocation(self.path, type_tok[3], type_tok[4])
        return ResourceDecl(type_tok[1], title, self._attribute_list(), loc)

    def _resource_override(self) -> ResourceOverride:
        type_tok = self.tokens[self.pos]
        self.pos += 1
        self.expect(TokenKind.LBRACK, "'['")
        title = self.parse_expression()
        self.expect(TokenKind.RBRACK, "']'")
        self.expect(TokenKind.LBRACE, "'{' for resource override")
        loc = SourceLocation(self.path, type_tok[3], type_tok[4])
        return ResourceOverride(type_tok[1], title, self._attribute_list(), loc)

    def _attribute_list(self) -> tuple[AttributeNode, ...]:
        tokens = self.tokens
        seen: set[str] = set()

        def attribute() -> AttributeNode:
            name_tok = tokens[self.pos]
            kind = name_tok[0]
            if kind is not TokenKind.NAME:
                if kind is TokenKind.SEMI:
                    raise UnsupportedConstruct(self._loc(name_tok), "multi_body_resource")
                self.expect(TokenKind.NAME, "attribute name")  # raises
            name = name_tok[1]
            if name in seen:
                raise ParseError(self._loc(name_tok), f"duplicate attribute {name!r}")
            seen.add(name)
            self.pos += 1
            self.expect(TokenKind.ARROW, "'=>'")
            value = self.parse_expression()
            return AttributeNode(name, value, SourceLocation(self.path, name_tok[3], name_tok[4]))

        return self._delimited(TokenKind.RBRACE, "resource body", attribute)

    # -- expressions -------------------------------------------------------

    def parse_expression(self, min_power: int = 1) -> Expr:
        """Precedence climbing over ``_BINARY``: an operand, then every
        operator that binds at least *min_power*, each taking a right
        operand that binds tighter, so all of them associate left.

        The operand is a prefix ``!`` or ``-`` applied to an operand that
        binds tighter than any binary operator, or a primary with its
        ``[key]`` and ``? { ... }`` suffixes."""
        tokens = self.tokens
        tok = tokens[self.pos]
        kind = tok[0]
        if kind is TokenKind.BANG or kind is TokenKind.MINUS:
            self.pos += 1
            operand = self.parse_expression(_PREFIX_POWER)
            left = UnaryOp(tok[1], operand, SourceLocation(self.path, tok[3], tok[4]))
        else:
            left = self._primary()
            while True:
                tok = tokens[self.pos]
                kind = tok[0]
                if kind is TokenKind.LBRACK:
                    self.pos += 1
                    key = self.parse_expression()
                    self.expect(TokenKind.RBRACK, "']'")
                    left = AccessExpr(left, key, left.loc)
                elif kind is TokenKind.QUESTION:
                    self.pos += 1
                    self.expect(TokenKind.LBRACE, "'{'")
                    arms = self._delimited(TokenKind.RBRACE, "selector", self._selector_arm)
                    left = SelectorExpr(left, arms, SourceLocation(self.path, tok[3], tok[4]))
                else:
                    break
        while True:
            tok = tokens[self.pos]
            entry = _BINARY.get(tok[0])
            if entry is None or entry[1] < min_power:
                return left
            self.pos += 1
            op, power = entry
            right = self.parse_expression(power + 1)
            left = BinaryOp(op, left, right, SourceLocation(self.path, tok[3], tok[4]))

    def _selector_arm(self) -> SelectorArm:
        arm_tok = self.tokens[self.pos]
        match = None
        if arm_tok[0] is TokenKind.KW_DEFAULT:
            self.pos += 1
        else:
            match = self.parse_expression()
        self.expect(TokenKind.ARROW, "'=>'")
        loc = SourceLocation(self.path, arm_tok[3], arm_tok[4])
        return SelectorArm(match, self.parse_expression(), match is None, loc)

    def _hash_entry(self) -> tuple[Expr, Expr]:
        key = self.parse_expression()
        self.expect(TokenKind.ARROW, "'=>'")
        return key, self.parse_expression()

    def _primary(self) -> Expr:
        tokens = self.tokens
        tok = tokens[self.pos]
        kind = tok[0]
        if kind is not TokenKind.EOF:
            self.pos += 1
        if kind is TokenKind.DQ_STRING:  # placed at its body, one column in
            return _interpolated_string(tok[2], SourceLocation(self.path, tok[3], tok[4] + 1))
        loc = SourceLocation(self.path, tok[3], tok[4])
        if kind is TokenKind.SQ_STRING:
            return StrLiteral(tok[2], loc)
        if kind is TokenKind.VARIABLE:
            return VarRef(tok[1], loc)
        if kind is TokenKind.NUMBER:
            return NumberLiteral(tok[2], loc)
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
            if tokens[self.pos][0] is TokenKind.LPAREN:
                self.pos += 1
                args = self._delimited(TokenKind.RPAREN, "call arguments", self.parse_expression)
                return FunctionCall(tok[1], args, loc)
            # Unquoted barewords are strings in Puppet (e.g. `ensure => present`).
            return StrLiteral(tok[1], loc)
        if kind is TokenKind.TYPE_REF:
            if tokens[self.pos][0] is TokenKind.LBRACK:
                self.pos += 1
                title = self.parse_expression()
                self.expect(TokenKind.RBRACK, "']'")
                return ResourceRef(tok[1], title, loc)
            return StrLiteral(tok[1], loc)
        raise ParseError(loc, f"expected expression, found {tok[1] or 'end of input'!r}")


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
    if tokens and tokens[0][0] is TokenKind.NAME and not (
        len(tokens) > 1 and tokens[1][0] is TokenKind.LPAREN
    ):
        _, text, _, line, column = tokens[0]
        name = text[2:] if text.startswith("::") else text
        tokens[0] = (TokenKind.VARIABLE, name, name, line, column)
    parser = _Parser(tokens, inner_loc.path)
    expr = parser.parse_expression()
    parser.expect(TokenKind.EOF, "end of interpolation")
    return expr


def _shift_tokens(tokens: list[tuple], base: SourceLocation) -> None:
    """Rebase token coordinates from the embedded text onto the manifest."""
    for i, (kind, text, value, line, column) in enumerate(tokens):
        if line == 1:
            column = base.column + column - 1
        tokens[i] = (kind, text, value, base.line + line - 1, column)
