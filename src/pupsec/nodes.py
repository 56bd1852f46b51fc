"""AST node types for the supported Puppet manifest subset.

All nodes are slotted value records: equality and hashing go by field
values, and no instance carries a ``__dict__``.  They are not frozen, but
no pipeline stage assigns to a node once the parser has built it;
``test_pipeline_never_mutates_its_inputs`` in ``tests/test_records.py``
pins that.  Child sequences are tuples so structural equality (``==``)
works on whole subtrees.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Union


@dataclass(slots=True, unsafe_hash=True)
class SourceLocation:
    path: str
    line: int  # 1-based
    column: int  # 1-based


class Expr:
    """Marker base class for expression nodes."""

    __slots__ = ()


class Statement:
    """Marker base class for statement nodes."""

    __slots__ = ()


# --- expressions ---------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class StrLiteral(Expr):
    value: str
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class InterpolatedString(Expr):
    # Parts are literal text fragments (plain str, escapes already resolved)
    # or embedded expressions.
    parts: tuple[Union[str, Expr], ...]
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class VarRef(Expr):
    name: str  # without the '$' sigil, leading '::' stripped
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class FunctionCall(Expr):
    name: str
    args: tuple[Expr, ...]
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class ArrayLiteral(Expr):
    items: tuple[Expr, ...]
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class HashLiteral(Expr):
    entries: tuple[tuple[Expr, Expr], ...]
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class AccessExpr(Expr):
    base: Expr
    key: Expr
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class UndefLiteral(Expr):
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class BoolLiteral(Expr):
    value: bool
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class NumberLiteral(Expr):
    value: Union[int, float]
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class SelectorArm:
    match: Union[Expr, None]  # None for the 'default' arm
    value: Expr
    is_default: bool
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class SelectorExpr(Expr):
    scrutinee: Expr
    arms: tuple[SelectorArm, ...]
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class ResourceRef(Expr):
    """A reference to a declared resource, e.g. ``File['motd']``."""

    type_name: str
    title: Expr
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class BinaryOp(Expr):
    op: str
    left: Expr
    right: Expr
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class UnaryOp(Expr):
    op: str
    operand: Expr
    loc: SourceLocation


# --- statements ----------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class Assignment(Statement):
    var_name: str
    value: Expr
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class AttributeNode:
    """One ``name => value`` pair inside a resource body."""

    name: str
    value: Expr
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class ResourceDecl(Statement):
    type_name: str
    title: Expr
    attributes: tuple[AttributeNode, ...]
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class ResourceOverride(Statement):
    """Attribute override on a resource reference, e.g. ``File['x'] {...}``."""

    type_name: str
    title: Expr
    attributes: tuple[AttributeNode, ...]
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class Parameter:
    name: str
    default: Union[Expr, None]
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class ClassDef(Statement):
    name: str
    parameters: tuple[Parameter, ...]
    body: tuple[Statement, ...]
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class DefinedTypeDef(Statement):
    name: str
    parameters: tuple[Parameter, ...]
    body: tuple[Statement, ...]
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class IfStatement(Statement):
    condition: Expr
    then_body: tuple[Statement, ...]
    else_body: tuple[Statement, ...]  # empty when there is no else branch
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class CaseArm:
    matches: tuple[Expr, ...]
    body: tuple[Statement, ...]
    is_default: bool
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class CaseStatement(Statement):
    scrutinee: Expr
    arms: tuple[CaseArm, ...]
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class ExprStatement(Statement):
    expr: Expr
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class Manifest:
    path: str
    statements: tuple[Statement, ...]
    raw_text: str


# --- helpers -------------------------------------------------------------


# One entry per node type that can hold other nodes; every other type is
# a leaf.  Optional children (a selector's default arm, a parameter
# without a default) are left out rather than given as None.
_CHILDREN = {
    InterpolatedString: lambda n: tuple(p for p in n.parts if not isinstance(p, str)),
    FunctionCall: lambda n: n.args,
    ArrayLiteral: lambda n: n.items,
    HashLiteral: lambda n: tuple(e for pair in n.entries for e in pair),
    AccessExpr: lambda n: (n.base, n.key),
    SelectorArm: lambda n: (n.value,) if n.match is None else (n.match, n.value),
    SelectorExpr: lambda n: (n.scrutinee, *n.arms),
    ResourceRef: lambda n: (n.title,),
    BinaryOp: lambda n: (n.left, n.right),
    UnaryOp: lambda n: (n.operand,),
    Assignment: lambda n: (n.value,),
    AttributeNode: lambda n: (n.value,),
    ResourceDecl: lambda n: (n.title, *n.attributes),
    ResourceOverride: lambda n: (n.title, *n.attributes),
    Parameter: lambda n: () if n.default is None else (n.default,),
    ClassDef: lambda n: (*n.parameters, *n.body),
    DefinedTypeDef: lambda n: (*n.parameters, *n.body),
    IfStatement: lambda n: (n.condition, *n.then_body, *n.else_body),
    CaseArm: lambda n: (*n.matches, *n.body),
    CaseStatement: lambda n: (n.scrutinee, *n.arms),
    ExprStatement: lambda n: (n.expr,),
    Manifest: lambda n: n.statements,
}


def children(node) -> tuple:
    """The direct child nodes of *node*, in field order.

    Children are expressions, statements and the attribute, parameter,
    selector-arm and case-arm records; text fragments of an interpolated
    string, names, literal values and locations are not nodes.  A leaf,
    ``None`` or any non-node value has no children."""
    get = _CHILDREN.get(type(node))
    return () if get is None else get(node)


def iter_nodes(obj):
    """Yield every AST node (statements, expressions, attribute/parameter
    records) in *obj*, pre-order: a Manifest's statements and their
    descendants, or any other node and its descendants."""
    if isinstance(obj, Manifest):
        stack = list(reversed(obj.statements))
    else:
        stack = [] if obj is None else [obj]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(children(node)))


def structurally_equal(a, b) -> bool:
    """Structural AST equality that ignores source locations.

    Used by round-trip tests, where the pretty-printed text has different
    line/column coordinates than the original."""
    if isinstance(a, Manifest) and isinstance(b, Manifest):
        return structurally_equal(a.statements, b.statements)
    if type(a) is not type(b):
        return False
    if isinstance(a, tuple):
        return len(a) == len(b) and all(
            structurally_equal(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, SourceLocation):
        return True
    if isinstance(a, (str, int, float, bool)) or a is None:
        return a == b
    return all(
        structurally_equal(getattr(a, f.name), getattr(b, f.name))
        for f in fields(a)
        if f.name != "loc"
    )
