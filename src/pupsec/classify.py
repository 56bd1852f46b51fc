"""Expression classification and attribute-to-resource membership.

Every assigned value in a manifest is kept as the text the rules read (a
plain string's text, or an interpolation's literal fragments) together
with its holder node: a variable assignment, a resource attribute, or a
class/defined-type parameter.  Attributes additionally get a corpus-unique
identifier recording which resource and manifest they belong to.  A
classified entry and a call site keep their AST nodes, and read their
place and a call's name from them.

``build_membership_index`` is the one walk over a manifest's statements,
and it walks each expression at most once: a leaf, a variable or an
interpolated string of text and variables gives its names without a walk.
Its index keeps the walk's table of slots, which ``classify_expressions``,
``collect_function_calls`` and the reaching-definitions analysis read
instead of walking again.  A slot's holder node is the one record of what
its value feeds: an ``Assignment`` or ``Parameter`` defines a variable
that passes it on, an ``AttributeNode`` is a sink, and any other holder
feeds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Union

from .nodes import (
    Assignment,
    AttributeNode,
    BoolLiteral,
    CaseStatement,
    ClassDef,
    DefinedTypeDef,
    Expr,
    ExprStatement,
    FunctionCall,
    IfStatement,
    InterpolatedString,
    Manifest,
    NumberLiteral,
    Parameter,
    ResourceDecl,
    ResourceOverride,
    SourceLocation,
    Statement,
    StrLiteral,
    UndefLiteral,
    VarRef,
    iter_nodes,
)
from .printer import expr_text


# --- plain strings ---------------------------------------------------------

_TEXT_ONLY = frozenset({str})


def string_text(expr: Expr) -> Optional[str]:
    """The text of a string with nothing embedded: a single-quoted literal,
    or a double-quoted one whose parts are all text.  None otherwise."""
    kind = type(expr)
    if kind is StrLiteral:
        return expr.value
    if kind is InterpolatedString and _TEXT_ONLY.issuperset(map(type, expr.parts)):
        return "".join(expr.parts)
    return None


# --- identifiers -----------------------------------------------------------


@dataclass(slots=True, unsafe_hash=True)
class AttributeId:
    manifest_path: str
    resource_type: str
    resource_title: str
    attribute_name: str
    ordinal: int  # 0-based index of the resource within the manifest

    @property
    def resource_key(self) -> tuple[str, str, str, int]:
        return (self.manifest_path, self.resource_type, self.resource_title, self.ordinal)


@dataclass(slots=True, unsafe_hash=True)
class ResourceInfo:
    manifest_path: str
    resource_type: str
    resource_title: str
    ordinal: int
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class MembershipIndex:
    """What one walk over a manifest's statements found: its resources and,
    left out of comparison, its slots."""

    resource_list: tuple[ResourceInfo, ...]
    # the walk's slots in textual order; see ``_Collector``
    expressions: tuple[tuple, ...] = field(compare=False, repr=False)


@dataclass(slots=True, unsafe_hash=True)
class ClassifiedExpression:
    """One assigned value; its place is ``node.loc``.  The node is compared
    and shown, so entries alike in all else but their place differ.
    ``value`` is the text of a plain string (see ``string_text``), else the
    literal text fragments the value rules scan: an interpolation's text
    parts, and ``()`` for any other expression."""

    attribute_id: Optional[AttributeId]  # set exactly when the node is an attribute
    value: Union[str, tuple[str, ...]]
    node: object  # Assignment | AttributeNode | Parameter

    @property
    def name(self) -> str:
        """The variable, attribute or parameter name, read from the holder."""
        node = self.node
        return node.var_name if type(node) is Assignment else node.name


@dataclass(slots=True, unsafe_hash=True)
class FunctionCallSite:
    """One call; its name and place are ``call.name`` and ``call.loc``.  The
    call is compared and shown, so calls alike in all else but their place
    differ."""

    attribute_id: Optional[AttributeId]  # set exactly when the holder is an attribute
    node: object = field(compare=False, repr=False)  # the node holding the call
    call: FunctionCall


# --- collection walk --------------------------------------------------------


def _title_text(title: Expr) -> str:
    text = string_text(title)
    return expr_text(title) if text is None else text


# Branch markers, before the first arm of an ``if`` or ``case``, between arms
# and after the last; a missing ``else`` or ``default`` is one more arm.  Its
# slot ``(marker, None, None, (), ())`` has no attribute, holder, names or calls.
OPEN, NEXT, JOIN = object(), object(), object()

# ``_Collector._slot`` walks no expression of a type that holds no node (a
# parameter without a default has the expression None), and no interpolated
# string whose parts are all text and variables: its names are its parts'.
_LEAVES = frozenset({StrLiteral, NumberLiteral, BoolLiteral, UndefLiteral, type(None)})
_TEXT_AND_VARIABLES = frozenset({str, VarRef})

# The holders of an assigned value; any other holder is a statement whose
# expression feeds nothing.
_VALUE_HOLDERS = frozenset({Assignment, AttributeNode, Parameter})


class _Collector:
    """The walk over the statements of a manifest; only
    ``build_membership_index`` runs it.  ``exprs`` is its table in textual
    order, the order of ``classify_expressions``' entries.  Each slot is
    ``(expression, attribute id, holder node, names, calls)``: the holder
    is the statement, attribute or parameter the use belongs to, and says
    what the value feeds (see the module docstring); the attribute id is
    the holder's when it is an ``AttributeNode``, else None; names and
    calls are the ``VarRef`` names and ``FunctionCall`` nodes that a walk
    of the expression finds, in its order (see ``_LEAVES`` for the
    expressions not walked).  A parameter without a default has no
    expression."""

    def __init__(self, manifest: Manifest):
        self.manifest = manifest
        self.resources: list[ResourceInfo] = []
        self.exprs: list[tuple] = []
        self._walk(manifest.statements)

    def _slot(self, expr, attr_id, node) -> None:
        kind = type(expr)
        if kind is VarRef:
            names, calls = (expr.name,), ()
        elif kind in _LEAVES:
            names = calls = ()
        elif kind is InterpolatedString and _TEXT_AND_VARIABLES.issuperset(map(type, expr.parts)):
            names, calls = tuple([p.name for p in expr.parts if type(p) is VarRef]), ()
        else:
            names, calls = [], []
            for n in iter_nodes(expr):
                if isinstance(n, VarRef):
                    names.append(n.name)
                elif isinstance(n, FunctionCall):
                    calls.append(n)
            names, calls = tuple(names), tuple(calls)
        self.exprs.append((expr, attr_id, node, names, calls))

    def _walk(self, statements: tuple[Statement, ...]) -> None:
        for stmt in statements:
            if isinstance(stmt, Assignment):
                self._slot(stmt.value, None, stmt)
            elif isinstance(stmt, (ResourceDecl, ResourceOverride)):
                self._resource(stmt)
            elif isinstance(stmt, (ClassDef, DefinedTypeDef)):
                for param in stmt.parameters:
                    self._slot(param.default, None, param)
                self._walk(stmt.body)
            elif isinstance(stmt, IfStatement):
                self._slot(stmt.condition, None, stmt)
                self.exprs.append((OPEN, None, None, (), ()))
                self._walk(stmt.then_body)
                self.exprs.append((NEXT, None, None, (), ()))
                self._walk(stmt.else_body)
                self.exprs.append((JOIN, None, None, (), ()))
            elif isinstance(stmt, CaseStatement):
                self._slot(stmt.scrutinee, None, stmt)
                marker = OPEN
                for arm in stmt.arms:
                    self.exprs.append((marker, None, None, (), ()))
                    marker = NEXT
                    for m in arm.matches:
                        self._slot(m, None, stmt)
                    self._walk(arm.body)
                if not any(arm.is_default for arm in stmt.arms):
                    self.exprs.append((marker, None, None, (), ()))  # no arm may match at all
                self.exprs.append((JOIN, None, None, (), ()))
            elif isinstance(stmt, ExprStatement):
                self._slot(stmt.expr, None, stmt)

    def _resource(self, stmt) -> None:
        ordinal = len(self.resources)
        info = ResourceInfo(
            manifest_path=self.manifest.path,
            resource_type=stmt.type_name,
            resource_title=_title_text(stmt.title),
            ordinal=ordinal,
            loc=stmt.loc,
        )
        self.resources.append(info)
        self._slot(stmt.title, None, stmt)
        for attr in stmt.attributes:
            attr_id = AttributeId(
                manifest_path=info.manifest_path,
                resource_type=info.resource_type,
                resource_title=info.resource_title,
                attribute_name=attr.name,
                ordinal=ordinal,
            )
            self._slot(attr.value, attr_id, attr)


# --- public operations ------------------------------------------------------


def classify_expressions(index: MembershipIndex) -> list[ClassifiedExpression]:
    """One classified entry per variable assignment, resource attribute,
    and class/defined-type parameter with a default value, in textual
    order."""
    out: list[ClassifiedExpression] = []
    for expr, attr_id, node, _, _ in index.expressions:
        if type(node) not in _VALUE_HOLDERS or expr is None:
            continue
        value = string_text(expr)
        if value is None:  # an interpolation's text parts; no text for anything else
            value = (tuple([p for p in expr.parts if type(p) is str])
                     if type(expr) is InterpolatedString else ())
        out.append(ClassifiedExpression(attr_id, value, node))
    return out


def collect_function_calls(index: MembershipIndex) -> list[FunctionCallSite]:
    """All function-call sites in the indexed manifest, each with the node
    holding it, which says what receives the call result."""
    return [
        FunctionCallSite(attr_id, node, call)
        for _, attr_id, node, _, calls in index.expressions
        for call in calls
    ]


def build_membership_index(manifest: Manifest) -> MembershipIndex:
    """Every resource of the manifest, and the slot table that
    ``classify_expressions``, ``collect_function_calls`` and
    ``DataflowAnalysis`` read."""
    collector = _Collector(manifest)
    return MembershipIndex(
        resource_list=tuple(collector.resources),
        expressions=tuple(collector.exprs),
    )
