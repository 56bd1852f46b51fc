"""Def-use reachability over one manifest.

A definition of ``$v`` reaches a later use of ``$v`` when at least one
branch-consistent path between them contains no other assignment to
``$v`` (may-reach).  A reassignment on every path kills the definition.
Class and defined-type bodies are analyzed inline at their declaration
point: the manifest shares one flat variable namespace, with parameters
defined just before the body.  There are no loops in the subset, so
definition-use edges always point forward in textual order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .nodes import (
    Assignment,
    CaseStatement,
    ClassDef,
    DefinedTypeDef,
    Expr,
    ExprStatement,
    IfStatement,
    Manifest,
    Parameter,
    ResourceDecl,
    ResourceOverride,
    SourceLocation,
    Statement,
    VarRef,
    iter_nodes,
)


def uses_of(expr: Expr) -> set[str]:
    """All variable names referenced anywhere inside *expr*."""
    return {node.name for node in iter_nodes(expr) if isinstance(node, VarRef)}


@dataclass(frozen=True)
class Definition:
    index: int
    var: str
    node: Union[Assignment, Parameter]
    loc: SourceLocation
    is_parameter: bool


@dataclass
class UseRecord:
    node: object  # statement or AttributeNode the use belongs to
    kind: str  # 'rhs' | 'attribute' | 'condition' | 'scrutinee' | 'title' | 'stmt' | 'default'
    loc: SourceLocation
    reaching: dict[str, frozenset[int]]  # var -> definition indices that may reach


_State = dict[str, frozenset[int]]


def _merge(*states: _State) -> _State:
    merged: _State = {}
    for state in states:
        for var, defs in state.items():
            merged[var] = merged.get(var, frozenset()) | defs
    return merged


class DataflowAnalysis:
    """Reaching-definitions analysis for a single manifest."""

    def __init__(self, manifest: Manifest):
        self.manifest = manifest
        self.definitions: list[Definition] = []
        self.use_records: list[UseRecord] = []
        self._def_by_node: dict[int, Definition] = {}
        self._uses_by_node: dict[int, UseRecord] = {}
        self._walk(manifest.statements, {})

    # -- construction --------------------------------------------------

    def _define(self, var: str, node, loc, state: _State, is_parameter: bool) -> None:
        """Record a definition and make it the only one of *var* in
        *state*, in place: branches copy the state before they diverge."""
        d = Definition(len(self.definitions), var, node, loc, is_parameter)
        self.definitions.append(d)
        self._def_by_node[id(node)] = d
        state[var] = frozenset((d.index,))

    def _use(self, expr, node, kind: str, loc, state: _State) -> None:
        names = uses_of(expr)
        record = self._uses_by_node.get(id(node))
        if record is None:
            record = UseRecord(node, kind, loc, {})
            self.use_records.append(record)
            self._uses_by_node[id(node)] = record
        for name in names:
            reaching = state.get(name, frozenset())
            record.reaching[name] = record.reaching.get(name, frozenset()) | reaching

    def _walk(self, statements: tuple[Statement, ...], state: _State) -> _State:
        for stmt in statements:
            state = self._walk_statement(stmt, state)
        return state

    def _walk_statement(self, stmt: Statement, state: _State) -> _State:
        if isinstance(stmt, Assignment):
            # RHS uses see the state before the assignment, so a
            # self-referencing definition reads the previous one.
            self._use(stmt.value, stmt, "rhs", stmt.loc, state)
            self._define(stmt.var_name, stmt, stmt.loc, state, is_parameter=False)
            return state
        if isinstance(stmt, (ClassDef, DefinedTypeDef)):
            for param in stmt.parameters:
                if param.default is not None:
                    self._use(param.default, param, "default", param.loc, state)
                self._define(param.name, param, param.loc, state, is_parameter=True)
            return self._walk(stmt.body, state)
        if isinstance(stmt, IfStatement):
            self._use(stmt.condition, stmt, "condition", stmt.loc, state)
            then_out = self._walk(stmt.then_body, dict(state))
            else_out = self._walk(stmt.else_body, dict(state)) if stmt.else_body else state
            return _merge(then_out, else_out)
        if isinstance(stmt, CaseStatement):
            self._use(stmt.scrutinee, stmt, "scrutinee", stmt.loc, state)
            for arm in stmt.arms:
                for m in arm.matches:
                    self._use(m, stmt, "scrutinee", stmt.loc, state)
            outs = [self._walk(arm.body, dict(state)) for arm in stmt.arms]
            if not any(arm.is_default for arm in stmt.arms):
                outs.append(state)  # no arm may match at all
            return _merge(*outs) if outs else state
        if isinstance(stmt, (ResourceDecl, ResourceOverride)):
            self._use(stmt.title, stmt, "title", stmt.loc, state)
            for attr in stmt.attributes:
                self._use(attr.value, attr, "attribute", attr.loc, state)
            return state
        if isinstance(stmt, ExprStatement):
            self._use(stmt.expr, stmt, "stmt", stmt.loc, state)
            return state
        raise TypeError(f"unknown statement node: {stmt!r}")

    # -- queries ---------------------------------------------------------

    def definition_for(self, node) -> Union[Definition, None]:
        return self._def_by_node.get(id(node))

    def reaches(self, def_node, use_node) -> bool:
        """Whether the definition made by *def_node* may reach the uses of
        its variable at *use_node*."""
        definition = self._def_by_node.get(id(def_node))
        if definition is None:
            raise ValueError("def_node does not define a variable in this manifest")
        record = self._uses_by_node.get(id(use_node))
        if record is None:
            return False
        return definition.index in record.reaching.get(definition.var, frozenset())


def reaches(def_stmt, use_site, manifest: Manifest) -> bool:
    """Convenience wrapper: build the analysis and answer one query.

    *def_stmt* is an Assignment (or Parameter) node of *manifest*;
    *use_site* is a statement or resource attribute node."""
    return DataflowAnalysis(manifest).reaches(def_stmt, use_site)
