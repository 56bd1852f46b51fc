"""Def-use reachability over one manifest.

A definition of ``$v`` reaches a later use of ``$v`` when at least one
branch-consistent path between them contains no other assignment to
``$v`` (may-reach).  A reassignment on every path kills the definition.
Class and defined-type bodies are analyzed inline at their declaration
point: the manifest shares one flat variable namespace, with parameters
defined just before the body.  There are no loops in the subset, so
definition-use edges always point forward in textual order.

``if`` and ``case`` share one join: each arm walks its own overlay of the
state, then each variable that some arm wrote gets the union over all arms
of its value there.  A missing ``else`` or ``default`` is one more, empty, arm.

The result is one def-use map: each ``UseRecord`` holds the indices of
every definition that may reach a use at its node.  A definition index
names its variable, so the set needs no per-variable split, and the DDG
is built from these sets alone.
"""

from __future__ import annotations

from collections import ChainMap
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


@dataclass(slots=True, unsafe_hash=True)
class Definition:
    index: int
    var: str
    node: Union[Assignment, Parameter]
    loc: SourceLocation


@dataclass(slots=True)
class UseRecord:
    node: object  # statement or AttributeNode the use belongs to
    kind: str  # 'rhs' | 'attribute' | 'condition' | 'scrutinee' | 'title' | 'stmt' | 'default'
    reaching: set[int]  # indices of the definitions that may reach a use here


_State = ChainMap[str, frozenset[int]]


class DataflowAnalysis:
    """Reaching-definitions analysis for a single manifest."""

    def __init__(self, manifest: Manifest):
        self.manifest = manifest
        self.definitions: list[Definition] = []
        self.use_records: list[UseRecord] = []
        self._def_by_node: dict[int, Definition] = {}
        self._uses_by_node: dict[int, UseRecord] = {}
        state: _State = ChainMap()
        for stmt in manifest.statements:
            self._walk_statement(stmt, state)

    # -- construction --------------------------------------------------

    def _define(self, var: str, node, state: _State) -> None:
        """Record a definition and make it the only one of *var* in *state*."""
        d = Definition(len(self.definitions), var, node, node.loc)
        self.definitions.append(d)
        self._def_by_node[id(node)] = d
        state[var] = frozenset((d.index,))

    def _use(self, expr, node, kind: str, state: _State) -> None:
        record = self._uses_by_node.get(id(node))
        if record is None:
            record = self._uses_by_node[id(node)] = UseRecord(node, kind, set())
            self.use_records.append(record)
        for name in uses_of(expr):
            # ChainMap.get would test every layer through a Python-level any()
            for layer in state.maps:
                reaching = layer.get(name)
                if reaching is not None:
                    record.reaching.update(reaching)
                    break

    def _walk_statement(self, stmt: Statement, state: _State) -> None:
        if isinstance(stmt, Assignment):
            # RHS uses see the state before the assignment, so a
            # self-referencing definition reads the previous one.
            self._use(stmt.value, stmt, "rhs", state)
            self._define(stmt.var_name, stmt, state)
        elif isinstance(stmt, (ClassDef, DefinedTypeDef)):
            for param in stmt.parameters:
                if param.default is not None:
                    self._use(param.default, param, "default", state)
                self._define(param.name, param, state)
            for inner in stmt.body:
                self._walk_statement(inner, state)
        elif isinstance(stmt, IfStatement):
            self._use(stmt.condition, stmt, "condition", state)
            self._branch((stmt.then_body, stmt.else_body), state)
        elif isinstance(stmt, CaseStatement):
            self._use(stmt.scrutinee, stmt, "scrutinee", state)
            for arm in stmt.arms:
                for m in arm.matches:
                    self._use(m, stmt, "scrutinee", state)
            bodies = [arm.body for arm in stmt.arms]
            if not any(arm.is_default for arm in stmt.arms):
                bodies.append(())  # no arm may match at all
            self._branch(bodies, state)
        elif isinstance(stmt, (ResourceDecl, ResourceOverride)):
            self._use(stmt.title, stmt, "title", state)
            for attr in stmt.attributes:
                self._use(attr.value, attr, "attribute", state)
        elif isinstance(stmt, ExprStatement):
            self._use(stmt.expr, stmt, "stmt", state)
        else:
            raise TypeError(f"unknown statement node: {stmt!r}")

    def _branch(self, bodies, state: _State) -> None:
        """Walk each body over a flat new_child() overlay of *state* (a nested
        ChainMap({}, state) recurses per enclosing branch), then join."""
        arms = [state.new_child() for _ in bodies]
        for body, arm in zip(bodies, arms):
            for stmt in body:
                self._walk_statement(stmt, arm)
        for var in set().union(*(arm.maps[0] for arm in arms)):
            state[var] = frozenset().union(*(arm.get(var, ()) for arm in arms))

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
        return definition.index in record.reaching


def reaches(def_stmt, use_site, manifest: Manifest) -> bool:
    """Convenience wrapper: build the analysis and answer one query.

    *def_stmt* is an Assignment (or Parameter) node of *manifest*;
    *use_site* is a statement or resource attribute node."""
    return DataflowAnalysis(manifest).reaches(def_stmt, use_site)
