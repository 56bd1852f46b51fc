"""Brute-force reachability and findings oracle.

Enumerates every branch combination of a manifest as a linear trace of
definition and use events, then answers reachability queries by scanning
the traces.  Deliberately independent of the dataflow engine under test:
no reaching-definitions machinery, just replaying assignments per trace.

``oracle_findings`` goes on from the traces to the taint-mode findings
without ``pupsec.dataflow`` or ``pupsec.ddg``: the union over all traces of
the flows from a definition to each later use of its value, closed from
the node that stores each candidate's value.
"""

from __future__ import annotations

from itertools import product

from pupsec.classify import AttributeId, ClassifiedExpression
from pupsec.nodes import (
    AccessExpr,
    ArrayLiteral,
    Assignment,
    AttributeNode,
    BinaryOp,
    CaseStatement,
    ClassDef,
    DefinedTypeDef,
    ExprStatement,
    FunctionCall,
    HashLiteral,
    IfStatement,
    InterpolatedString,
    Manifest,
    Parameter,
    ResourceDecl,
    ResourceOverride,
    ResourceRef,
    SelectorExpr,
    UnaryOp,
    VarRef,
)

# An event is ('def', var, id(node)) or ('use', var, id(node)).
Trace = tuple


def _expr_nodes(expr) -> list:
    """Every expression node inside *expr*, *expr* included.  A local walk,
    so the oracle depends neither on ``iter_nodes`` nor on ``uses_of``."""
    out: list = []

    def walk(e):
        out.append(e)
        if isinstance(e, InterpolatedString):
            for p in e.parts:
                if not isinstance(p, str):
                    walk(p)
        elif isinstance(e, FunctionCall):
            for a in e.args:
                walk(a)
        elif isinstance(e, ArrayLiteral):
            for i in e.items:
                walk(i)
        elif isinstance(e, HashLiteral):
            for k, v in e.entries:
                walk(k)
                walk(v)
        elif isinstance(e, AccessExpr):
            walk(e.base)
            walk(e.key)
        elif isinstance(e, SelectorExpr):
            walk(e.scrutinee)
            for arm in e.arms:
                if arm.match is not None:
                    walk(arm.match)
                walk(arm.value)
        elif isinstance(e, ResourceRef):
            walk(e.title)
        elif isinstance(e, BinaryOp):
            walk(e.left)
            walk(e.right)
        elif isinstance(e, UnaryOp):
            walk(e.operand)

    walk(expr)
    return out


def _use_events(expr, node) -> list[tuple]:
    names = {e.name for e in _expr_nodes(expr) if isinstance(e, VarRef)}
    return [("use", name, id(node)) for name in sorted(names)]


def _stmt_traces(stmt) -> list[list[tuple]]:
    if isinstance(stmt, Assignment):
        return [_use_events(stmt.value, stmt) + [("def", stmt.var_name, id(stmt))]]
    if isinstance(stmt, (ClassDef, DefinedTypeDef)):
        prefix: list[tuple] = []
        for param in stmt.parameters:
            if param.default is not None:
                prefix += _use_events(param.default, param)
            prefix.append(("def", param.name, id(param)))
        return [prefix + body for body in _block_traces(stmt.body)]
    if isinstance(stmt, IfStatement):
        prefix = _use_events(stmt.condition, stmt)
        branches = _block_traces(stmt.then_body)
        branches += _block_traces(stmt.else_body) if stmt.else_body else [[]]
        return [prefix + b for b in branches]
    if isinstance(stmt, CaseStatement):
        prefix = _use_events(stmt.scrutinee, stmt)
        for arm in stmt.arms:
            for m in arm.matches:
                prefix += _use_events(m, stmt)
        alternatives: list[list[tuple]] = []
        for arm in stmt.arms:
            alternatives += _block_traces(arm.body)
        if not any(arm.is_default for arm in stmt.arms):
            alternatives.append([])
        return [prefix + a for a in alternatives]
    if isinstance(stmt, (ResourceDecl, ResourceOverride)):
        events = _use_events(stmt.title, stmt)
        for attr in stmt.attributes:
            events += _use_events(attr.value, attr)
        return [events]
    if isinstance(stmt, ExprStatement):
        return [_use_events(stmt.expr, stmt)]
    raise TypeError(f"unknown statement: {stmt!r}")


def _block_traces(statements) -> list[list[tuple]]:
    per_stmt = [_stmt_traces(s) for s in statements]
    out: list[list[tuple]] = []
    for combo in product(*per_stmt) if per_stmt else [()]:
        trace: list[tuple] = []
        for piece in combo:
            trace += piece
        out.append(trace)
    return out


def enumerate_traces(manifest: Manifest) -> list[list[tuple]]:
    return _block_traces(manifest.statements)


def oracle_reaches(traces, def_node, use_node, var: str) -> bool:
    """True when some trace executes the definition and later the use with
    no other definition of the same variable in between."""
    for trace in traces:
        def_pos = None
        for idx, (kind, name, node_id) in enumerate(trace):
            if kind == "def" and name == var:
                def_pos = idx if node_id == id(def_node) else None
            elif (
                kind == "use"
                and name == var
                and node_id == id(use_node)
                and def_pos is not None
            ):
                return True
    return False


def all_def_use_pairs(manifest: Manifest):
    """Every (definition node, use node, variable) pair of the manifest,
    covering assignments and parameters against every kind of use site."""
    defs: list[tuple[object, str]] = []
    uses: list[tuple[object, set[str]]] = []

    def visit(statements):
        for stmt in statements:
            if isinstance(stmt, Assignment):
                defs.append((stmt, stmt.var_name))
                uses.append((stmt, _names_of(stmt.value)))
            elif isinstance(stmt, (ClassDef, DefinedTypeDef)):
                for param in stmt.parameters:
                    defs.append((param, param.name))
                    if param.default is not None:
                        uses.append((param, _names_of(param.default)))
                visit(stmt.body)
            elif isinstance(stmt, IfStatement):
                uses.append((stmt, _names_of(stmt.condition)))
                visit(stmt.then_body)
                visit(stmt.else_body)
            elif isinstance(stmt, CaseStatement):
                names = _names_of(stmt.scrutinee)
                for arm in stmt.arms:
                    for m in arm.matches:
                        names |= _names_of(m)
                uses.append((stmt, names))
                for arm in stmt.arms:
                    visit(arm.body)
            elif isinstance(stmt, (ResourceDecl, ResourceOverride)):
                uses.append((stmt, _names_of(stmt.title)))
                for attr in stmt.attributes:
                    uses.append((attr, _names_of(attr.value)))
            elif isinstance(stmt, ExprStatement):
                uses.append((stmt, _names_of(stmt.expr)))

    visit(manifest.statements)
    for def_node, var in defs:
        for use_node, names in uses:
            if var in names:
                yield def_node, use_node, var


def _names_of(expr) -> set[str]:
    return {name for _, name, _ in _use_events(expr, expr)}


def _stores(manifest: Manifest, resources) -> tuple[dict, dict]:
    """``holder_of``: the id of each call inside an assignment's value, a
    parameter's default or an attribute's value, mapped to that node, where
    the call's result is stored.  ``sink_of``: the id of each attribute
    node, mapped to its ``AttributeId``.  *resources* is the manifest's
    ``MembershipIndex.resource_list``, whose entries name the resources in
    textual order; only their titles are read from it."""
    holder_of: dict[int, object] = {}
    sink_of: dict[int, AttributeId] = {}
    found = []

    def store(expr, holder):
        for e in _expr_nodes(expr):
            if isinstance(e, FunctionCall):
                holder_of[id(e)] = holder

    def visit(statements):
        for stmt in statements:
            if isinstance(stmt, Assignment):
                store(stmt.value, stmt)
            elif isinstance(stmt, (ClassDef, DefinedTypeDef)):
                for param in stmt.parameters:
                    if param.default is not None:
                        store(param.default, param)
                visit(stmt.body)
            elif isinstance(stmt, IfStatement):
                visit(stmt.then_body)
                visit(stmt.else_body)
            elif isinstance(stmt, CaseStatement):
                for arm in stmt.arms:
                    visit(arm.body)
            elif isinstance(stmt, (ResourceDecl, ResourceOverride)):
                info = resources[len(found)]
                assert (info.resource_type, info.ordinal) == (stmt.type_name, len(found))
                found.append(stmt)
                for attr in stmt.attributes:
                    store(attr.value, attr)
                    sink_of[id(attr)] = AttributeId(
                        manifest.path, stmt.type_name, info.resource_title, attr.name, info.ordinal
                    )

    visit(manifest.statements)
    assert len(found) == len(resources)
    return holder_of, sink_of


def oracle_findings(manifest: Manifest, candidates, resources) -> dict[tuple, int]:
    """The (category, weakness location, sink) of every taint-mode finding
    of *manifest*, from its pattern *candidates* (``detect_candidates``)
    and its *resources* (``MembershipIndex.resource_list``), mapped to the
    number of steps of its shortest witness path.

    A definition flows into a use when some trace runs the use after it
    with no other definition of the variable between.  A candidate's value
    is stored by the assignment or parameter it is the value of, or by the
    attribute it is written to (a call's value by the node whose expression
    holds the call); a value stored nowhere else reaches no sink.  The sinks
    of a candidate are the attributes among the uses that the flows reach
    from the node that stores its value, and that attribute itself.  A
    witness path has a step for the candidate, one for each definition the
    value passes through, and one for the sink."""
    flows: dict[int, set[int]] = {}  # id of a defining node -> ids of the nodes using it
    for trace in enumerate_traces(manifest):
        current: dict[str, int] = {}
        for kind, name, node_id in trace:
            if kind == "def":
                current[name] = node_id
            elif name in current:
                flows.setdefault(current[name], set()).add(node_id)
    holder_of, sink_of = _stores(manifest, resources)
    out: dict[tuple, int] = {}
    for candidate in candidates:
        element = candidate.element
        if isinstance(element, ClassifiedExpression):
            holder = element.node
        else:
            holder = holder_of.get(id(element.call))
        if isinstance(holder, AttributeNode):
            out[candidate.category, candidate.location, sink_of[id(holder)]] = 2
        elif isinstance(holder, (Assignment, Parameter)):
            hops = {id(holder): 0}
            queue = [id(holder)]
            for n in queue:  # breadth first, so each count is the fewest
                for m in flows.get(n, ()):
                    if m not in hops:
                        hops[m] = hops[n] + 1
                        queue.append(m)
            out.update(
                ((candidate.category, candidate.location, sink_of[n]), count + 1)
                for n, count in hops.items()
                if n in sink_of
            )
    return out
