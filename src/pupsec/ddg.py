"""Per-manifest data dependence graphs and propagation confirmation.

A graph is only built when it would contain at least one taint node and
one sink node; a candidate whose value never flows into any resource
attribute therefore produces no graph and no finding, which is exactly
the false-positive filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .classify import (
    AttributeId,
    AttributeOwner,
    FunctionCallSite,
    MembershipIndex,
    ParameterOwner,
    VariableOwner,
)
from .dataflow import DataflowAnalysis
from .nodes import Manifest, SourceLocation
from .report import Finding, PathStep
from .rules import WeaknessCandidate


@dataclass(slots=True, unsafe_hash=True)
class TaintNode:
    candidate: WeaknessCandidate
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class IntermediateNode:
    var_name: str
    loc: SourceLocation


@dataclass(slots=True, unsafe_hash=True)
class SinkNode:
    attribute: AttributeId
    loc: SourceLocation


DdgNode = Union[TaintNode, IntermediateNode, SinkNode]


@dataclass(slots=True, unsafe_hash=True)
class DataDependenceGraph:
    manifest_path: str
    nodes: tuple[DdgNode, ...]
    edges: tuple[tuple[int, int], ...]  # (from, to): from's value is used to define to


@dataclass(slots=True)
class PropagationResult:
    taint: WeaknessCandidate
    paths: dict[AttributeId, tuple[DdgNode, ...]]  # one witness path per sink


def _seed_for(candidate: WeaknessCandidate, analysis: DataflowAnalysis):
    """Where a candidate's tainted value lives: ('def', Definition),
    ('attr', attribute node), or None when the value is never stored."""
    element = candidate.element
    if isinstance(element, FunctionCallSite):
        owner, node = element.owner, element.owner_node
    else:
        owner, node = element.owner, element.node
    if owner is None:
        return None
    if isinstance(owner, AttributeOwner):
        return ("attr", node)
    if isinstance(owner, (VariableOwner, ParameterOwner)):
        definition = analysis.definition_for(node)
        return ("def", definition) if definition is not None else None
    return None


def build_ddg(
    manifest: Manifest,
    candidates: list[WeaknessCandidate],
    index: MembershipIndex,
) -> Optional[DataDependenceGraph]:
    """Build the manifest's DDG, or return None when no taint or no sink
    node would exist."""
    if not candidates:
        return None
    analysis = DataflowAnalysis(manifest)
    attr_id_of = {id(node): attr_id for node, attr_id in index.attribute_nodes}
    attr_node_of = {attr_id: node for node, attr_id in index.attribute_nodes}

    # Definition-level def-use adjacency.
    def_succ: dict[int, set[int]] = {}
    def_attrs: dict[int, set[AttributeId]] = {}
    for record in analysis.use_records:
        if record.kind in ("rhs", "default"):
            target = analysis.definition_for(record.node)
            for reaching in record.reaching.values():
                for i in reaching:
                    def_succ.setdefault(i, set()).add(target.index)
        elif record.kind == "attribute":
            attr_id = attr_id_of[id(record.node)]
            for reaching in record.reaching.values():
                for i in reaching:
                    def_attrs.setdefault(i, set()).add(attr_id)

    seeds = [(c, _seed_for(c, analysis)) for c in candidates]
    seed_defs = {seed[1].index for _, seed in seeds if seed is not None and seed[0] == "def"}

    # Definitions strictly downstream of any tainted definition.
    downstream: set[int] = set()
    frontier = list(seed_defs)
    while frontier:
        i = frontier.pop()
        for j in def_succ.get(i, ()):
            if j not in downstream:
                downstream.add(j)
                frontier.append(j)

    sink_ids: set[AttributeId] = set()
    for i in seed_defs | downstream:
        sink_ids |= def_attrs.get(i, set())
    for _, seed in seeds:
        if seed is not None and seed[0] == "attr":
            sink_ids.add(attr_id_of[id(seed[1])])
    if not sink_ids:
        return None

    defs = analysis.definitions
    nodes: list[DdgNode] = []
    taint_idx: dict[int, int] = {}  # candidate position -> node index
    for pos, (candidate, _) in enumerate(seeds):
        taint_idx[pos] = len(nodes)
        nodes.append(TaintNode(candidate, candidate.location))
    inter_idx: dict[int, int] = {}  # definition index -> node index
    for i in sorted(downstream, key=lambda i: (defs[i].loc.line, defs[i].loc.column)):
        inter_idx[i] = len(nodes)
        nodes.append(IntermediateNode(defs[i].var, defs[i].loc))
    sink_idx: dict[AttributeId, int] = {}
    sorted_sinks = sorted(
        sink_ids, key=lambda a: (attr_node_of[a].loc.line, attr_node_of[a].loc.column)
    )
    for attr_id in sorted_sinks:
        sink_idx[attr_id] = len(nodes)
        nodes.append(SinkNode(attr_id, attr_node_of[attr_id].loc))

    edges: set[tuple[int, int]] = set()

    def connect_def(from_node: int, def_index: int) -> None:
        for j in def_succ.get(def_index, ()):
            edges.add((from_node, inter_idx[j]))
        for attr_id in def_attrs.get(def_index, ()):
            edges.add((from_node, sink_idx[attr_id]))

    for pos, (candidate, seed) in enumerate(seeds):
        if seed is None:
            continue
        if seed[0] == "def":
            connect_def(taint_idx[pos], seed[1].index)
        else:
            edges.add((taint_idx[pos], sink_idx[attr_id_of[id(seed[1])]]))
    for i in downstream:
        connect_def(inter_idx[i], i)

    return DataDependenceGraph(
        manifest_path=manifest.path,
        nodes=tuple(nodes),
        edges=tuple(sorted(edges)),
    )


_KIND_RANK = {TaintNode: 0, IntermediateNode: 1, SinkNode: 2}


def _node_order_key(node: DdgNode):
    return (node.loc.line, node.loc.column, _KIND_RANK[type(node)])


def collect_propagations(ddg: DataDependenceGraph) -> list[PropagationResult]:
    """For every taint node that reaches a sink, in node order (which
    ``build_ddg`` makes the candidate order), one witness path per sink
    (shortest; ties broken by the textual order of the next node).

    A FIFO BFS that visits each node's successors in textual order first
    discovers every node from the predecessor whose own witness path comes
    first, so walking first-discoverer parents back from a sink yields its
    witness path."""
    succ: dict[int, list[int]] = {}
    for a, b in ddg.edges:
        succ.setdefault(a, []).append(b)
    for neighbors in succ.values():
        neighbors.sort(key=lambda i: _node_order_key(ddg.nodes[i]))

    results: list[PropagationResult] = []
    for start, node in enumerate(ddg.nodes):
        if not isinstance(node, TaintNode):
            continue
        parent = {start: start}
        queue = [start]
        for n in queue:  # the loop also visits nodes appended while it runs
            for m in succ.get(n, ()):
                if m not in parent:
                    parent[m] = n
                    queue.append(m)
        sinks = sorted(
            (i for i in queue if isinstance(ddg.nodes[i], SinkNode)),
            key=lambda i: _node_order_key(ddg.nodes[i]),
        )
        if not sinks:
            continue
        paths: dict[AttributeId, tuple[DdgNode, ...]] = {}
        for sink_i in sinks:
            indices = [sink_i]
            while indices[-1] != start:
                indices.append(parent[indices[-1]])
            paths[ddg.nodes[sink_i].attribute] = tuple(ddg.nodes[i] for i in reversed(indices))
        results.append(PropagationResult(taint=node.candidate, paths=paths))
    return results


def _path_step(node: DdgNode) -> PathStep:
    if isinstance(node, TaintNode):
        return PathStep("taint", node.candidate.display_name, node.loc.line, node.loc.column)
    if isinstance(node, IntermediateNode):
        return PathStep("intermediate", f"${node.var_name}", node.loc.line, node.loc.column)
    attr = node.attribute
    label = f"{attr.resource_type}[{attr.resource_title}].{attr.attribute_name}"
    return PathStep("sink", label, node.loc.line, node.loc.column)


def confirm_findings(propagations: list[PropagationResult]) -> list[Finding]:
    """One finding per (candidate, sink) pair, in the order of
    ``propagations``.  ``collect_propagations`` lists them in candidate
    order and leaves out candidates that reach no sink, so these are
    dropped here too.  Each DDG node's ``PathStep`` is built once and
    shared by every path through the node."""
    steps: dict[int, PathStep] = {}  # keyed by id: the propagations keep every node alive

    def step(node: DdgNode) -> PathStep:
        made = steps.get(id(node))
        if made is None:
            made = steps[id(node)] = _path_step(node)
        return made

    return [
        Finding(
            category=prop.taint.category,
            manifest_path=attr_id.manifest_path,
            weakness_location=prop.taint.location,
            weakness_name=prop.taint.display_name,
            sink=attr_id,
            sink_location=node_path[-1].loc,
            path=tuple(map(step, node_path)),
        )
        for prop in propagations
        for attr_id, node_path in prop.paths.items()
    ]
