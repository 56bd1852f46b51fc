"""Per-manifest data dependence graphs and propagation confirmation.

``build_ddg`` reads the reaching-definitions sets into one def-use map,
from each definition to the definitions and attributes that read it, and
walks it once from the tainted definitions.  A use record's node names its
reader: an attribute, named by its ``AttributeId``, is a sink; an
assignment or parameter is the definition made there; any other node, a
statement, reads into nothing.  A graph is only built when it would
contain at least one taint node and one sink node; a candidate whose
value never flows into any resource attribute therefore produces no graph
and no finding, which is exactly the false-positive filter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .classify import AttributeId, MembershipIndex
from .dataflow import DataflowAnalysis, Definition
from .nodes import Manifest, SourceLocation
from .report import Finding, PathStep
from .rules import WeaknessCandidate


@dataclass(slots=True, unsafe_hash=True)
class TaintNode:
    candidate: WeaknessCandidate

    @property
    def loc(self) -> SourceLocation:
        return self.candidate.location


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
    """Where a candidate's tainted value lives: its ``Definition``, the
    ``AttributeId`` it is written to, or None when the value is never stored."""
    element = candidate.element
    if element.attribute_id is not None:
        return element.attribute_id
    return analysis.definition_for(element.node)


def build_ddg(
    manifest: Manifest,
    candidates: list[WeaknessCandidate],
    index: MembershipIndex,
) -> Optional[DataDependenceGraph]:
    """Build the manifest's DDG, or return None when no taint or no sink
    node would exist."""
    if not candidates:
        return None
    analysis = DataflowAnalysis(index)

    # The def-use map: definition index -> the index of each definition
    # whose value reads it, or the AttributeId of each attribute that does.
    # Every attribute has a use record, whose node gives the sink's place.
    readers: dict[int, list[Union[int, AttributeId]]] = {}
    sink_loc: dict[AttributeId, SourceLocation] = {}
    for record in analysis.use_records:
        reader = record.attribute_id
        if reader is not None:
            sink_loc[reader] = record.node.loc
        elif (definition := analysis.definition_for(record.node)) is not None:
            reader = definition.index
        else:
            continue
        for i in record.reaching:
            readers.setdefault(i, []).append(reader)

    seeds = [_seed_for(c, analysis) for c in candidates]
    # Definitions strictly downstream of a tainted one, and the attributes
    # that a tainted or downstream definition reaches.
    downstream: set[int] = set()
    sinks = {s for s in seeds if isinstance(s, AttributeId)}
    frontier = list({s.index for s in seeds if isinstance(s, Definition)})
    for i in frontier:  # the loop also visits definitions appended while it runs
        for reader in readers.get(i, ()):
            if isinstance(reader, AttributeId):
                sinks.add(reader)
            elif reader not in downstream:
                downstream.add(reader)
                frontier.append(reader)
    if not sinks:
        return None

    # Taints in candidate order, so taint node i is candidate i; then
    # intermediates and sinks, each by position: definitions are numbered,
    # and use records listed, in textual order.
    defs = analysis.definitions
    nodes: list[DdgNode] = [TaintNode(c) for c in candidates]
    node_of: dict[Union[int, AttributeId], int] = {}  # reader -> node index
    for i in sorted(downstream):
        node_of[i] = len(nodes)
        nodes.append(IntermediateNode(defs[i].var, defs[i].node.loc))
    for attr_id, loc in sink_loc.items():
        if attr_id in sinks:
            node_of[attr_id] = len(nodes)
            nodes.append(SinkNode(attr_id, loc))

    edges = {(node_of[i], node_of[r]) for i in downstream for r in readers.get(i, ())}
    for pos, seed in enumerate(seeds):
        if isinstance(seed, Definition):
            edges.update((pos, node_of[r]) for r in readers.get(seed.index, ()))
        elif seed is not None:
            edges.add((pos, node_of[seed]))

    return DataDependenceGraph(manifest.path, tuple(nodes), tuple(sorted(edges)))


_KIND_RANK = {TaintNode: 0, IntermediateNode: 1, SinkNode: 2}


def _node_order_key(node: DdgNode):
    return (node.loc.line, node.loc.column, _KIND_RANK[type(node)])


def collect_propagations(ddg: DataDependenceGraph) -> list[PropagationResult]:
    """For every taint node that reaches a sink, in node order (which
    ``build_ddg`` makes the candidate order), one witness path per sink,
    also in node order (which ``build_ddg`` makes the textual order of the
    sinks): shortest, ties broken by the textual order of the next node.

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
        sinks = sorted(i for i in queue if isinstance(ddg.nodes[i], SinkNode))
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


def _path_step(node: Union[IntermediateNode, SinkNode]) -> PathStep:
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
    shared by every path through the node.  No edge leads into a taint
    node, so a path's first step is its candidate's, made once for all of
    its sinks."""
    steps: dict[int, PathStep] = {}  # keyed by id: the propagations keep every node alive

    def step(node: DdgNode) -> PathStep:
        made = steps.get(id(node))
        if made is None:
            made = steps[id(node)] = _path_step(node)
        return made

    findings: list[Finding] = []
    for prop in propagations:
        taint, name, loc = prop.taint, prop.taint.display_name, prop.taint.location
        first = PathStep("taint", name, loc.line, loc.column)
        findings.extend(
            Finding(
                category=taint.category,
                manifest_path=attr_id.manifest_path,
                weakness_location=loc,
                weakness_name=name,
                sink=attr_id,
                sink_location=node_path[-1].loc,
                path=(first, *map(step, node_path[1:])),
            )
            for attr_id, node_path in prop.paths.items()
        )
    return findings
