"""The ``build_ddg`` that ``pupsec.ddg``'s single def-use map replaced.

Kept as a test oracle, as ``reference_parser.py`` is for the parser: the
differential test in ``test_ddg.py`` requires ``pupsec.ddg.build_ddg`` to
return an equal ``DataDependenceGraph`` (nodes, node order and edges), or
``None`` where this one does.  It keeps the old three-step construction:
definition-level adjacency maps, a downstream search and a separate sink
pass, then one index map per node kind.  The one change is in what it
reads: ``UseRecord.reaching`` as a flat set of definition indices, and
each use record's and candidate's ``attribute_id`` and holder node type
for what the value feeds, in place of the use-kind tag and the attribute
table it once read.
"""

from __future__ import annotations

from typing import Optional

from pupsec.classify import AttributeId, MembershipIndex
from pupsec.dataflow import DataflowAnalysis
from pupsec.ddg import DataDependenceGraph, DdgNode, IntermediateNode, SinkNode, TaintNode
from pupsec.nodes import Assignment, AttributeNode, Manifest, Parameter
from pupsec.rules import WeaknessCandidate


def _seed_for(candidate: WeaknessCandidate, analysis: DataflowAnalysis):
    """Where a candidate's tainted value lives: ('def', Definition),
    ('attr', AttributeId), or None when the value is never stored."""
    attr_id, node = candidate.element.attribute_id, candidate.element.node
    if isinstance(node, AttributeNode):
        return ("attr", attr_id)
    if isinstance(node, (Assignment, Parameter)):
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
    analysis = DataflowAnalysis(index)
    attr_node_of: dict[AttributeId, object] = {}

    # Definition-level def-use adjacency.
    def_succ: dict[int, set[int]] = {}
    def_attrs: dict[int, set[AttributeId]] = {}
    for record in analysis.use_records:
        if isinstance(record.node, (Assignment, Parameter)):
            target = analysis.definition_for(record.node)
            for i in record.reaching:
                def_succ.setdefault(i, set()).add(target.index)
        elif isinstance(record.node, AttributeNode):
            attr_id = record.attribute_id
            attr_node_of[attr_id] = record.node
            for i in record.reaching:
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
            sink_ids.add(seed[1])
    if not sink_ids:
        return None

    defs = analysis.definitions
    nodes: list[DdgNode] = []
    taint_idx: dict[int, int] = {}  # candidate position -> node index
    for pos, (candidate, _) in enumerate(seeds):
        taint_idx[pos] = len(nodes)
        nodes.append(TaintNode(candidate))
    inter_idx: dict[int, int] = {}  # definition index -> node index
    for i in sorted(downstream, key=lambda i: (defs[i].node.loc.line, defs[i].node.loc.column)):
        inter_idx[i] = len(nodes)
        nodes.append(IntermediateNode(defs[i].var, defs[i].node.loc))
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
            edges.add((taint_idx[pos], sink_idx[seed[1]]))
    for i in downstream:
        connect_def(inter_idx[i], i)

    return DataDependenceGraph(
        manifest_path=manifest.path,
        nodes=tuple(nodes),
        edges=tuple(sorted(edges)),
    )
