"""Per-manifest data dependence graphs and propagation confirmation.

``build_ddg`` reads the reaching-definitions sets into one def-use map,
from each definition to the use records that read it, and walks it once
from the tainted definitions.  A use record's node names its reader: an
attribute, named by its ``AttributeId``, is a sink; an assignment or
parameter is the definition made there; any other node, a statement,
reads into nothing.  A graph is only built when it would contain at least
one taint node and one sink node; a candidate whose value never flows
into any resource attribute therefore produces no graph and no finding,
which is exactly the false-positive filter.

A node is its own witness-path step: node i is candidate i's taint step,
for i below the number of candidates, and every later node is the
intermediate step of a reached definition or the sink step of a reached
attribute.  These are numbered in the order of the dataflow's use
records, which is textual order with no two records at one place, so a
node's index is its textual rank among the non-taint nodes, and every
list of successors that ``build_ddg`` emits is already in textual order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .classify import AttributeId, MembershipIndex
from .dataflow import DataflowAnalysis
from .nodes import Manifest, SourceLocation
from .report import Finding, PathStep
from .rules import WeaknessCandidate


@dataclass(slots=True, unsafe_hash=True)
class DataDependenceGraph:
    manifest_path: str
    taints: tuple[WeaknessCandidate, ...]  # node i is candidate i
    nodes: tuple[PathStep, ...]  # each node's witness-path step
    edges: tuple[tuple[int, int], ...]  # sorted (from, to): from's value is used to define to
    attributes: tuple[Optional[AttributeId], ...]  # each sink node's attribute, else None


@dataclass(slots=True)
class PropagationResult:
    taint: WeaknessCandidate
    paths: dict[AttributeId, tuple[PathStep, ...]]  # one witness path per sink


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

    # The def-use map: definition index -> the position in ``use_records``
    # of each record that reads it, in record order, for the records whose
    # node is an attribute or makes a definition.
    records = analysis.use_records
    readers: dict[int, list[int]] = {}
    made: dict[int, int] = {}  # record position -> the definition its node makes
    attribute_at: dict[AttributeId, int] = {}  # every attribute has a record
    for pos, record in enumerate(records):
        if record.attribute_id is not None:
            attribute_at[record.attribute_id] = pos
        elif (definition := analysis.definition_for(record.node)) is not None:
            made[pos] = definition.index
        else:
            continue
        for i in record.reaching:
            readers.setdefault(i, []).append(pos)

    # Each candidate's readers: the attribute its value is written to, the
    # readers of its definition, or none when the value is never stored.
    taint_readers: list[Sequence[int]] = []
    for c in candidates:
        element = c.element
        if element.attribute_id is not None:
            taint_readers.append((attribute_at[element.attribute_id],))
        elif (definition := analysis.definition_for(element.node)) is not None:
            taint_readers.append(readers.get(definition.index, ()))
        else:
            taint_readers.append(())

    reached = {pos for positions in taint_readers for pos in positions}
    frontier = list(reached)
    for pos in frontier:  # the loop also visits records appended while it runs
        for reader in readers.get(made.get(pos), ()):
            if reader not in reached:
                reached.add(reader)
                frontier.append(reader)
    if made.keys() >= reached:  # no attribute is reached
        return None

    order = sorted(reached)
    node_of = {pos: n for n, pos in enumerate(order, len(candidates))}
    nodes = [PathStep("taint", c.display_name, c.location.line, c.location.column)
             for c in candidates]
    attributes: list[Optional[AttributeId]] = [None] * len(candidates)
    # Sorted as made: sources in node order, each one's readers in record order.
    edges = [(t, node_of[pos]) for t, positions in enumerate(taint_readers) for pos in positions]
    defs = analysis.definitions
    for pos in order:
        record = records[pos]
        loc, attr = record.node.loc, record.attribute_id
        if attr is None:
            i = made[pos]
            nodes.append(PathStep("intermediate", f"${defs[i].var}", loc.line, loc.column))
            edges.extend((node_of[pos], node_of[r]) for r in readers.get(i, ()))
        else:
            label = f"{attr.resource_type}[{attr.resource_title}].{attr.attribute_name}"
            nodes.append(PathStep("sink", label, loc.line, loc.column))
        attributes.append(attr)

    return DataDependenceGraph(
        manifest.path, tuple(candidates), tuple(nodes), tuple(edges), tuple(attributes)
    )


def collect_propagations(ddg: DataDependenceGraph) -> list[PropagationResult]:
    """For every taint node that reaches a sink, in candidate order, one
    witness path per sink, in the textual order of the sinks: shortest,
    ties broken by the textual order of the next node.

    A FIFO BFS that visits each node's successors in textual order, which
    is their order in ``edges``, first discovers every node from the
    predecessor whose own witness path comes first, so walking
    first-discoverer parents back from a sink yields its witness path."""
    succ: dict[int, list[int]] = {}
    for a, b in ddg.edges:
        succ.setdefault(a, []).append(b)

    nodes, attributes = ddg.nodes, ddg.attributes
    results: list[PropagationResult] = []
    for start, taint in enumerate(ddg.taints):
        parent = {start: start}
        queue = [start]
        for n in queue:  # the loop also visits nodes appended while it runs
            for m in succ.get(n, ()):
                if m not in parent:
                    parent[m] = n
                    queue.append(m)
        sinks = sorted(i for i in queue if attributes[i] is not None)
        if not sinks:
            continue
        paths: dict[AttributeId, tuple[PathStep, ...]] = {}
        for sink_i in sinks:
            indices = [sink_i]
            while indices[-1] != start:
                indices.append(parent[indices[-1]])
            paths[attributes[sink_i]] = tuple(nodes[i] for i in reversed(indices))
        results.append(PropagationResult(taint=taint, paths=paths))
    return results


def confirm_findings(propagations: list[PropagationResult]) -> list[Finding]:
    """One finding per (candidate, sink) pair, in the order of
    ``propagations``.  ``collect_propagations`` lists them in candidate
    order and leaves out candidates that reach no sink, so these are
    dropped here too.  Each path is the graph's own steps, so a step is
    shared by every path through its node; a path's first step, its
    taint's, gives the weakness name."""
    findings: list[Finding] = []
    for prop in propagations:
        taint, loc = prop.taint, prop.taint.location
        name = next(iter(prop.paths.values()))[0].label
        findings.extend(
            Finding(
                category=taint.category,
                manifest_path=attr_id.manifest_path,
                weakness_location=loc,
                weakness_name=name,
                sink=attr_id,
                sink_location=SourceLocation(attr_id.manifest_path, path[-1].line, path[-1].column),
                path=path,
            )
            for attr_id, path in prop.paths.items()
        )
    return findings
