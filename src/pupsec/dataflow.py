"""Def-use reachability over one manifest.

A definition of ``$v`` reaches a later use of ``$v`` when at least one
branch-consistent path between them contains no other assignment to
``$v`` (may-reach).  A reassignment on every path kills the definition.
Class and defined-type bodies are analyzed inline at their declaration
point: the manifest shares one flat variable namespace, with parameters
defined just before the body.  There are no loops in the subset, so
definition-use edges always point forward in textual order.

The analysis is one loop over the slot table of a ``MembershipIndex``: at
each slot its names are used in the current state, then an ``Assignment``
or ``Parameter`` holder defines its variable.  The state is a list of dict
layers, innermost first, each mapping a variable to the definitions of it
that reach there; a lookup takes the first layer that holds the name.  At
the table's branch markers each arm starts as a new empty layer on top of
the layers before the branch, and the join writes into the innermost of
those, for each variable that some arm wrote, the union over all arms of
its value there.  A missing ``else`` or ``default`` is one more, empty,
arm.

The result is one def-use map: each ``UseRecord`` holds the indices of
every definition that may reach a use at its node, the node itself, which
says what the value read there feeds, and the node's ``AttributeId`` when
it is an attribute.  A node has a record only when one of its slots reads
a name, or when it is an attribute: a literal's record would have nothing
reaching it and would feed no edge, and every sink keeps one.  A
definition index names its variable, so the set needs no per-variable
split, and the DDG is built from these records alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .classify import JOIN, OPEN, AttributeId, MembershipIndex
from .nodes import Assignment, Parameter


@dataclass(slots=True, unsafe_hash=True)
class Definition:
    index: int
    var: str
    node: Union[Assignment, Parameter]


@dataclass(slots=True)
class UseRecord:
    node: object  # statement, AttributeNode or Parameter the use belongs to
    attribute_id: Optional[AttributeId]  # the node's when it is an attribute, else None
    reaching: set[int]  # indices of the definitions that may reach a use here


_State = list[dict[str, frozenset[int]]]  # dict layers, innermost first
_DEFINERS = frozenset({Assignment, Parameter})  # the holders that define their variable


class DataflowAnalysis:
    """Reaching-definitions analysis for a single manifest, read off its
    membership index's slot table in one flat loop."""

    def __init__(self, index: MembershipIndex):
        self.definitions: list[Definition] = []
        self.use_records: list[UseRecord] = []
        self._def_by_node: dict[int, Definition] = {}
        self._uses_by_node: dict[int, UseRecord] = {}
        state: _State = [{}]
        branches: list[tuple[_State, list[_State]]] = []  # (state before, finished arms)
        for expr, attr_id, node, names, _ in index.expressions:
            if node is None:  # a branch marker: OPEN, NEXT or JOIN
                if expr is OPEN:
                    branches.append((state, []))
                else:
                    branches[-1][1].append(state)
                if expr is JOIN:
                    state, arms = branches.pop()
                    joined = state[0]
                    for var in set().union(*(arm[0] for arm in arms)):
                        reaching = []
                        for arm in arms:
                            for layer in arm:
                                if (found := layer.get(var)) is not None:
                                    reaching.append(found)
                                    break
                        joined[var] = frozenset().union(*reaching)
                else:
                    state = [{}, *branches[-1][0]]
                continue
            # Uses come first, so `$x = "${x}-1"` reads the previous $x.  A
            # slot that reads no name carries no value; an attribute keeps
            # its record anyway, as the DDG reads each sink's place there.
            if names or attr_id is not None:
                self._use(node, attr_id, names, state)
            if type(node) in _DEFINERS:
                self._define(node, state)

    def _define(self, node: Union[Assignment, Parameter], state: _State) -> None:
        """Record the definition that *node* makes, and make it the only
        one of its variable in *state*."""
        var = node.var_name if isinstance(node, Assignment) else node.name
        d = Definition(len(self.definitions), var, node)
        self.definitions.append(d)
        self._def_by_node[id(node)] = d
        state[0][var] = frozenset((d.index,))

    def _use(self, node, attr_id, names: tuple[str, ...], state: _State) -> None:
        record = self._uses_by_node.get(id(node))
        if record is None:
            record = self._uses_by_node[id(node)] = UseRecord(node, attr_id, set())
            self.use_records.append(record)
        for name in names:
            for layer in state:
                if (reaching := layer.get(name)) is not None:
                    record.reaching.update(reaching)
                    break

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
