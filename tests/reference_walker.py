"""The reflective AST walk that ``pupsec.nodes.iter_nodes`` replaced.

Kept as a test oracle, as ``reference_lexer.py`` is for the lexer: it
finds a node's children through ``dataclasses.fields`` rather than the
explicit ``pupsec.nodes.children`` table, so ``test_nodes.py`` can require
both walks to yield the same node objects in the same order.
"""

from __future__ import annotations

from dataclasses import fields

from pupsec.nodes import Manifest, SourceLocation


def iter_nodes(obj):
    """Yield every AST node (statements, expressions, attribute/parameter
    records) contained in *obj*, pre-order."""
    if isinstance(obj, Manifest):
        for s in obj.statements:
            yield from iter_nodes(s)
        return
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return
    if isinstance(obj, tuple):
        for item in obj:
            yield from iter_nodes(item)
        return
    if isinstance(obj, SourceLocation):
        return
    yield obj
    for f in fields(obj):
        yield from iter_nodes(getattr(obj, f.name))
