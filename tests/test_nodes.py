import dataclasses
import functools
import typing

import reference_walker

from pupsec import nodes
from pupsec.classify import build_membership_index, collect_function_calls
from pupsec.nodes import FunctionCall, children, iter_nodes
from pupsec.parser import parse_manifest
from pupsec.synth import generate_manifest_text

from conftest import FIXTURES, RARE_FORMS


@functools.cache
def manifests() -> tuple:
    """The fixtures, RARE_FORMS and 300 generated manifests, parsed once."""
    texts = [(p.read_text(encoding="utf-8"), str(p)) for p in sorted(FIXTURES.rglob("*.pp"))]
    texts.append((RARE_FORMS, "rare.pp"))
    texts.extend((generate_manifest_text(seed), f"synthetic_{seed}.pp") for seed in range(300))
    return tuple(parse_manifest(text, path) for text, path in texts)


def _ids(nodes_):
    return [id(n) for n in nodes_]


def test_iter_nodes_matches_reference_walker():
    for manifest in manifests():
        expected = list(reference_walker.iter_nodes(manifest))
        assert _ids(iter_nodes(manifest)) == _ids(expected), manifest.path
        for node in expected:
            assert _ids(iter_nodes(node)) == _ids(reference_walker.iter_nodes(node))


def test_inputs_hold_every_node_type_with_children():
    seen = [n for m in manifests() for n in iter_nodes(m)]
    assert set(nodes._CHILDREN) - {type(n) for n in seen} == {nodes.Manifest}
    assert any(isinstance(n, nodes.SelectorArm) and n.match is None for n in seen)
    assert any(isinstance(n, nodes.Parameter) and n.default is None for n in seen)


def test_walks_of_none_and_leaves_are_empty():
    assert children(None) == ()
    assert list(iter_nodes(None)) == []
    leaf = nodes.StrLiteral("x", nodes.SourceLocation("m.pp", 1, 1))
    assert children(leaf) == ()
    assert list(iter_nodes(leaf)) == [leaf]


NODE_CLASSES = [
    cls for cls in vars(nodes).values()
    if isinstance(cls, type) and cls.__module__ == nodes.__name__
    and dataclasses.is_dataclass(cls) and cls is not nodes.SourceLocation
]


def _mentions_node(annotation) -> bool:
    if isinstance(annotation, type):
        return issubclass(annotation, (nodes.Expr, nodes.Statement)) or annotation in NODE_CLASSES
    return any(_mentions_node(arg) for arg in typing.get_args(annotation))


def test_every_node_type_with_node_fields_has_a_children_entry():
    with_children = {
        cls for cls in NODE_CLASSES
        if any(_mentions_node(t) for t in typing.get_type_hints(cls).values())
    }
    assert nodes.SelectorArm in with_children and nodes.Manifest in with_children
    assert nodes.VarRef not in with_children
    assert with_children == set(nodes._CHILDREN)


def test_call_sites_are_the_function_calls_of_the_tree_in_order():
    for manifest in manifests():
        calls = [n for n in iter_nodes(manifest) if isinstance(n, FunctionCall)]
        sites = collect_function_calls(build_membership_index(manifest))
        assert _ids(s.call for s in sites) == _ids(calls), manifest.path
