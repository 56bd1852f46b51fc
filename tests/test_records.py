"""The rules every pupsec record type keeps.

Records are slotted dataclasses, not frozen ones: a frozen ``__init__``
sets each field through ``object.__setattr__``, which made building
nodes, locations and the per-file records the largest cost of a scan.
Value equality and value hashing stay as they were; the immutability
that ``frozen=True`` enforced at run time is pinned here instead, as a
property of the pipeline.
"""

import dataclasses
import functools
import importlib
import pkgutil

import pupsec
import pupsec.harness as harness_mod
from pupsec.classify import (
    ClassifiedExpression,
    FunctionCallSite,
    build_membership_index,
    classify_expressions,
    collect_function_calls,
)
from pupsec.dataflow import DataflowAnalysis, UseRecord
from pupsec.ddg import (
    PropagationResult,
    TaintNode,
    build_ddg,
    collect_propagations,
    confirm_findings,
)
from pupsec.harness import Report, RunConfig, evaluate, load_ground_truth, scan
from pupsec.lexer import tokenize
from pupsec.nodes import Assignment, AttributeNode, Manifest, Parameter, iter_nodes
from pupsec.parser import parse_manifest
from pupsec.rules import DEFAULT_PATTERNS, PatternSet, WeaknessCandidate, detect_candidates
from pupsec.synth import generate_manifest_text

from conftest import CORPUS, CORPUS_TRUTH, FIXTURES, RARE_FORMS


def _record_types() -> set:
    found = set()
    for info in pkgutil.iter_modules(pupsec.__path__):
        if info.name == "__main__":
            continue
        module = importlib.import_module(f"pupsec.{info.name}")
        found.update(
            obj for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and dataclasses.is_dataclass(obj)
        )
    return found


RECORDS = _record_types()
# Unhashable: use records are mutable while they are built, a
# propagation result holds a dict, and so does a report (its ``stats``).
UNHASHABLE = {UseRecord, PropagationResult, Report}


@functools.cache
def _texts() -> tuple:
    """(text, path) of every fixture, RARE_FORMS and 300 generated manifests."""
    texts = [(p.read_text(encoding="utf-8"), str(p)) for p in sorted(FIXTURES.rglob("*.pp"))]
    texts.append((RARE_FORMS, "rare.pp"))
    texts.extend((generate_manifest_text(seed), f"synthetic_{seed}.pp") for seed in range(300))
    return tuple(texts)


def test_every_record_type_is_slotted_and_not_frozen():
    assert {Manifest, UseRecord, RunConfig, PatternSet} <= RECORDS
    for cls in RECORDS:
        assert "__slots__" in vars(cls), cls
        assert cls.__dictoffset__ == 0, f"{cls} instances have a __dict__"
        assert not cls.__dataclass_params__.frozen, cls


def test_records_keep_value_hashing():
    assert {cls for cls in RECORDS if cls.__hash__ is None} == UNHASHABLE
    for cls in RECORDS - UNHASHABLE:
        assert cls.__hash__ is not object.__hash__, cls


def _results() -> list:
    """Every kind of record the package builds, from fresh objects."""
    out = []
    for text, path in _texts()[:60]:
        manifest = parse_manifest(text, path)
        index = build_membership_index(manifest)
        classified = classify_expressions(index)
        calls = collect_function_calls(index)
        candidates = detect_candidates(classified, calls, PatternSet())
        analysis = DataflowAnalysis(index)
        ddg = build_ddg(manifest, candidates, index)
        propagations = collect_propagations(ddg) if ddg is not None else []
        findings = confirm_findings(propagations)
        out.append((
            tokenize(text, path), manifest, classified, calls, index, candidates,
            analysis.definitions, analysis.use_records, ddg, propagations, findings,
        ))
    config = RunConfig(inputs=(str(CORPUS),))
    report = scan(config)
    truth = load_ground_truth(str(CORPUS_TRUTH))
    first = str(min(CORPUS.rglob("*.pp")))
    out.append((
        config, report, truth, evaluate(report, truth),
        harness_mod._analyze_file(first, "taint", PatternSet()),
        PatternSet(),
    ))
    return out


def _pairs(a, b):
    """The corresponding records of two equal structures, pre-order."""
    stack = [(a, b)]
    while stack:
        x, y = stack.pop()
        if dataclasses.is_dataclass(x):
            yield x, y
            stack.extend((getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x))
        elif isinstance(x, (tuple, list)):
            assert len(x) == len(y)
            stack.extend(zip(x, y))
        elif isinstance(x, dict):
            stack.extend(zip(x.items(), y.items()))


def test_equal_records_hash_equal_and_carry_no_dict():
    seen = set()
    for a, b in _pairs(_results(), _results()):
        if a is b:
            continue
        seen.add(type(a))
        assert a == b
        assert not hasattr(a, "__dict__"), type(a)
        if type(a) not in UNHASHABLE:
            assert hash(a) == hash(b), a
    assert seen == RECORDS


def test_pipeline_never_mutates_its_inputs(tmp_path, monkeypatch):
    """Each stage of ``_analyze_file`` reads the tree and the records of
    the stages before it and builds new ones; none assigns to them."""
    built = {}

    def record(name):
        real = getattr(harness_mod, name)

        def spy(*args, **kwargs):
            built[name] = result = real(*args, **kwargs)
            return result

        monkeypatch.setattr(harness_mod, name, spy)

    for name in ("parse_manifest", "classify_expressions", "build_membership_index",
                 "collect_function_calls", "detect_candidates"):
        record(name)

    for text, path in _texts():
        if not path.startswith(str(FIXTURES)):
            path = str(tmp_path / path)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        kept = parse_manifest(text, path)
        for mode in ("taint", "pattern"):
            result = harness_mod._analyze_file(path, mode, DEFAULT_PATTERNS)
            assert result.error is None, path
            assert built["parse_manifest"] is not kept
            assert built["parse_manifest"] == kept, path
            index = build_membership_index(kept)
            classified = classify_expressions(index)
            calls = collect_function_calls(index)
            assert built["classify_expressions"] == classified, path
            assert built["collect_function_calls"] == calls, path
            assert built["build_membership_index"] == index, path
            assert built["detect_candidates"] == detect_candidates(classified, calls), path


def test_each_place_and_call_name_is_kept_once():
    """A classified entry and a call site keep their AST nodes and nothing
    derived from them; a candidate's place is read from its element.  What
    a value feeds is read from its holder node too: a slot keeps only the
    ``AttributeId`` of an attribute, which the node cannot give, and the
    dataflow defines once at each assignment and parameter holder."""
    assert [f.name for f in dataclasses.fields(ClassifiedExpression)] == [
        "attribute_id", "value", "node"]
    assert [f.name for f in dataclasses.fields(FunctionCallSite)] == [
        "attribute_id", "node", "call"]
    assert "location" not in {f.name for f in dataclasses.fields(WeaknessCandidate)}
    assert [f.name for f in dataclasses.fields(TaintNode)] == ["candidate"]
    removed = ("ExpressionKind", "StringValue", "FunctionValue", "UndefValue", "CompositeValue",
               "OtherValue", "ValueView", "value_view")
    assert not any(hasattr(m, name) for m in (pupsec, pupsec.classify) for name in removed)
    owners = ("VariableOwner", "ParameterOwner", "AttributeOwner", "Owner")
    modules = (pupsec, pupsec.classify, pupsec.dataflow)
    assert not any(hasattr(m, name) for m in modules for name in owners)
    seen = set()
    for text, path in _texts():
        manifest = parse_manifest(text, path)
        ast_nodes = {id(n) for n in iter_nodes(manifest)}
        index = build_membership_index(manifest)
        for _, attr_id, holder, _, _ in index.expressions:
            if holder is not None:  # branch markers have no holder
                assert (attr_id is not None) == (type(holder) is AttributeNode), path
                assert attr_id is None or attr_id.attribute_name == holder.name, path
        definers = [h for _, _, h, _, _ in index.expressions if type(h) in (Assignment, Parameter)]
        analysis = DataflowAnalysis(index)
        definitions = analysis.definitions
        assert [id(d.node) for d in definitions] == [id(h) for h in definers], path
        # build_ddg takes textual order from the records: definitions and
        # attribute use records are made in it, and no two share a place
        for places in (
            [d.node.loc for d in definitions],
            [r.node.loc for r in analysis.use_records if r.attribute_id is not None],
        ):
            keys = [(loc.line, loc.column) for loc in places]
            assert all(a < b for a, b in zip(keys, keys[1:])), path
        classified = classify_expressions(index)
        for ce in classified:  # the name is read from the holder
            holder_name = ce.node.var_name if isinstance(ce.node, Assignment) else ce.node.name
            assert ce.name == holder_name, path
        for c in detect_candidates(classified, collect_function_calls(index)):
            element = c.element
            holder = element.call if isinstance(element, FunctionCallSite) else element.node
            assert id(holder) in ast_nodes, path
            assert c.location is holder.loc, path
            assert TaintNode(c).loc is c.location
            seen.add(type(element))
    assert seen == {ClassifiedExpression, FunctionCallSite}


def test_equal_records_still_tell_places_apart():
    """With no location field, equality compares the AST node that holds
    the place: two entries alike in all but their line are not equal."""
    index = build_membership_index(parse_manifest("$db_user = 'root'\n$db_user = 'root'", "m.pp"))
    first, second = classify_expressions(index)
    assert (first.attribute_id, first.name, first.value) == (
        second.attribute_id, second.name, second.value)
    assert first != second
    a, b = detect_candidates([first, second], [])
    assert (a.category, a.matched_text) == (b.category, b.matched_text)
    assert a != b
    assert TaintNode(a) != TaintNode(b)

    index = build_membership_index(parse_manifest("md5('x')\nmd5('x')", "m.pp"))
    first, second = collect_function_calls(index)
    assert first.attribute_id == second.attribute_id is None
    assert first != second
    a, b = detect_candidates([], [first, second])
    assert (a.category, a.matched_text) == (b.category, b.matched_text)
    assert a != b
    assert TaintNode(a) != TaintNode(b)
