"""Metamorphic relations over the whole per-file pipeline.

Each test changes a manifest in a way that must not change what the
scanner finds, and compares the findings of both versions:
- (a) renaming a variable everywhere, where neither name matches a rule,
  changes the findings only in that name;
- (b) inserting a comment, a blank line or a dead assignment at a
  statement boundary moves locations, but keeps the multiset of
  (category, sink) pairs.
Relation (e) asks less of a change that may break the manifest: whatever
the text, each file ends in findings or in a classified skip, never in an
exception or an internal-error skip.
Relation (c), wrapping code in an ``if``, is in ``test_dataflow.py``, and
(d), the union of disjoint inputs, in ``test_harness.py``.
"""

import dataclasses
import re
import string
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pupsec.harness import _analyze_file
from pupsec.nodes import (
    Assignment,
    Manifest,
    Parameter,
    SourceLocation,
    Statement,
    VarRef,
    iter_nodes,
)
from pupsec.parser import parse_manifest
from pupsec.printer import manifest_source
from pupsec.rules import DEFAULT_PATTERNS, evaluate_predicate
from pupsec.synth import generate_manifest_text

from conftest import FIXTURE_TEXTS

MANIFESTS = st.one_of(
    st.integers(min_value=0, max_value=100_000).map(generate_manifest_text),
    st.sampled_from(FIXTURE_TEXTS),
)
_IDENTIFIER = re.compile(r"[a-z_][a-z0-9_]*")


@pytest.fixture(scope="module")
def findings_of(tmp_path_factory):
    """The taint-mode findings of a manifest text, all written to one path."""
    path = str(tmp_path_factory.mktemp("metamorphic") / "m.pp")

    def run(text):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        result = _analyze_file(path, "taint", DEFAULT_PATTERNS)
        assert result.error is None, result.error
        return result.findings

    return run


def _matches_a_name_rule(name: str) -> bool:
    return any(evaluate_predicate(p, name) for p in ("isUser", "isPassword", "isPvtKey"))


def _renamed(obj, old: str, new: str):
    """A copy of the tree *obj* with variable *old* called *new* throughout."""
    if isinstance(obj, tuple):
        return tuple(_renamed(item, old, new) for item in obj)
    if not dataclasses.is_dataclass(obj) or isinstance(obj, SourceLocation):
        return obj
    changes = {f.name: _renamed(getattr(obj, f.name), old, new) for f in dataclasses.fields(obj)}
    if isinstance(obj, Assignment) and obj.var_name == old:
        changes["var_name"] = new
    elif isinstance(obj, (VarRef, Parameter)) and obj.name == old:
        changes["name"] = new
    return type(obj)(**changes)


def _variables(manifest: Manifest) -> list[str]:
    names = set()
    for node in iter_nodes(manifest):
        if isinstance(node, Assignment):
            names.add(node.var_name)
        elif isinstance(node, (VarRef, Parameter)):
            names.add(node.name)
    return sorted(names)


@settings(max_examples=300, deadline=None)
@given(text=MANIFESTS, data=st.data())
def test_a_renaming_a_variable_changes_findings_only_in_its_name(text, data, findings_of):
    manifest = parse_manifest(text, "m.pp")
    names = [
        n for n in _variables(manifest)
        if _IDENTIFIER.fullmatch(n) and not _matches_a_name_rule(n)
    ]
    if not names:
        return
    old = data.draw(st.sampled_from(names), label="old")
    source = manifest_source(manifest)
    # Same length, so that every location stays where it was.
    new = next(c * len(old) for c in string.ascii_lowercase[::-1] if c * len(old) not in source)
    assert not _matches_a_name_rule(new)
    renamed = manifest_source(_renamed(manifest, old, new))
    assert new in renamed
    before, after = findings_of(source), findings_of(renamed)
    assert repr(after).replace(new, old) == repr(before)


def _statement_lines(text: str, manifest: Manifest) -> list[int]:
    """Lines on which a statement starts after nothing but indentation: the
    start of such a line lies between two statements."""
    lines = text.split("\n")
    starts = {
        node.loc.line
        for node in iter_nodes(manifest)
        if isinstance(node, Statement)
        and not lines[node.loc.line - 1][: node.loc.column - 1].strip()
    }
    return sorted(starts) + [len(lines) + 1]  # the end of the text is a boundary too


@settings(max_examples=300, deadline=None)
@given(text=MANIFESTS, data=st.data())
def test_b_inserting_dead_lines_keeps_category_sink_pairs(text, data, findings_of):
    manifest = parse_manifest(text, "m.pp")
    boundaries = _statement_lines(text, manifest)
    fresh = next(n for n in ("fresh", "fresh_zq", "fresh_zqj") if n not in text)
    lines = text.split("\n")
    for _ in range(data.draw(st.integers(min_value=1, max_value=3), label="insertions")):
        line = data.draw(st.sampled_from(boundaries), label="line")
        inserted = data.draw(st.sampled_from(["# a comment", "", f"${fresh} = 1"]), label="text")
        lines.insert(line - 1, inserted)
        boundaries = [b + (b >= line) for b in boundaries]
    changed = "\n".join(lines)

    def pairs(findings):
        return Counter((f.category, f.sink) for f in findings)

    assert pairs(findings_of(changed)) == pairs(findings_of(text))


# Characters that open, close or separate Puppet's constructs.
_MUTATION_ALPHABET = "${}[]()'\"\\:;,=>#\n"


@st.composite
def mutants(draw) -> str:
    """A manifest changed at one to six positions: a character of
    ``_MUTATION_ALPHABET`` inserted, a character deleted, or a span of up
    to eight characters copied to another position."""
    text = draw(MANIFESTS)
    for _ in range(draw(st.integers(min_value=1, max_value=6), label="mutations")):
        pos = draw(st.integers(min_value=0, max_value=len(text)), label="position")
        op = draw(st.sampled_from(("insert", "delete", "copy")), label="op")
        if op == "insert":
            text = text[:pos] + draw(st.sampled_from(_MUTATION_ALPHABET)) + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[pos + 1 :]
        else:
            start = draw(st.integers(min_value=0, max_value=len(text)), label="start")
            span = text[start : start + draw(st.integers(min_value=1, max_value=8))]
            text = text[:pos] + span + text[pos:]
    return text


@pytest.fixture(scope="module")
def mutant_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("mutants") / "m.pp")


@settings(max_examples=300, deadline=None)
@given(text=mutants())
def test_e_any_mutant_scans_or_is_skipped_with_a_class(text, mutant_path):
    with open(mutant_path, "w", encoding="utf-8") as fh:
        fh.write(text)
    for mode in ("taint", "pattern"):
        result = _analyze_file(mutant_path, mode, DEFAULT_PATTERNS)
        if result.error is not None:
            reason = result.skip_as + result.error
            assert not reason.startswith("internal error"), (mode, reason)
