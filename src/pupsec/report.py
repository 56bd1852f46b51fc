"""Findings, resource taxonomy, corpus statistics, and report rendering.

A taxonomy is its category table: a tuple of ``(name, keywords)`` pairs,
tried in order.  Statistics and evaluation are plain data: ``render_report``
prints the ``stats`` object that ``compute_stats`` returns, and a given
``evaluation`` object (what ``pupsec.harness.evaluate`` returns), as they
are.

The JSON and SARIF reports are written by fixed-schema emitters, not by
encoding a dict: each finding's text is joined from literal indented
fragments, strings go through ``json.encoder.encode_basestring_ascii`` and
ints through ``repr``.  The bytes are the same as ``json.dumps(doc,
indent=2)`` of the report as a dict (``tests/reference_report.py`` keeps
that renderer as the oracle).  Each distinct path step's text block is
built once per render and reused by every path through it, so a step that
many witness paths share costs one encoding.  The header, ``stats``,
``evaluation`` and the SARIF ``tool`` block still go through
``json.dumps``.
"""

from __future__ import annotations

import json
from json.encoder import encode_basestring_ascii as _str
from dataclasses import dataclass
from typing import Optional

from .classify import AttributeId, ResourceInfo
from .errors import UnknownFormat, ZeroTotal
from .nodes import SourceLocation
from .rules import RULE_SEMANTICS, WeaknessCategory

VERSION = "0.1.0"


@dataclass(slots=True, unsafe_hash=True)
class PathStep:
    kind: str  # 'taint' | 'intermediate' | 'sink'
    label: str
    line: int
    column: int


@dataclass(slots=True, unsafe_hash=True)
class Finding:
    category: WeaknessCategory
    manifest_path: str
    weakness_location: SourceLocation
    weakness_name: str
    sink: Optional[AttributeId]  # None in pattern-only mode
    sink_location: Optional[SourceLocation]
    path: tuple[PathStep, ...]


# --- resource taxonomy ------------------------------------------------------


FALLBACK_CATEGORY = "Unknown"  # the category of a resource that no keyword matches


Taxonomy = tuple[tuple[str, tuple[str, ...]], ...]  # (category name, keywords), in order

DEFAULT_TAXONOMY: Taxonomy = (
    ("ContinuousIntegration", ("jenkins", "gitlab-ci")),
    ("CommunicationPlatforms", ("slack", "discourse", "irc")),
    ("Containerization", ("docker", "magnum", "kubernetes")),
    ("DataStorage", ("mysql", "postgres", "memcached")),
    ("File", ("file", "file_line", "concat")),
    ("LoadBalancers", ("haproxy",)),
    ("Networking", ("firewall", "vlan", "onos", "network")),
)


def load_taxonomy(path: str) -> Taxonomy:
    """Load a JSON object mapping category names to keyword lists.
    Object order is significant: the first matching category wins.  A
    keyword that is empty or only whitespace raises ``ValueError``.  Every
    error names the file.  A UTF-8 byte-order mark is skipped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: taxonomy file must be a JSON object")
    categories = []
    for name, keywords in data.items():
        if not isinstance(keywords, list) or not all(isinstance(k, str) for k in keywords):
            raise ValueError(f"{path}: {name} must map to a list of strings")
        if any(not k.strip() for k in keywords):
            raise ValueError(f"{path}: {name} has an empty keyword, which would match everything")
        categories.append((name, tuple(k.lower() for k in keywords)))
    return tuple(categories)


def categorize_resource(
    resource_type: str, resource_title: str, taxonomy: Taxonomy = DEFAULT_TAXONOMY
) -> str:
    """First taxonomy category whose keywords appear in the resource type
    or title; ``FALLBACK_CATEGORY`` if none match."""
    haystack = f"{resource_type} {resource_title}".lower()
    for name, keywords in taxonomy:
        if any(k in haystack for k in keywords):
            return name
    return FALLBACK_CATEGORY


# --- statistics -------------------------------------------------------------


def impacted_resource_pct(impacted: int, total: int) -> float:
    """Share of distinct resources reached by at least one weakness,
    as a percentage with two decimal places."""
    if total == 0:
        raise ZeroTotal("no resources in the dataset")
    if not 0 <= impacted <= total:
        raise ValueError("impacted must be between 0 and total")
    return round(impacted / total * 100.0, 2)


def resources_per_weakness_stats(
    findings: list[Finding],
) -> Optional[tuple[int, int, int]]:
    """(min, median, max) of distinct sink-resource counts per weakness
    instance; None when there are no confirmed findings.  The median of an
    even-sized list is the lower middle element."""
    per_weakness: dict[tuple, set] = {}
    for f in findings:
        if f.sink is None:
            continue
        key = (f.manifest_path, f.category.value, f.weakness_location.line, f.weakness_location.column)
        per_weakness.setdefault(key, set()).add(f.sink.resource_key)
    if not per_weakness:
        return None
    counts = sorted(len(s) for s in per_weakness.values())
    median = counts[(len(counts) - 1) // 2]
    return (counts[0], median, counts[-1])


def compute_stats(
    findings: list[Finding],
    resources: list[ResourceInfo],
    taxonomy: Taxonomy = DEFAULT_TAXONOMY,
) -> dict:
    """The report's ``stats`` object: ``total_resources``,
    ``impacted_resources`` (distinct resources that some finding's sink
    is in), ``impacted_pct``, ``per_category {name: {resources, pct}}``
    over the impacted resources, sorted by name, and
    ``per_weakness_stats {min, median, max}``, or ``None`` when no finding
    has a sink."""
    total = len(resources)
    impacted_keys = {f.sink.resource_key for f in findings if f.sink is not None}
    impacted = len(impacted_keys)
    by_category: dict[str, int] = {}
    for _, rtype, rtitle, _ in impacted_keys:
        name = categorize_resource(rtype, rtitle, taxonomy)
        by_category[name] = by_category.get(name, 0) + 1
    per_weakness = resources_per_weakness_stats(findings)
    return {
        "total_resources": total,
        "impacted_resources": impacted,
        "impacted_pct": impacted_resource_pct(impacted, total) if total else 0.0,
        "per_category": {
            name: {"resources": count, "pct": round(count / impacted * 100.0, 2)}
            for name, count in sorted(by_category.items())
        },
        "per_weakness_stats": (
            None if per_weakness is None else dict(zip(("min", "median", "max"), per_weakness))
        ),
    }


# --- rendering ---------------------------------------------------------------


def _finding_sort_key(f: Finding):
    sink_key = (
        (f.sink.resource_type, f.sink.resource_title, f.sink.attribute_name, f.sink.ordinal)
        if f.sink is not None
        else ("", "", "", -1)
    )
    return (
        f.manifest_path,
        f.weakness_location.line,
        f.weakness_location.column,
        f.category.value,
        sink_key,
    )


def sorted_findings(findings: list[Finding]) -> list[Finding]:
    return sorted(findings, key=_finding_sort_key)


def render_report(
    findings: list[Finding],
    stats: dict,
    fmt: str,
    mode: str = "taint",
    evaluation: Optional[dict] = None,
) -> bytes:
    """Render findings and statistics to bytes.  Output is deterministic:
    findings are sorted by (manifest, location, category, sink)."""
    ordered = sorted_findings(findings)
    if fmt == "json":
        return _render_json(ordered, stats, mode, evaluation)
    if fmt == "text":
        return _render_text(ordered, stats, mode, evaluation)
    if fmt == "sarif":
        return _render_sarif(ordered, mode, evaluation)
    raise UnknownFormat(fmt)


def _put_array(out: list[str], items: list[str], indent: str) -> None:
    """Append to *out* a JSON array of already indented items, laid out as
    ``json.dumps(indent=2)`` lays out an array whose key sits at *indent*."""
    if not items:
        out.append("[]")
        return
    inner = indent + "  "
    out += (f"[\n{inner}", f",\n{inner}".join(items), f"\n{indent}]")


def _step_blocks(path, blocks: dict, build, *context) -> list[str]:
    """Each step's text, built by ``build(step, *context)`` the first time
    the step is seen.  *blocks* is keyed by ``id``: the findings being
    rendered keep every step alive."""
    texts = []
    for step in path:
        text = blocks.get(id(step))
        if text is None:
            text = blocks[id(step)] = build(step, *context)
        texts.append(text)
    return texts


def _json_step(s: PathStep) -> str:
    return (
        "{\n"
        f'          "kind": {_str(s.kind)},\n'
        f'          "label": {_str(s.label)},\n'
        f'          "line": {s.line!r},\n'
        f'          "column": {s.column!r}\n'
        "        }"
    )


def _json_finding(f: Finding) -> str:
    """A finding's text up to its path, which the caller appends."""
    sink = "null"
    if f.sink is not None:
        line = "null" if f.sink_location is None else repr(f.sink_location.line)
        sink = (
            "{\n"
            f'        "resource_type": {_str(f.sink.resource_type)},\n'
            f'        "resource_title": {_str(f.sink.resource_title)},\n'
            f'        "attribute": {_str(f.sink.attribute_name)},\n'
            f'        "line": {line}\n'
            "      }"
        )
    return (
        "{\n"
        f'      "category": {_str(f.category.value)},\n'
        f'      "manifest": {_str(f.manifest_path)},\n'
        f'      "line": {f.weakness_location.line!r},\n'
        f'      "column": {f.weakness_location.column!r},\n'
        f'      "name": {_str(f.weakness_name)},\n'
        f'      "sink": {sink},\n'
        '      "path": '
    )


def _render_json(findings, stats, mode, evaluation) -> bytes:
    head = json.dumps(
        {"version": VERSION, "mode": mode, "rule_semantics": RULE_SEMANTICS, "findings": []},
        indent=2,
    )
    tail = {"stats": stats}
    if evaluation is not None:
        tail["evaluation"] = evaluation
    out = [head[: -len("[]\n}")]]  # up to '"findings": '
    blocks: dict[int, str] = {}
    separator = "[\n    "
    for f in findings:
        out += (separator, _json_finding(f))
        _put_array(out, _step_blocks(f.path, blocks, _json_step), "      ")
        out.append("\n    }")
        separator = ",\n    "
    out.append("\n  ]," if findings else "[],")
    out.append(json.dumps(tail, indent=2)[1:] + "\n")  # from '\n  "stats"' on
    return "".join(out).encode("utf-8")


def _render_text(findings, stats, mode, evaluation) -> bytes:
    lines = []
    for f in findings:
        where = f"{f.manifest_path}:{f.weakness_location.line}:{f.weakness_location.column}"
        if f.sink is not None:
            sink_line = f.sink_location.line if f.sink_location else "?"
            lines.append(
                f"{where}: {f.category.value}: {f.weakness_name} -> "
                f"{f.sink.resource_type}[{f.sink.resource_title}]."
                f"{f.sink.attribute_name} (line {sink_line})"
            )
        else:
            lines.append(f"{where}: {f.category.value}: {f.weakness_name}")
    lines.append("")
    lines.append(
        f"{len(findings)} finding(s), mode={mode}; "
        f"{stats['impacted_resources']}/{stats['total_resources']} resources impacted "
        f"({stats['impacted_pct']:.2f}%)"
    )
    if evaluation is not None:
        overall = {k: ("NA" if v is None else v) for k, v in evaluation["overall"].items()}
        lines.append(
            "evaluation: precision={precision} recall={recall} f_measure={f_measure} "
            "(tp={tp} fp={fp} fn={fn})".format(**overall)
        )
    lines.append("")
    return "\n".join(lines).encode("utf-8")


_RULE_DESCRIPTIONS = {
    WeaknessCategory.ADMIN_BY_DEFAULT: "Administrative privileges assigned by default",
    WeaknessCategory.EMPTY_PASSWORD: "Zero-length string used for a password",
    WeaknessCategory.HARD_CODED_SECRET: "User name, password, or private key revealed in code",
    WeaknessCategory.INVALID_IP_BINDING: "Service bound to 0.0.0.0",
    WeaknessCategory.HTTP_WITHOUT_TLS: "HTTP used without TLS",
    WeaknessCategory.WEAK_CRYPTO_ALGORITHM: "MD5 or SHA1 used",
}


def _sarif_location(uri: str, line: int, column: int) -> str:
    """A SARIF ``physicalLocation`` value whose key sits 14 spaces in."""
    return (
        "{\n"
        '                "artifactLocation": {\n'
        f'                  "uri": {uri}\n'
        "                },\n"
        '                "region": {\n'
        f'                  "startLine": {line!r},\n'
        f'                  "startColumn": {column!r}\n'
        "                }\n"
        "              }"
    )


def _sarif_step(s: PathStep, uri: str) -> str:
    return (
        "{\n"
        f'              "physicalLocation": {_sarif_location(uri, s.line, s.column)},\n'
        '              "message": {\n'
        f'                "text": {_str(f"{s.kind}: {s.label}")}\n'
        "              }\n"
        "            }"
    )


def _sarif_result(f: Finding, uri: str) -> str:
    """A result's text up to its related locations, which the caller appends."""
    message = f"{_RULE_DESCRIPTIONS[f.category]}: {f.weakness_name}"
    if f.sink is not None:
        message += (
            f" propagates into {f.sink.resource_type}"
            f"[{f.sink.resource_title}].{f.sink.attribute_name}"
        )
    where = _sarif_location(uri, f.weakness_location.line, f.weakness_location.column)
    return (
        "{\n"
        f'          "ruleId": {_str(f.category.value)},\n'
        '          "level": "warning",\n'
        '          "message": {\n'
        f'            "text": {_str(message)}\n'
        "          },\n"
        '          "locations": [\n'
        "            {\n"
        f'              "physicalLocation": {where}\n'
        "            }\n"
        "          ],\n"
        '          "relatedLocations": '
    )


_SARIF_END = "[]\n    }\n  ]\n}"  # how an empty "results" array ends the document


def _render_sarif(findings, mode, evaluation) -> bytes:
    doc = {
        "$schema": "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/Schemata/sarif-schema-2.1.0.json",
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "pupsec",
                        "version": VERSION,
                        "rules": [
                            {
                                "id": cat.value,
                                "shortDescription": {"text": _RULE_DESCRIPTIONS[cat]},
                            }
                            for cat in WeaknessCategory
                        ],
                    }
                },
                "properties": {"mode": mode, "rule_semantics": RULE_SEMANTICS},
                "results": [],
            }
        ],
    }
    if evaluation is not None:
        doc["runs"][0]["properties"]["evaluation"] = evaluation
    out = [json.dumps(doc, indent=2)[: -len(_SARIF_END)]]  # up to '"results": '
    blocks: dict[str, dict[int, str]] = {}  # per manifest, as _step_blocks keys them
    separator = "[\n        "
    for f in findings:
        uri = _str(f.manifest_path)
        out += (separator, _sarif_result(f, uri))
        steps = blocks.setdefault(f.manifest_path, {})
        _put_array(out, _step_blocks(f.path, steps, _sarif_step, uri), "          ")
        out.append("\n        }")
        separator = ",\n        "
    out.append(("\n      ]" if findings else "[]") + _SARIF_END[2:] + "\n")
    return "".join(out).encode("utf-8")
