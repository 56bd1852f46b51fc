"""The ``json.dumps(indent=2)`` renderers that ``pupsec.report``'s
fixed-schema emitters replaced.

Kept as a test oracle, as ``reference_parser.py`` is for the parser: the
differential tests in ``test_report.py`` require ``render_report`` to
return the same bytes as ``render_json`` and ``render_sarif`` here, which
build each report as a dict and encode it with the standard library.
"""

from __future__ import annotations

import json

from pupsec.report import _RULE_DESCRIPTIONS, VERSION, Finding, sorted_findings
from pupsec.rules import RULE_SEMANTICS, WeaknessCategory


def render_json(findings, stats, mode="taint", evaluation=None) -> bytes:
    return _render_json(sorted_findings(findings), stats, mode, evaluation)


def render_sarif(findings, mode="taint", evaluation=None) -> bytes:
    return _render_sarif(sorted_findings(findings), mode, evaluation)


def _finding_to_dict(f: Finding) -> dict:
    sink = None
    if f.sink is not None:
        sink = {
            "resource_type": f.sink.resource_type,
            "resource_title": f.sink.resource_title,
            "attribute": f.sink.attribute_name,
            "line": f.sink_location.line if f.sink_location else None,
        }
    return {
        "category": f.category.value,
        "manifest": f.manifest_path,
        "line": f.weakness_location.line,
        "column": f.weakness_location.column,
        "name": f.weakness_name,
        "sink": sink,
        "path": [
            {"kind": s.kind, "label": s.label, "line": s.line, "column": s.column}
            for s in f.path
        ],
    }


def _render_json(findings, stats, mode, evaluation) -> bytes:
    doc = {
        "version": VERSION,
        "mode": mode,
        "rule_semantics": RULE_SEMANTICS,
        "findings": [_finding_to_dict(f) for f in findings],
        "stats": stats,
    }
    if evaluation is not None:
        doc["evaluation"] = evaluation
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def _render_sarif(findings, mode, evaluation) -> bytes:
    results = []
    for f in findings:
        related = [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": f.manifest_path},
                    "region": {"startLine": step.line, "startColumn": step.column},
                },
                "message": {"text": f"{step.kind}: {step.label}"},
            }
            for step in f.path
        ]
        message = f"{_RULE_DESCRIPTIONS[f.category]}: {f.weakness_name}"
        if f.sink is not None:
            message += (
                f" propagates into {f.sink.resource_type}"
                f"[{f.sink.resource_title}].{f.sink.attribute_name}"
            )
        results.append(
            {
                "ruleId": f.category.value,
                "level": "warning",
                "message": {"text": message},
                "locations": [
                    {
                        "physicalLocation": {
                            "artifactLocation": {"uri": f.manifest_path},
                            "region": {
                                "startLine": f.weakness_location.line,
                                "startColumn": f.weakness_location.column,
                            },
                        }
                    }
                ],
                "relatedLocations": related,
            }
        )
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
                "results": results,
            }
        ],
    }
    if evaluation is not None:
        doc["runs"][0]["properties"]["evaluation"] = evaluation
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")
