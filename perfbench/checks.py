"""Output checks that decide which files a scan got wrong.

A file's outcome is wrong when it was skipped but should have been
scanned or the reverse, or when its part of the report fails a check.
None of the references comes from the report under test: they are the
workload's construction, a scan of the same files at another worker
count, or the same scan in pattern mode.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import Optional

from workloads import Workload


def findings_by_file(report: bytes) -> dict[str, list[dict]]:
    grouped: dict[str, list[dict]] = defaultdict(list)
    for finding in json.loads(report)["findings"]:
        grouped[Path(finding["manifest"]).name].append(finding)
    return grouped


def _sink_label(finding: dict) -> str:
    s = finding["sink"]
    return f"{s['resource_type']}[{s['resource_title']}].{s['attribute']}"


def _as_expected(finding: dict) -> tuple:
    path = tuple((p["kind"], p["label"], p["line"]) for p in finding["path"])
    return (finding["line"], finding["category"], _sink_label(finding), finding["sink"]["line"], path)


def _weakness(finding: dict) -> tuple:
    return (finding["category"], finding["line"], finding["column"], finding["name"])


def failed_files(
    workload: Workload,
    report: Optional[bytes],
    skipped: set[str],
    reference: Optional[bytes] = None,
    pattern: Optional[bytes] = None,
) -> set[str]:
    """Names of the workload's files whose outcome in *report* is wrong.

    *report* is None for an aborted scan, which fails every file.  When
    given, *reference* is a report of the same files that must be
    byte-identical, and *pattern* a pattern-mode report whose findings
    must include every taint finding."""
    every = set(workload.files)
    if report is None:
        return every
    failed = skipped ^ workload.broken
    found = findings_by_file(report)
    if reference is not None and reference != report:
        ref = findings_by_file(reference)
        differing = {name for name in every if found.get(name, []) != ref.get(name, [])}
        failed |= differing or every  # equal findings: the report-wide stats differ
    if pattern is not None:
        allowed = findings_by_file(pattern)
        for name, findings in found.items():
            if not {_weakness(f) for f in findings} <= {_weakness(f) for f in allowed.get(name, [])}:
                failed.add(name)
    if workload.expected is not None:
        expected: dict[str, list[tuple]] = defaultdict(list)
        for e in workload.expected:
            expected[e.file].append((e.line, e.category, e.sink, e.sink_line, e.path))
        for name in every:
            if sorted(map(_as_expected, found.get(name, []))) != sorted(expected.get(name, [])):
                failed.add(name)
    return failed & every
