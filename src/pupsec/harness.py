"""The per-file pipeline, batch scanning and ground-truth evaluation.

``analyze_manifest`` is the one place that spells the stage order after
parsing: index and classify, rule match, and in taint mode DDG
confirmation.  ``scan`` reads and parses each ``.pp`` file of its inputs,
one at a time in sorted path order, and runs that pipeline on it.  Every
stage is looked up in this module's globals at call time, so a tracer or
a test can wrap one by replacing its name here.

A report's statistics and evaluation are plain data: ``Report.stats`` is
the ``stats`` object that the report prints, ``load_ground_truth`` returns
the set of labels, and ``evaluate`` returns the ``evaluation`` object.
"""

from __future__ import annotations

import csv
import gc
import io
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .classify import (
    ResourceInfo,
    build_membership_index,
    classify_expressions,
    collect_function_calls,
)
from .ddg import build_ddg, collect_propagations, confirm_findings
from .errors import ScanError
from .nodes import Manifest
from .parser import parse_manifest
from .report import Finding, DEFAULT_TAXONOMY, compute_stats, load_taxonomy, sorted_findings
from .rules import (
    DEFAULT_PATTERNS,
    PatternSet,
    WeaknessCategory,
    detect_candidates,
    load_pattern_overrides,
)


@dataclass(slots=True, unsafe_hash=True)
class RunConfig:
    inputs: tuple[str, ...]
    mode: str = "taint"  # 'taint' | 'pattern'
    taxonomy_path: Optional[str] = None
    patterns_path: Optional[str] = None
    on_parse_error: str = "skip"  # 'skip' | 'abort'
    jobs: int = 0  # accepted for compatibility; has no effect


@dataclass(slots=True)
class Report:
    mode: str
    findings: tuple[Finding, ...]
    stats: dict  # the report's ``stats`` object, as ``compute_stats`` returns it
    skipped: tuple[tuple[str, str], ...] = ()  # (path, reason) for skipped files


@dataclass(slots=True, unsafe_hash=True)
class _FileResult:
    path: str
    findings: tuple[Finding, ...]
    resources: tuple[ResourceInfo, ...]
    error: Optional[str]
    abort_as: str = "parse failure in"  # what the error is called under on_parse_error='abort'
    skip_as: str = ""  # what the skip reason puts before the error


def _pp_paths(directory: str) -> list[str]:
    """What ``Path(directory).glob("**/*.pp")`` yields on Python 3.11, spelled
    the same, in no set order: every entry whose name ends in ``.pp`` under
    *directory*, directories and dangling links included.  The walk enters
    a directory only when it is one and not a link to one, and a directory
    it may not list adds nothing.  *directory* is spelled as ``str(Path)``
    spells it, so the children of ``.`` are bare names."""
    found: list[str] = []
    stack = [directory]
    while stack:
        parent = stack.pop()
        prefix = "" if parent == "." else parent if parent.endswith("/") else parent + "/"
        try:
            with os.scandir(parent) as listing:
                entries = list(listing)
        except PermissionError:
            continue
        for entry in entries:
            path = prefix + entry.name
            if path.endswith(".pp"):
                found.append(path)
            if entry.is_dir(follow_symlinks=False):
                stack.append(path)
    return found


def _gather_manifests(inputs: tuple[str, ...]) -> list[str]:
    """The ``.pp`` files that *inputs* name, each once, in sorted order: a
    file as given, and each ``.pp`` entry under a directory (see
    ``_pp_paths``).  An input that does not exist raises
    ``FileNotFoundError``."""
    paths: list[str] = []
    for item in inputs:
        p = Path(item)
        if not p.exists():
            raise FileNotFoundError(f"input path does not exist: {item}")
        if p.is_dir():
            paths.extend(_pp_paths(str(p)))
        else:
            paths.append(str(p))
    # Overlapping inputs name one file in several spellings; keep the
    # shortest spelling of each absolute path, so each file is scanned once.
    spelling: dict[str, str] = {}
    for path in sorted(set(paths), key=lambda s: (len(s), s)):
        spelling.setdefault(os.path.abspath(path), path)
    return sorted(spelling.values())


def analyze_manifest(
    manifest: Manifest, mode: str = "taint", patterns: PatternSet = DEFAULT_PATTERNS
) -> tuple[tuple[Finding, ...], tuple[ResourceInfo, ...]]:
    """The post-parse pipeline of one manifest: its findings in candidate
    order, and its resources.  In ``pattern`` mode each rule candidate is a
    finding with no sink; in ``taint`` mode only the candidates whose value
    reaches a resource are.  Any other *mode* raises ``ValueError``."""
    if mode not in ("taint", "pattern"):
        raise ValueError(f"unknown mode: {mode!r}")
    index = build_membership_index(manifest)
    candidates = detect_candidates(
        classify_expressions(index), collect_function_calls(index), patterns
    )
    if mode == "pattern":
        findings = tuple(
            Finding(
                category=c.category,
                manifest_path=manifest.path,
                weakness_location=c.location,
                weakness_name=c.display_name,
                sink=None,
                sink_location=None,
                path=(),
            )
            for c in candidates
        )
    else:
        ddg = build_ddg(manifest, candidates, index)
        findings = () if ddg is None else tuple(confirm_findings(collect_propagations(ddg)))
    return findings, index.resource_list


def _analyze_file(path: str, mode: str, patterns: PatternSet) -> _FileResult:
    """One file's findings and resources, or the reason it is skipped.  An
    exception after parsing is a fault of the scanner, not of the file: it
    skips the file as an internal error instead of ending the scan."""
    try:
        # A UTF-8 byte-order mark is encoding, not text; one anywhere else
        # is still an unexpected character.
        with open(path, encoding="utf-8") as fh:
            text = fh.read().removeprefix("\ufeff")
        manifest = parse_manifest(text, path)
    except OSError as exc:
        return _FileResult(path, (), (), str(exc), abort_as="cannot read")
    except UnicodeDecodeError as exc:
        return _FileResult(path, (), (), str(exc), abort_as="cannot decode")
    except ScanError as exc:
        return _FileResult(path, (), (), str(exc))
    try:
        findings, resources = analyze_manifest(manifest, mode, patterns)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
        return _FileResult(
            path, (), (), error, abort_as="internal error in", skip_as="internal error: "
        )
    return _FileResult(path, findings, resources, None)


def scan(config: RunConfig) -> Report:
    """Scan all manifests named by the config and aggregate one report.

    Files are analyzed one at a time in sorted path order.  Under
    ``on_parse_error='abort'`` the first file that fails stops the scan.

    The cyclic garbage collector is paused while the files are analyzed.
    The pipeline makes no reference cycles, so every object it frees goes
    by reference counting and a collection would only re-walk the live
    tokens and trees.  The caller's collector state is restored when the
    file loop ends, also when it raises."""
    if config.mode not in ("taint", "pattern"):
        raise ValueError(f"unknown mode: {config.mode!r}")
    if config.on_parse_error not in ("skip", "abort"):
        raise ValueError(f"unknown on_parse_error policy: {config.on_parse_error!r}")
    patterns = (
        load_pattern_overrides(config.patterns_path)
        if config.patterns_path
        else DEFAULT_PATTERNS
    )
    taxonomy = load_taxonomy(config.taxonomy_path) if config.taxonomy_path else DEFAULT_TAXONOMY

    findings: list[Finding] = []
    resources: list[ResourceInfo] = []
    skipped: list[tuple[str, str]] = []
    # Safe because the pipeline makes no cycles: test_scan_leaves_no_cyclic_garbage.
    enabled = gc.isenabled()
    gc.disable()
    try:
        for path in _gather_manifests(config.inputs):
            result = _analyze_file(path, config.mode, patterns)
            if result.error is not None:
                if config.on_parse_error == "abort":
                    raise ScanError(f"{result.abort_as} {result.path}: {result.error}")
                skipped.append((result.path, result.skip_as + result.error))
                continue
            findings.extend(result.findings)
            resources.extend(result.resources)
    finally:
        if enabled:
            gc.enable()

    return Report(
        mode=config.mode,
        findings=tuple(sorted_findings(findings)),
        stats=compute_stats(findings, resources, taxonomy),
        skipped=tuple(skipped),
    )


# --- ground truth evaluation --------------------------------------------------


def load_ground_truth(path: str) -> set[tuple[str, str, int]]:
    """Read a header-bearing CSV of labeled true weaknesses into the set of
    their ``(absolute manifest path, category value, line)`` labels.
    Manifest paths are taken relative to the CSV file's own directory.  A
    file that is not UTF-8 or a malformed row raises ``ValueError`` naming
    the file (and the row's line); so does a duplicate row, a row that no
    finding could match, one with an empty manifest path, a directory or a
    line below 1.  A UTF-8 byte-order mark is skipped."""
    base = Path(path).resolve().parent
    labels: set[tuple[str, str, int]] = set()
    valid = {c.value for c in WeaknessCategory}
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    reader = csv.DictReader(io.StringIO(text, newline=""))
    required = ("manifest_path", "category", "line")
    if reader.fieldnames is None or not set(required).issubset(reader.fieldnames):
        raise ValueError(f"{path}: ground truth needs columns {sorted(required)}")
    for row in reader:
        where = f"{path}: row {reader.line_num}"
        missing = [name for name in required if row[name] is None]
        if missing:
            raise ValueError(f"{where}: no {', '.join(missing)}")
        category = row["category"].strip()
        if category not in valid:
            raise ValueError(f"{where}: unknown category {row['category']!r}")
        try:
            line = int(row["line"])
        except ValueError:
            raise ValueError(f"{where}: line {row['line']!r} is not a number") from None
        if line < 1:
            raise ValueError(f"{where}: line {line} is not a positive number")
        manifest = row["manifest_path"].strip()
        if not manifest:
            raise ValueError(f"{where}: manifest_path is empty")
        resolved = str((base / manifest).resolve())  # an absolute manifest replaces base
        if os.path.isdir(resolved):
            raise ValueError(f"{where}: manifest_path {manifest!r} is a directory")
        key = (resolved, category, line)
        if key in labels:
            raise ValueError(f"{where}: duplicate ground truth entry {key}")
        labels.add(key)
    return labels


def _metric_row(found: set, labeled: set) -> dict:
    """One row of the evaluation: counts, and rates rounded to 4 places
    (None where a rate's denominator is 0)."""
    tp, fp, fn = len(found & labeled), len(found - labeled), len(labeled - found)
    precision = tp / (tp + fp) if tp + fp > 0 else None
    recall = tp / (tp + fn) if tp + fn > 0 else None
    f_measure = None
    if precision is not None and recall is not None and precision + recall > 0:
        f_measure = 2 * precision * recall / (precision + recall)
    rnd = lambda x: None if x is None else round(x, 4)
    return {
        "tp": tp, "fp": fp, "fn": fn,
        "precision": rnd(precision), "recall": rnd(recall), "f_measure": rnd(f_measure),
    }


def evaluate(report: Report, truth: set[tuple[str, str, int]]) -> dict:
    """Precision/recall/F-measure of the report against the labels that
    ``load_ground_truth`` returns, matched at (manifest, category, line)
    granularity.  A weakness that reaches several sinks counts once.  The
    result is the report's ``evaluation`` object: ``{"overall": row,
    "per_category": {category: row}}``, with a row for each category that
    is found or labeled, in sorted order."""
    found = {
        (str(Path(f.manifest_path).resolve()), f.category.value, f.weakness_location.line)
        for f in report.findings
    }
    per_category = {
        category: _metric_row(
            {k for k in found if k[1] == category}, {k for k in truth if k[1] == category}
        )
        for category in sorted({k[1] for k in found} | {k[1] for k in truth})
    }
    return {"overall": _metric_row(found, truth), "per_category": per_category}
