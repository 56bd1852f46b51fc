"""pupsec: taint-tracking security scanner for Puppet manifests.

Detects six categories of security weaknesses and confirms each finding
only when the tainted value provably propagates, via def-use
reachability, into an attribute of a resource.

``__all__`` is the public API: the scan and its configuration, the
per-manifest pipeline, the report and its records, the evaluation, the
default patterns and taxonomy, and the errors.  The stages and records
that pass between them are importable from their own modules
(``pupsec.classify``, ``pupsec.dataflow``, ``pupsec.ddg``,
``pupsec.rules``, ``pupsec.report``, ...).
"""

from .classify import AttributeId
from .errors import (
    ParseError,
    ScanError,
    UnknownFormat,
    UnknownPredicate,
    UnsupportedConstruct,
)
from .harness import (
    Report,
    RunConfig,
    analyze_manifest,
    evaluate,
    load_ground_truth,
    scan,
)
from .nodes import Manifest, SourceLocation
from .parser import parse_manifest
from .report import DEFAULT_TAXONOMY, Finding, PathStep, render_report
from .report import VERSION as __version__
from .rules import DEFAULT_PATTERNS, PatternSet, WeaknessCategory

__all__ = [
    "scan",
    "RunConfig",
    "Report",
    "analyze_manifest",
    "parse_manifest",
    "Manifest",
    "render_report",
    "load_ground_truth",
    "evaluate",
    "Finding",
    "PathStep",
    "AttributeId",
    "SourceLocation",
    "WeaknessCategory",
    "PatternSet",
    "DEFAULT_PATTERNS",
    "DEFAULT_TAXONOMY",
    "ScanError",
    "ParseError",
    "UnsupportedConstruct",
    "UnknownPredicate",
    "UnknownFormat",
]
