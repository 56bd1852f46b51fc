"""pupsec: taint-tracking security scanner for Puppet manifests.

Detects six categories of security weaknesses and confirms each finding
only when the tainted value provably propagates, via def-use
reachability, into an attribute of a resource.
"""

from .classify import (
    AttributeId,
    ClassifiedExpression,
    MembershipIndex,
    build_membership_index,
    classify_expressions,
    collect_function_calls,
)
from .dataflow import DataflowAnalysis
from .ddg import (
    DataDependenceGraph,
    PropagationResult,
    build_ddg,
    collect_propagations,
    confirm_findings,
)
from .errors import (
    ParseError,
    ScanError,
    UnknownFormat,
    UnknownPredicate,
    UnsupportedConstruct,
    ZeroTotal,
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
from .parser import parse_interpolation, parse_manifest
from .report import (
    DEFAULT_TAXONOMY,
    CorpusStats,
    Finding,
    categorize_resource,
    impacted_resource_pct,
    render_report,
    resources_per_weakness_stats,
)
from .report import VERSION as __version__
from .rules import (
    DEFAULT_PATTERNS,
    PatternSet,
    WeaknessCandidate,
    WeaknessCategory,
    detect_candidates,
    evaluate_predicate,
)

__all__ = [
    "AttributeId",
    "ClassifiedExpression",
    "CorpusStats",
    "DataDependenceGraph",
    "DataflowAnalysis",
    "DEFAULT_PATTERNS",
    "DEFAULT_TAXONOMY",
    "Finding",
    "Manifest",
    "MembershipIndex",
    "ParseError",
    "PatternSet",
    "PropagationResult",
    "Report",
    "RunConfig",
    "ScanError",
    "SourceLocation",
    "UnknownFormat",
    "UnknownPredicate",
    "UnsupportedConstruct",
    "WeaknessCandidate",
    "WeaknessCategory",
    "ZeroTotal",
    "analyze_manifest",
    "build_ddg",
    "build_membership_index",
    "categorize_resource",
    "classify_expressions",
    "collect_function_calls",
    "collect_propagations",
    "confirm_findings",
    "detect_candidates",
    "evaluate",
    "evaluate_predicate",
    "impacted_resource_pct",
    "load_ground_truth",
    "parse_interpolation",
    "parse_manifest",
    "render_report",
    "resources_per_weakness_stats",
    "scan",
]
