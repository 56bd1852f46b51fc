"""Per-layer tracing of pupsec's real scan pipeline.

Inside ``with tracer.installed():`` the module-level names through which
``pupsec.harness`` calls each layer are replaced by wrappers that record
a span around the original call, with counters taken from its arguments
and result.  Two names outside the harness are wrapped as well, so that
nested work shows as child spans: ``pupsec.parser.tokenize``, which
``parse_manifest`` calls for the manifest and again for every ``${...}``
body, and ``pupsec.ddg.DataflowAnalysis``, which ``build_ddg`` builds.
Nothing else is called: a traced ``scan()`` does exactly the work of an
untraced one.

Spans nest through one shared pointer to the open span, so a traced scan
must run with one worker.  Spans stay in memory until ``Tracer.write``.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

import pupsec.ddg
import pupsec.harness
import pupsec.parser


@dataclass
class Span:
    name: str
    start: float
    parent: Optional[int]  # index of the enclosing span
    request: str  # the manifest path, or "*" for corpus-wide work
    end: float = 0.0
    failed: bool = False  # the call raised
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


Counter = Callable[[tuple, object], dict[str, int]]


def _path_steps(args: tuple, propagations) -> dict[str, int]:
    return {"path_steps": sum(len(p) for r in propagations for p in r.paths.values())}


def _graph(args: tuple, ddg) -> dict[str, int]:
    counts = {"with_candidates": int(bool(args[1])), "graphs": int(ddg is not None)}
    if ddg is not None:
        counts.update(nodes=len(ddg.nodes), edges=len(ddg.edges))
    return counts


# (module, attribute, span name, counters).  The harness names are the
# calls ``_analyze_file`` and ``scan`` make; ``scan``'s worker pool looks
# ``_analyze_file`` up as a module global on every call.
TRACED: tuple[tuple[object, str, str, Optional[Counter]], ...] = (
    (pupsec.harness, "_analyze_file", "harness.analyze_file", None),
    (pupsec.parser, "tokenize", "lexer.tokenize", lambda a, r: {"tokens": len(r)}),
    (pupsec.harness, "parse_manifest", "parser.parse_manifest", None),
    (pupsec.harness, "classify_expressions", "classify.classify_expressions",
     lambda a, r: {"expressions": len(r)}),
    (pupsec.harness, "build_membership_index", "classify.build_membership_index",
     lambda a, r: {"resources": len(r.resource_list)}),
    (pupsec.harness, "collect_function_calls", "classify.collect_function_calls",
     lambda a, r: {"call_sites": len(r)}),
    (pupsec.harness, "detect_candidates", "rules.detect_candidates",
     lambda a, r: {"candidates": len(r)}),
    (pupsec.ddg, "DataflowAnalysis", "dataflow.DataflowAnalysis",
     lambda a, r: {"definitions": len(r.definitions), "use_records": len(r.use_records)}),
    (pupsec.harness, "build_ddg", "ddg.build_ddg", _graph),
    (pupsec.harness, "collect_propagations", "ddg.collect_propagations", _path_steps),
    (pupsec.harness, "confirm_findings", "ddg.confirm_findings",
     lambda a, r: {"confirmed": len({(f.category, f.weakness_location) for f in r})}),
    (pupsec.harness, "compute_stats", "report.compute_stats", None),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: Optional[int] = None

    def call(self, name: str, fn: Callable, *args, counter: Optional[Counter] = None,
             request: Optional[str] = None):
        """Call ``fn(*args)`` inside a span; calls it makes through a
        traced name become child spans."""
        parent = self._open
        if request is None:
            request = self.spans[parent].request if parent is not None else "*"
        self._open = len(self.spans)
        span = Span(name, time.perf_counter(), parent, request)
        self.spans.append(span)
        try:
            result = fn(*args)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._open = parent
        if counter is not None:
            span.counts = counter(args, result)
        return result

    def _wrapper(self, name: str, fn: Callable, counter: Optional[Counter]) -> Callable:
        if name == "harness.analyze_file":
            return lambda path, *rest: self.call(name, fn, path, *rest, request=path)
        return lambda *args: self.call(name, fn, *args, counter=counter)

    @contextmanager
    def installed(self):
        """Trace every call made through the names in ``TRACED``."""
        originals = [(module, attr, getattr(module, attr)) for module, attr, _, _ in TRACED]
        try:
            for (module, attr, name, counter), (_, _, fn) in zip(TRACED, originals):
                setattr(module, attr, self._wrapper(name, fn, counter))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)

    def total(self, name: str) -> float:
        """Summed duration of the spans called *name*."""
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        """Summed duration of the spans called *name* minus their children's."""
        total = 0.0
        for s in self.spans:
            if s.name == name:
                total += s.seconds
            elif s.parent is not None and self.spans[s.parent].name == name:
                total -= s.seconds
        return total

    def count(self, name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in self.spans if s.name == name)

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": s.name, "start": s.start, "end": s.end,
                                     "parent": s.parent, "request": s.request,
                                     "failed": s.failed, "counts": s.counts}) + "\n")


def _manifest_tokenize_spans(t: Tracer) -> list[Span]:
    """The tokenize of the whole text in each manifest that parsed: the
    first tokenize under a ``parse_manifest`` that did not raise.  Later
    ones lex ``${...}`` bodies."""
    seen: set[int] = set()
    spans = []
    for s in t.spans:
        if s.name == "lexer.tokenize" and s.parent not in seen:
            parent = t.spans[s.parent] if s.parent is not None else None
            if parent is not None and parent.name == "parser.parse_manifest":
                seen.add(s.parent)
                if not parent.failed:
                    spans.append(s)
    return spans


def layer_metrics(t: Tracer) -> dict[str, float]:
    """Per-layer seconds and counts of one traced scan plus render."""
    manifest_lex = _manifest_tokenize_spans(t)
    tokens = sum(s.counts["tokens"] for s in manifest_lex)
    candidates = t.count("rules.detect_candidates", "candidates")
    return {
        "lexer.self_s": t.total("lexer.tokenize"),
        "lexer.tokens": tokens,
        "lexer.tokens_per_s": tokens / sum(s.seconds for s in manifest_lex),
        "parser.self_s": t.self_time("parser.parse_manifest"),
        "classify.expressions_s": t.total("classify.classify_expressions"),
        "classify.index_s": t.total("classify.build_membership_index"),
        "classify.calls_s": t.total("classify.collect_function_calls"),
        "classify.expressions": t.count("classify.classify_expressions", "expressions"),
        "classify.resources": t.count("classify.build_membership_index", "resources"),
        "classify.call_sites": t.count("classify.collect_function_calls", "call_sites"),
        "rules.self_s": t.total("rules.detect_candidates"),
        "rules.candidates": candidates,
        "dataflow.self_s": t.total("dataflow.DataflowAnalysis"),
        "dataflow.definitions": t.count("dataflow.DataflowAnalysis", "definitions"),
        "dataflow.use_records": t.count("dataflow.DataflowAnalysis", "use_records"),
        "ddg.build_s": t.self_time("ddg.build_ddg"),
        "ddg.graph_ratio": t.count("ddg.build_ddg", "graphs")
        / max(t.count("ddg.build_ddg", "with_candidates"), 1),
        "ddg.nodes": t.count("ddg.build_ddg", "nodes"),
        "ddg.edges": t.count("ddg.build_ddg", "edges"),
        "ddg.paths_s": t.total("ddg.collect_propagations"),
        "ddg.path_steps": t.count("ddg.collect_propagations", "path_steps"),
        "ddg.confirm_s": t.total("ddg.confirm_findings"),
        "ddg.confirm_ratio": t.count("ddg.confirm_findings", "confirmed") / max(candidates, 1),
        "report.stats_s": t.total("report.compute_stats"),
        "report.render_s": t.total("report.render_report"),
        "report.bytes": t.count("report.render_report", "bytes"),
        # scan() minus the per-file calls and compute_stats: gathering,
        # the worker pool, merging and sorting.
        "harness.overhead_s": t.self_time("harness.scan"),
    }
