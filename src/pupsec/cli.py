"""Command-line interface.

Exit codes: 0 clean run, 1 findings present with --fail-on-findings,
2 fatal error (bad input, abort on parse failure, IO error).
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .errors import ScanError
from .harness import RunConfig, evaluate, load_ground_truth, scan
from .report import render_report


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pupsec",
        description="Detect security weaknesses in Puppet manifests and "
        "confirm which ones propagate into resources.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    scan_p = sub.add_parser("scan", help="scan manifests or directories of manifests")
    scan_p.add_argument("paths", nargs="+", help="manifest files or directories (globs **/*.pp)")
    scan_p.add_argument("--mode", choices=["taint", "pattern"], default="taint",
                        help="taint: confirm propagation into resources; "
                        "pattern: rule matching only")
    scan_p.add_argument("--format", choices=["json", "text", "sarif"], default="json")
    scan_p.add_argument("--taxonomy", metavar="FILE", help="resource taxonomy override (JSON)")
    scan_p.add_argument("--patterns", metavar="FILE", help="rule pattern override (JSON)")
    scan_p.add_argument("--ground-truth", metavar="FILE",
                        help="labeled weaknesses CSV for precision/recall evaluation")
    scan_p.add_argument("--fail-on-findings", action="store_true",
                        help="exit 1 when any finding is reported")
    scan_p.add_argument("--jobs", type=int, metavar="N",
                        help="accepted for compatibility; has no effect, "
                        "files are scanned one at a time")
    scan_p.add_argument("--on-parse-error", choices=["skip", "abort"], default="skip")
    scan_p.add_argument("--out", metavar="FILE", help="write the report here instead of stdout")
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    config = RunConfig(
        inputs=tuple(args.paths),
        mode=args.mode,
        taxonomy_path=args.taxonomy,
        patterns_path=args.patterns,
        on_parse_error=args.on_parse_error,
    )
    try:
        report = scan(config)
        evaluation = None
        if args.ground_truth:
            evaluation = evaluate(report, load_ground_truth(args.ground_truth))
        payload = render_report(
            list(report.findings), report.stats, args.format,
            mode=report.mode, evaluation=evaluation,
        )
    except (ScanError, OSError, ValueError) as exc:
        print(f"pupsec: error: {exc}", file=sys.stderr)
        return 2

    for path, reason in report.skipped:
        print(f"pupsec: skipped {path}: {reason}", file=sys.stderr)

    if args.out:
        try:
            with open(args.out, "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            print(f"pupsec: error: cannot write {args.out}: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()

    if args.fail_on_findings and report.findings:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
