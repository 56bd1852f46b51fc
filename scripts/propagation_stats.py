#!/usr/bin/env python3
"""Propagation statistics for a manifest tree.

Scans a directory in taint mode and prints the impacted-resource share,
the per-category breakdown of affected resources, and the
min/median/max number of resources a single weakness propagates into.

Usage: python scripts/propagation_stats.py [dir ...]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pupsec.harness import RunConfig, scan  # noqa: E402


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    inputs = sys.argv[1:] or [str(root / "tests/fixtures")]
    report = scan(RunConfig(inputs=tuple(inputs), mode="taint"))
    stats = report.stats

    print(f"manifest inputs:     {', '.join(inputs)}")
    print(f"findings:            {len(report.findings)}")
    print(f"total resources:     {stats['total_resources']}")
    print(f"impacted resources:  {stats['impacted_resources']} ({stats['impacted_pct']:.2f}%)")
    per_weakness = stats["per_weakness_stats"]
    if per_weakness:
        print("resources per weakness (min, median, max): {min}, {median}, {max}".format(
            **per_weakness))
    print()
    print(f"{'resource category':<24} {'resources':>9} {'% of impacted':>14}")
    for name, cat in stats["per_category"].items():
        print(f"{name:<24} {cat['resources']:>9} {cat['pct']:>13.1f}%")
    if report.skipped:
        print()
        for path, reason in report.skipped:
            print(f"skipped {path}: {reason}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
