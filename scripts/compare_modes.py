#!/usr/bin/env python3
"""Compare taint mode against pattern-only mode on the labeled corpus.

Runs both modes over the bundled 20-manifest corpus, evaluates each
against the hand-labeled ground truth, and prints per-category and
overall precision and recall side by side, from the rates (rounded to
4 places) of the report's evaluation object.

Usage: python scripts/compare_modes.py [corpus_dir truth_csv]
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from pupsec.harness import RunConfig, evaluate, load_ground_truth, scan  # noqa: E402


def fmt(value):
    return "NA" if value is None else f"{value:.3f}"


def main() -> int:
    root = Path(__file__).resolve().parents[1]
    corpus = sys.argv[1] if len(sys.argv) > 1 else str(root / "tests/fixtures/corpus")
    truth_csv = sys.argv[2] if len(sys.argv) > 2 else str(root / "tests/fixtures/corpus_truth.csv")

    truth = load_ground_truth(truth_csv)
    metrics = {}
    for mode in ("pattern", "taint"):
        report = scan(RunConfig(inputs=(corpus,), mode=mode))
        metrics[mode] = evaluate(report, truth)
        print(f"{mode}: {len(report.findings)} finding(s)")

    print()
    print(f"{'category':<24} {'prec(pattern)':>14} {'prec(taint)':>12} "
          f"{'rec(pattern)':>13} {'rec(taint)':>11}")
    categories = sorted(
        set(metrics["pattern"]["per_category"]) | set(metrics["taint"]["per_category"])
    )
    for cat in categories:
        p = metrics["pattern"]["per_category"].get(cat, {})
        t = metrics["taint"]["per_category"].get(cat, {})
        print(f"{cat:<24} {fmt(p.get('precision')):>14} {fmt(t.get('precision')):>12} "
              f"{fmt(p.get('recall')):>13} {fmt(t.get('recall')):>11}")
    po, to = metrics["pattern"]["overall"], metrics["taint"]["overall"]
    print(f"{'overall':<24} {fmt(po['precision']):>14} {fmt(to['precision']):>12} "
          f"{fmt(po['recall']):>13} {fmt(to['recall']):>11}")
    print()
    if po["precision"] and to["precision"]:
        print(f"taint-mode precision is {to['precision'] / po['precision']:.2f}x pattern-mode "
              f"precision (recall {fmt(to['recall'])} in both modes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
