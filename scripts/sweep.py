#!/usr/bin/env python3
"""Size sweep: does any stage grow faster than linearly with manifest size?

Writes one `chain` and one `branchy` manifest (the benchmark's templates,
from perfbench/workloads.py) at each of 1k, 2k, 4k, 8k and 16k lines, and
times in-process taint-mode `scan()`s of each by CPU time, keeping the
best of three so that one noisy run does not read as growth.
Prints CPU seconds and microseconds per line for every size, then, per
template, how much the time per line grew from the smallest size to the
largest.  A flat time per line means linear cost.

Usage: python scripts/sweep.py
"""

import random
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from pupsec.harness import RunConfig, scan  # noqa: E402
from workloads import _branchy_text, _chain_text  # noqa: E402

SIZES = (1000, 2000, 4000, 8000, 16000)  # target line counts
REPEATS = 3  # scans per size; the fastest is reported


def chain_text(lines: int, expected: list) -> str:
    # a secret line, then per link one line plus a file resource every 4th
    return _chain_text("chain.pp", lines * 4 // 5, random.Random("sweep-chain"), expected)


def branchy_text(lines: int, expected: list) -> str:
    # ten lines per if/else block
    return _branchy_text("branchy.pp", lines // 10, random.Random("sweep-branchy"), expected)


TEMPLATES = {"chain": chain_text, "branchy": branchy_text}


def timed_scan(path: Path, expected_findings: int) -> float:
    start = time.process_time()
    report = scan(RunConfig(inputs=(str(path),)))
    elapsed = time.process_time() - start
    if report.skipped or len(report.findings) != expected_findings:
        raise SystemExit(
            f"{path.name}: {len(report.findings)} findings, {len(report.skipped)} skipped;"
            f" expected {expected_findings} findings"
        )
    return elapsed


def main() -> int:
    print(f"{'template':<8} {'lines':>6} {'cpu_s':>8} {'us/line':>8}")
    with tempfile.TemporaryDirectory(prefix="pupsec-sweep-") as tmp:
        for name, template in TEMPLATES.items():
            per_line = []
            for size in SIZES:
                expected: list = []
                text = template(size, expected)
                path = Path(tmp) / f"{name}_{size:05d}.pp"
                path.write_text(text, encoding="utf-8")
                # the first run of the first size also warms up imports and caches
                cpu_s = min(timed_scan(path, len(expected)) for _ in range(REPEATS))
                lines = text.count("\n")
                per_line.append(cpu_s / lines * 1e6)
                print(f"{name:<8} {lines:>6} {cpu_s:>8.3f} {per_line[-1]:>8.1f}", flush=True)
            print(
                f"{name}: us/line at {SIZES[-1]} lines is"
                f" {per_line[-1] / per_line[0]:.2f}x that at {SIZES[0]}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
