#!/usr/bin/env python3
"""Size sweep: does any stage grow faster than linearly with manifest size?

Writes manifests of four shapes at several sizes and times in-process
taint-mode `scan()`s of each by CPU time, keeping the best of three so
that one noisy run does not read as growth, then times `render_report`
to JSON on the scan's report the same way.
- `chain` and `branchy` are the benchmark's templates (from
  perfbench/workloads.py), at 1k, 2k, 4k, 8k and 16k lines.
- `relay`: one secret, then links that each read only the link before,
  every 4th link written to a file.  Each witness path runs from the
  secret to its sink, so the report grows quadratically with the lines.
- `many`: a secret per link, each link reads its own secret and the link
  before, every 4th link written to a file.  Every earlier secret reaches
  every later sink, so the report grows cubically: `many` stops at 600
  lines, where the JSON report is about 100 MB.
Each scan must give the finding count its shape has by construction.
Prints the findings, scan and render CPU seconds and the scan's
microseconds per line for every size, then, per template, how much the
scan time per line grew from the smallest size to the largest.  A flat
time per line means linear cost.

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
from pupsec.report import render_report  # noqa: E402
from workloads import _branchy_text, _chain_text  # noqa: E402

SIZES = (1000, 2000, 4000, 8000, 16000)  # target line counts
REPEATS = 3  # runs per size; the fastest is reported


def chain_text(lines: int) -> tuple[str, int]:
    # a secret line, then per link one line plus a file resource every 4th
    expected: list = []
    text = _chain_text("chain.pp", lines * 4 // 5, random.Random("sweep-chain"), expected)
    return text, len(expected)


def branchy_text(lines: int) -> tuple[str, int]:
    # ten lines per if/else block
    expected: list = []
    text = _branchy_text("branchy.pp", lines // 10, random.Random("sweep-branchy"), expected)
    return text, len(expected)


def relay_text(lines: int) -> tuple[str, int]:
    # a secret line, then per link one line plus a file resource every 4th:
    # one finding per file
    text = ["$db_password = 's3cret'"]
    findings = 0
    for i in range(lines * 4 // 5):
        text.append(f'$link_{i} = "${{link_{i - 1}}}-{i}"' if i else '$link_0 = "${db_password}"')
        if i % 4 == 0:
            text.append(f"file {{ '/srv/relay/{i}': content => $link_{i} }}")
            findings += 1
    return "\n".join(text) + "\n", findings


def many_text(lines: int) -> tuple[str, int]:
    # per link a secret line and a link line, plus a file resource every 4th:
    # the file at link i is reached by the i + 1 secrets up to it
    text = []
    findings = 0
    for i in range(lines * 4 // 9):
        text.append(f"$db_password_{i} = 's3cret-{i}'")
        prev = f"-${{link_{i - 1}}}" if i else ""
        text.append(f'$link_{i} = "${{db_password_{i}}}{prev}"')
        if i % 4 == 0:
            text.append(f"file {{ '/srv/many/{i}': content => $link_{i} }}")
            findings += i + 1
    return "\n".join(text) + "\n", findings


TEMPLATES = {
    "chain": (chain_text, SIZES),
    "branchy": (branchy_text, SIZES),
    "relay": (relay_text, (250, 500, 1000, 2000)),
    "many": (many_text, (75, 150, 300, 600)),
}


def timed_scan(path: Path, expected_findings: int) -> tuple[float, float]:
    """CPU seconds of the scan of *path* and of rendering its report to JSON."""
    start = time.process_time()
    report = scan(RunConfig(inputs=(str(path),)))
    scanned = time.process_time()
    render_report(list(report.findings), report.stats, "json")
    rendered = time.process_time()
    if report.skipped or len(report.findings) != expected_findings:
        raise SystemExit(
            f"{path.name}: {len(report.findings)} findings, {len(report.skipped)} skipped;"
            f" expected {expected_findings} findings"
        )
    return scanned - start, rendered - scanned


def main() -> int:
    print(f"{'template':<8} {'lines':>6} {'findings':>8} {'cpu_s':>8} {'render_s':>8} {'us/line':>8}")
    with tempfile.TemporaryDirectory(prefix="pupsec-sweep-") as tmp:
        for name, (template, sizes) in TEMPLATES.items():
            per_line = []
            for size in sizes:
                text, findings = template(size)
                path = Path(tmp) / f"{name}_{size:05d}.pp"
                path.write_text(text, encoding="utf-8")
                # the first run of the first size also warms up imports and caches
                runs = [timed_scan(path, findings) for _ in range(REPEATS)]
                cpu_s = min(scan_s for scan_s, _ in runs)
                render_s = min(render_s for _, render_s in runs)
                lines = text.count("\n")
                per_line.append(cpu_s / lines * 1e6)
                print(
                    f"{name:<8} {lines:>6} {findings:>8} {cpu_s:>8.3f} {render_s:>8.3f}"
                    f" {per_line[-1]:>8.1f}",
                    flush=True,
                )
            print(
                f"{name}: us/line at {sizes[-1]} lines is"
                f" {per_line[-1] / per_line[0]:.2f}x that at {sizes[0]}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
