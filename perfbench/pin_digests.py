#!/usr/bin/env python3
"""Rewrite perfbench/digests.json from the current generators.

Usage: python3 perfbench/pin_digests.py

Run it only when a workload is changed on purpose: the benchmark refuses
to run when a workload generated for seed 0 no longer matches its pinned
digest.
"""

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    scratch = HERE.parent / ".perfbench" / "pin"
    pinned = {name: generate(0, scratch).digest() for name, generate in workloads.GENERATORS.items()}
    shutil.rmtree(scratch)
    (HERE / "digests.json").write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
