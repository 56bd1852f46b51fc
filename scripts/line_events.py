#!/usr/bin/env python3
"""Count the lines each pupsec module runs while scanning a tree.

Reads the first N sorted `*.pp` files under TREE (all of them without
`--files`), then runs `parse_manifest` plus taint-mode `analyze_manifest`
on each under `sys.settrace` and prints the line events of each module of
the `pupsec` package, largest first, and their total.  A file that does
not parse counts the lines run until the parser gave up; one that is not
UTF-8 counts none.  The counts are exact and the same for any hash seed,
so they show a change in work where a CPU time on a noisy machine cannot.
Only lines in the files of the `pupsec` package count: Python code that
the package runs inside a standard-library helper (such as
`collections.ChainMap`'s lookups) is not counted, so moving work out of
such a helper into `pupsec` raises the count while the CPU time can fall.

With `--parent SRC` the count runs twice, each in a subprocess: once with
this tree's `pupsec` package and once with the one under SRC, the `src`
directory of another tree.  The table shows both sides and the change.

Usage: python scripts/line_events.py TREE [--files N] [--parent SRC]
"""

import argparse
import collections
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# Run in each subprocess of `--parent`: count with the package at argv[1].
_CHILD = """
import importlib.util, json, sys
sys.path.insert(0, sys.argv[1])
spec = importlib.util.spec_from_file_location("line_events", sys.argv[2])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
print(json.dumps(module.count_line_events(sys.argv[3], int(sys.argv[4]))))
"""


def line_events(call):
    """The lines run in each `pupsec` module, by file name, during
    `call()`; and what it returns."""
    import pupsec

    package = os.path.dirname(pupsec.__file__)
    counts = collections.Counter()

    def local(frame, event, arg):
        counts[frame.f_code.co_filename] += event == "line"
        return local

    def tracer(frame, event, arg):
        return local if os.path.dirname(frame.f_code.co_filename) == package else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        result = call()
    finally:
        sys.settrace(previous)
    return {os.path.basename(name): n for name, n in counts.items()}, result


def count_line_events(tree: str, files: int) -> dict[str, int]:
    """Line events per `pupsec` module over the first *files* sorted
    `*.pp` files under *tree* (all of them when *files* is 0)."""
    from pupsec.errors import ScanError
    from pupsec.harness import analyze_manifest
    from pupsec.parser import parse_manifest

    paths = sorted(str(p) for p in Path(tree).rglob("*.pp") if p.is_file())
    texts = []
    for p in paths[: files or None]:
        try:
            texts.append((Path(p).read_text(encoding="utf-8").removeprefix("\ufeff"), p))
        except UnicodeDecodeError:
            pass  # the scanner skips such a file before it parses anything

    def scan():
        for text, path in texts:
            try:
                analyze_manifest(parse_manifest(text, path))
            except ScanError:
                pass

    return line_events(scan)[0]


def count_in_child(src: str, tree: str, files: int) -> dict[str, int]:
    """`count_line_events` in a fresh interpreter, with the `pupsec`
    package under *src*."""
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, os.path.abspath(src), __file__, tree, str(files)],
        capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout)


def format_table(counts: dict[str, int], parent=None) -> str:
    """One row per module, largest count first, then the total."""
    base = parent or {}
    modules = sorted(set(counts) | set(base), key=lambda m: (-counts.get(m, 0), m))
    rows = [(m, counts.get(m, 0), base.get(m, 0)) for m in modules]
    rows.append(("total", sum(counts.values()), sum(base.values())))
    if parent is None:
        lines = [f"{'module':<14} {'events':>12}"]
        lines += [f"{m:<14} {n:>12,}" for m, n, _ in rows]
    else:
        lines = [f"{'module':<14} {'parent':>12} {'this':>12} {'change':>10}"]
        lines += [f"{m:<14} {p:>12,} {n:>12,} {n - p:>+10,}" for m, n, p in rows]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("tree")
    parser.add_argument("--files", type=int, default=0, help="count only the first N files")
    parser.add_argument("--parent", metavar="SRC", help="also count with the package under SRC")
    args = parser.parse_args(argv)
    if args.parent is None:
        if str(SRC) not in sys.path:
            sys.path.insert(0, str(SRC))
        print(format_table(count_line_events(args.tree, args.files)))
    else:
        # Both sides run in a fresh process from the same stack depth, so a
        # file nested up to the recursion limit fails at the same point.
        counts, parent = (count_in_child(src, args.tree, args.files) for src in (SRC, args.parent))
        print(format_table(counts, parent))
    return 0


if __name__ == "__main__":
    sys.exit(main())
