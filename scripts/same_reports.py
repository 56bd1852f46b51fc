#!/usr/bin/env python3
"""Check that two pupsec source trees produce byte-identical reports.

For each PATH, runs `python -m pupsec scan PATH` once with
OLD_SRC and once with NEW_SRC on PYTHONPATH, in taint and pattern mode
and in json, sarif and text format, and compares the exit code, stdout
and stderr of each pair.  With `--each`, every `*.pp` under a directory
PATH (files, directories and dangling links alike) is also scanned on its
own, because a tree-wide report changes as soon as one file's outcome
does and so cannot say which file changed.  With `--ground-truth FILE`,
every scan of both trees also evaluates against that labels CSV, so the
reports' evaluation blocks are compared too.  Prints every pair that
differs, then `N compared, M differ`.  Exits 1 if any pair differs.

Usage: python scripts/same_reports.py [--each] [--ground-truth FILE] OLD_SRC NEW_SRC PATH...
  (OLD_SRC and NEW_SRC are the `src` directories of the two trees)
"""

import os
import subprocess
import sys
from pathlib import Path

MODES = ("taint", "pattern")
FORMATS = ("json", "sarif", "text")


def run(src: str, args: list[str]) -> tuple[int, bytes, bytes]:
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    proc = subprocess.run([sys.executable, "-m", "pupsec", *args], env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def targets(paths: list[str], each: bool) -> list[str]:
    """What to scan: each of *paths*, and with *each* every `*.pp` entry
    under those that are directories, in sorted order."""
    out = []
    for path in paths:
        out.append(path)
        if each and os.path.isdir(path):
            out += sorted(str(p) for p in Path(path).glob("**/*.pp"))
    return out


def main() -> int:
    each = "--each" in sys.argv
    argv = [a for a in sys.argv[1:] if a != "--each"]
    options: list[str] = []  # passed to every scan
    if "--ground-truth" in argv:
        at = argv.index("--ground-truth")
        options, argv = argv[at : at + 2], argv[:at] + argv[at + 2 :]
    if len(argv) < 3 or len(options) == 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old_src, new_src, paths = argv[0], argv[1], argv[2:]
    for src in (old_src, new_src):
        if not os.path.isfile(os.path.join(src, "pupsec", "__init__.py")):
            print(f"not a pupsec source tree: {src}", file=sys.stderr)
            return 2
    compared = differ = 0
    for path in targets(paths, each):
        for mode in MODES:
            for fmt in FORMATS:
                args = ["scan", path, "--mode", mode, "--format", fmt, *options]
                compared += 1
                if run(old_src, args) != run(new_src, args):
                    differ += 1
                    print("differs:", " ".join(args))
    print(f"{compared} compared, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
