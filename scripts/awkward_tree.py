#!/usr/bin/env python3
"""Write the broken-file tree: one clean manifest beside files that fail,
or nearly fail, every way a file can.

- `a_good.pp`: a clean manifest with one resource.
- `broken.pp`: a syntax error.
- `cp1252.pp`: a byte that is not UTF-8.
- `heredoc.pp`: an unsupported construct.
- `deep_array.pp`: 3,000 nested `[`, past the parser's nesting limit.
- `deep_if.pp`: 400 nested `if`, within it.
- Four resource titles of 1,000 links each, longer than Python's default
  recursion limit: a `+` chain (`long_title.pp`), a `[key]` chain
  (`access_title.pp`), a `? { ... }` chain (`selector_title.pp`) and the
  two mixed (`mixed_title.pp`).
- `dir.pp`: a directory that the `**/*.pp` glob finds.
- `dangling.pp`: a symlink to a file that does not exist.

`scripts/same_reports.py --each` compares two source trees on it, file by
file, and `tests/test_harness.py` scans it.

Usage: python scripts/awkward_tree.py OUT
"""

import sys
from pathlib import Path


def titled(title: str) -> str:
    """A manifest of one `file` resource with the title *title*."""
    return "file { " + title + ": ensure => present }\n"


# file name -> a resource title of 1,000 links
CHAIN_TITLES = {
    "long_title.pp": " + ".join(["'a'"] * 999 + ["'x'"]),
    "access_title.pp": "$a" + "[1]" * 1000,
    "selector_title.pp": "$a" + " ? { default => 1 }" * 1000,
    "mixed_title.pp": "$a" + "[1] ? { default => 1 }" * 500,
}


def write_tree(root: Path) -> Path:
    """Write the tree into the directory *root*, made if missing."""
    root.mkdir(parents=True, exist_ok=True)
    (root / "a_good.pp").write_text("$x = 'ok'\nfile { 'f': content => $x }\n")
    (root / "broken.pp").write_text("$x = = broken")
    (root / "cp1252.pp").write_bytes(b"$x = '\xff'\n")
    (root / "heredoc.pp").write_text("$x = @(EOT)\ntext\nEOT\n")
    (root / "deep_array.pp").write_text("$x = " + "[" * 3000 + "]" * 3000 + "\n")
    depth = 400
    (root / "deep_if.pp").write_text(
        "$p = 'secret'\n" + "if $c {\n" * depth + "file { 'f': content => $p }\n" + "}\n" * depth
    )
    for name, title in CHAIN_TITLES.items():
        (root / name).write_text(titled(title))
    (root / "dir.pp").mkdir()
    (root / "dangling.pp").symlink_to("no-such-target.pp")
    return root


def main() -> int:
    if len(sys.argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    write_tree(Path(sys.argv[1]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
