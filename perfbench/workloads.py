"""Seeded input generators for the scan benchmark.

Each generator writes plain ``.pp`` files into a fresh directory and
returns a ``Workload`` describing them.  pupsec only ever sees the files.
``chain`` and ``branchy`` are written from text templates owned by this
module, and carry the findings they must produce, derived from their
construction rather than from pupsec.  ``corpus`` reuses pupsec's own
synthetic generator (the same files ``scripts/gen_corpus.py`` writes), so
the bytes of seed 0 are pinned in ``digests.json`` to catch drift in it.
"""

from __future__ import annotations

import hashlib
import random
import shutil
from dataclasses import dataclass, field
from pathlib import Path

CORPUS_FILES = 2000
CORPUS_BROKEN = 20  # ~1% of the corpus, unparseable by construction
CHAIN_LINKS = (1000, 2000, 4000)
BRANCHY_BLOCKS = (200, 400, 800)  # 10 lines a block: ~2k, 4k and 8k lines

# Each tail makes an otherwise valid manifest fail in the lexer or parser.
BROKEN_TAILS = (
    "$broken = 'unterminated\n",
    "node 'web01' {\n  notice('x')\n}\n",
    "$list.each |$x| {\n  notice($x)\n}\n",
    "file { '/tmp/x':\n  ensure =>\n}\n",
    "$text = @(END)\nbody\nEND\n",
)

SECRET_NAMES = ("db_password", "admin_pass", "svc_pwd")
CHAIN_STEMS = ("link", "hop", "stage")
BRANCHY_TYPES = ("mysql::db", "postgresql::server::db", "custom::svc")


@dataclass(frozen=True)
class Expected:
    """One finding a workload must produce: where the weakness is, what
    it is, which resource attribute it reaches and the witness path as
    (kind, label, line) steps."""

    file: str
    line: int
    category: str
    sink: str
    sink_line: int
    path: tuple[tuple[str, str, int], ...]


@dataclass
class Workload:
    root: Path
    files: list[str] = field(default_factory=list)  # file names, sorted
    broken: set[str] = field(default_factory=set)  # names that must be skipped
    expected: list[Expected] | None = None  # None: no by-construction reference
    lines: int = 0

    def digest(self) -> str:
        """sha256 over every generated file's name and bytes."""
        h = hashlib.sha256()
        for name in self.files:
            data = (self.root / name).read_bytes()
            h.update(f"{name}\0{len(data)}\0".encode())
            h.update(data)
        return h.hexdigest()


def _fresh(root: Path) -> Path:
    if root.exists():
        shutil.rmtree(root)
    root.mkdir(parents=True)
    return root


def _write(workload: Workload, name: str, text: str) -> None:
    (workload.root / name).write_text(text, encoding="utf-8")
    workload.files.append(name)
    workload.lines += text.count("\n")


def corpus(seed: int, root: Path, files: int = CORPUS_FILES, broken: int = CORPUS_BROKEN) -> Workload:
    """*files* manifests from pupsec's synthetic generator, numbered as
    ``gen_corpus.py OUT files seed*files`` numbers them, plus *broken*
    manifests that end in an unparseable tail."""
    from pupsec.synth import generate_manifest_text

    w = Workload(_fresh(root))
    base = seed * files
    for i in range(files):
        _write(w, f"synthetic_{base + i:05d}.pp", generate_manifest_text(base + i))
    for k in range(broken):
        name = f"broken_{base + k:05d}.pp"
        _write(w, name, generate_manifest_text(base + k) + BROKEN_TAILS[k % len(BROKEN_TAILS)])
        w.broken.add(name)
    w.files.sort()
    return w


def _chain_text(name: str, links: int, rng: random.Random, out: list[Expected]) -> str:
    secret = rng.choice(SECRET_NAMES)
    stem = rng.choice(CHAIN_STEMS)
    feed = rng.randrange(4)
    lines = [f"${secret} = 's3cret-{rng.randrange(10**6):06d}'"]
    for i in range(links):
        prev = f"-${{{stem}_{i - 1}}}" if i else ""
        lines.append(f'${stem}_{i} = "${{{secret}}}{prev}"')
        if i % 4 == feed:
            link_line = len(lines)
            lines.append(f"file {{ '/srv/{stem}/{i}': content => ${stem}_{i} }}")
            sink = f"file[/srv/{stem}/{i}].content"
            out.append(
                Expected(
                    name, 1, "hard_coded_secret", sink, len(lines),
                    (("taint", f"${secret}", 1), ("intermediate", f"${stem}_{i}", link_line),
                     ("sink", sink, len(lines))),
                )
            )
    return "\n".join(lines) + "\n"


def chain(seed: int, root: Path, sizes: tuple[int, ...] = CHAIN_LINKS) -> Workload:
    """One manifest per size: a secret, then links that each read the
    secret and the previous link, every 4th link written to a file.
    Every witness path is 3 steps, but each sink's reverse search visits
    all earlier links."""
    rng = random.Random(f"chain-{seed}")
    w = Workload(_fresh(root), expected=[])
    for links in sizes:
        name = f"chain_{links:05d}.pp"
        _write(w, name, _chain_text(name, links, rng, w.expected))
    return w


def _branchy_text(name: str, blocks: int, rng: random.Random, out: list[Expected]) -> str:
    secret = rng.choice(SECRET_NAMES)
    rtype = rng.choice(BRANCHY_TYPES)
    lines: list[str] = []
    for k in range(blocks):
        base = len(lines)
        title = f"db{k}"
        sink = f"{rtype}[{title}].password"
        lines += [
            "if $use_primary {",
            f"  ${secret} = 'p{rng.randrange(10**6)}'",
            f"  $cfg{k} = 'primary'",
            "} else {",
            f"  ${secret} = 's{rng.randrange(10**6)}'",
            f"  $cfg{k} = 'standby'",
            "}",
            f"$bind{k} = '0.0.0.0'",
            f"$digest{k} = md5('salt{k}')",
            f"{rtype} {{ '{title}': password => ${secret}, host => $cfg{k} }}",
        ]
        for arm_line in (base + 2, base + 5):
            out.append(
                Expected(
                    name, arm_line, "hard_coded_secret", sink, base + 10,
                    (("taint", f"${secret}", arm_line), ("sink", sink, base + 10)),
                )
            )
    return "\n".join(lines) + "\n"


def branchy(seed: int, root: Path, sizes: tuple[int, ...] = BRANCHY_BLOCKS) -> Workload:
    """One manifest per size of if/else blocks.  Both arms redefine the
    secret (killing the previous block's definitions) and a fresh config
    variable, so the reaching-definitions state keeps growing.  Each
    block's resource reads both; an unused 0.0.0.0 bind and an unused
    md5() result are candidates that must be dropped."""
    rng = random.Random(f"branchy-{seed}")
    w = Workload(_fresh(root), expected=[])
    for blocks in sizes:
        name = f"branchy_{blocks:05d}.pp"
        _write(w, name, _branchy_text(name, blocks, rng, w.expected))
    return w


GENERATORS = {"corpus": corpus, "chain": chain, "branchy": branchy}
