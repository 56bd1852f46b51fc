import importlib.util
from pathlib import Path

import pytest
from hypothesis import strategies as st

FIXTURES = Path(__file__).parent / "fixtures"
WEAKNESS_SUITE = FIXTURES / "weakness_suite"
CORPUS = FIXTURES / "corpus"
CORPUS_TRUTH = FIXTURES / "corpus_truth.csv"

# Node types that neither the fixtures nor the generator emit: a defined
# type and unary and binary operators.
RARE_FORMS = """\
define app::vhost($port, $docroot = "/srv/${name}") {
  $open = !$closed and ($port > 1024 or $port == 80)
  $mode = $facts['os'] ? { 'Linux' => "-${port}", default => lookup('mode') }
  file { $docroot: ensure => directory, require => File[$parent] }
}
"""

FIXTURE_TEXTS = [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.rglob("*.pp"))]
# Double-quoted strings at the edge of what the lexer's `dq` pattern
# closes by itself: quoted keys holding a brace or a quote, a backslash in
# a quoted key, nested braces, an unterminated quoted key, and a `${` at
# the end of the text.
DQ_EDGES = r"""
"${h['}']}"
"${h['{']}"
"${h['"']}"
"${h["'"]}"
"${h["}"]}"
"${h['a\'b']}"
"${h["a\"b"]}"
"${h['a\\']}"
"${f({a => 1})}"
"a${f(1, {b => {c => 2}})}b"
"${h['k]}"
"${h['k]}" '
"${h["k]}"
"${
"a${
"${h['
""".strip("\n").split("\n")
SNIPPETS = list("'\"$\\{}[]()#/*:@|.-~<=>!+?%,;\n\t\r _aZ09") + [
    "${", "${'", '"${x}"', '"}"', "${h['k']}", "${f(1)}", "::", "$::", "/*", "*/", "<<|",
    "@(", "1.5", "'\\'", "\\\\", " \u00b2 ", "\u0663", "\u00e9",
] + DQ_EDGES


@st.composite
def mutated_fixtures(draw, snippets: list[str] = SNIPPETS) -> str:
    """A fixture manifest with one to four *snippets* inserted, deleted or
    written over at random offsets."""
    text = draw(st.sampled_from(FIXTURE_TEXTS))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        pos = draw(st.integers(min_value=0, max_value=len(text)))
        snippet = draw(st.sampled_from(snippets))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        if op == "insert":
            text = text[:pos] + snippet + text[pos:]
        elif op == "delete":
            text = text[:pos] + text[pos + len(snippet) :]
        else:
            text = text[:pos] + snippet + text[pos + 1 :]
    return text


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def load_script(name: str):
    """``scripts/NAME.py``, loaded as a module."""
    path = Path(__file__).parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_fixture(name: str):
    """Parse one bundled manifest by file name."""
    from pupsec.parser import parse_manifest

    path = WEAKNESS_SUITE / name
    return parse_manifest(path.read_text(encoding="utf-8"), str(path))


_acceptance_results: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    _acceptance_results.append((name, report.outcome.upper()))


def pytest_terminal_summary(terminalreporter):
    if not _acceptance_results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _acceptance_results:
        status = "PASS" if outcome == "PASSED" else outcome
        terminalreporter.write_line(f"{name}: {status}")
