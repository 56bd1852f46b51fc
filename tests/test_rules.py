import collections
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pupsec.rules
from pupsec.classify import (
    build_membership_index,
    classify_expressions,
    collect_function_calls,
)
from pupsec.ddg import build_ddg
from pupsec.errors import UnknownPredicate
from pupsec.nodes import FunctionCall, Parameter, UndefLiteral
from pupsec.parser import parse_manifest
from pupsec.rules import (
    DEFAULT_PATTERNS,
    PatternSet,
    WeaknessCategory,
    detect_candidates,
    evaluate_predicate,
    load_pattern_overrides,
)
from pupsec.synth import generate_manifest_text

from conftest import FIXTURES, RARE_FORMS, WEAKNESS_SUITE


def candidates_for(src, path="test.pp"):
    m = parse_manifest(src, path)
    index = build_membership_index(m)
    return detect_candidates(classify_expressions(index), collect_function_calls(index))


def categories(cands):
    return [c.category for c in cands]


# -- pattern defaults and predicates ----------------------------------------


def test_default_patterns():
    assert DEFAULT_PATTERNS.is_admin == ("admin",)
    assert DEFAULT_PATTERNS.is_http == ("http:",)
    assert DEFAULT_PATTERNS.is_invalid_bind == ("0.0.0.0",)
    assert DEFAULT_PATTERNS.is_password == ("pwd", "pass", "password")
    assert DEFAULT_PATTERNS.is_user == ("user",)
    assert DEFAULT_PATTERNS.uses_weak_algo == ("md5", "sha1")


@pytest.mark.parametrize(
    "predicate,text,expected",
    [
        ("isPassword", "database_password", True),
        ("isPassword", "config_path", False),
        ("usesWeakAlgo", "htpasswd_sha1", True),
        ("usesWeakAlgo", "sha256", False),
        ("isInvalidBind", "0.0.0.0", True),
        ("isInvalidBind", "127.0.0.1", False),
        ("isHTTP", "https://example.com", False),
        ("isHTTP", "http://example.com", True),
        ("isHTTP", "http", True),
        ("isHTTP", "httpd", False),
        ("isUser", "slack_username", True),
        ("isAdmin", "ADMIN", True),
        ("isPvtKey", "ssl_private_key", True),
        ("isPvtKey", "public_key", False),
    ],
)
def test_predicate_table(predicate, text, expected):
    assert evaluate_predicate(predicate, text, DEFAULT_PATTERNS) is expected


def test_unknown_predicate_raises():
    with pytest.raises(UnknownPredicate):
        evaluate_predicate("isBogus", "x", DEFAULT_PATTERNS)


# Hand-enumerated secret-like names and the expected private-key verdicts.
PVT_KEY_NAMES = [
    ("ssl_private_key", True),
    ("private_key", True),
    ("priv_key", True),
    ("pvt_key", True),
    ("pvtcert", True),
    ("private_rsa", True),
    ("privatesecret", True),
    ("my_priv_ssl", True),
    ("app_private_cert_path", True),
    ("PRIV_KEY", True),
    ("deploy_pvt_rsa", True),
    ("privileged_ssl_bundle", True),
    ("public_key", False),
    ("keystone_host", False),
    ("rsa_public", False),
    ("secret_sauce", False),
    ("certificate", False),
    ("key_priv", False),  # marker must come before the second group
    ("sslpriv", False),
    ("user_token", False),
]


def test_private_key_predicate_against_enumerated_names():
    for name, expected in PVT_KEY_NAMES:
        assert evaluate_predicate("isPvtKey", name, DEFAULT_PATTERNS) is expected, name


def test_private_key_patterns_are_compiled_once_per_entry(monkeypatch):
    """``isPvtKey`` matches with each pattern tuple compiled once, the
    defaults at import, and each entry compiled on its own: a user's
    back-reference keeps its group number."""
    calls = []
    for name in ("compile", "search", "match", "fullmatch"):
        real = getattr(re, name)
        monkeypatch.setattr(re, name, lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    for name, expected in PVT_KEY_NAMES:
        assert evaluate_predicate("isPvtKey", name) is expected, name
    assert calls == []
    patterns = PatternSet(is_pvt_key=("(a)(b)", r"(x)\1"))
    for _ in range(3):
        assert [evaluate_predicate("isPvtKey", t, patterns) for t in ("ab", "xx", "xa")] == [True, True, False]
    assert calls == ["compile", "compile"]


# Hand-built URL list: no https URL may ever satisfy isHTTP.
HTTPS_URLS = [
    "https://example.com",
    "https://example.com/path",
    "https://example.com:8443",
    "https://10.0.0.1",
    "https://user@example.com",
    "https://example.com/a?b=c",
    "HTTPS://EXAMPLE.COM",
    "https://localhost",
    "https://internal.example.org:9292/v2",
    "https://a.b.c.d.example.net",
    "https://example.com#frag",
    "https://example.com/http",
    "https://httpbin.org",
    "https://example.com/redirect?to=http",
    "https://registry:5000",
]
HTTP_URLS = [
    "http://example.com",
    "http://example.com:8080",
    "http://localhost/v1",
    "HTTP://EXAMPLE.COM",
    "http://10.0.0.1:35357",
    "http:",
    "http://user:pw@example.com",
    "http://example.com/a/b",
    "http://[::1]:8080",
    "http://internal",
    "http://example.com?q=1",
    "http://example.com#x",
    "http://svc.cluster.local",
    "http://0.0.0.0:80",
    "http://example.com/login",
]


def test_http_predicate_on_url_list():
    for url in HTTPS_URLS:
        assert evaluate_predicate("isHTTP", url, DEFAULT_PATTERNS) is False, url
    for url in HTTP_URLS:
        assert evaluate_predicate("isHTTP", url, DEFAULT_PATTERNS) is True, url


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=80))
def test_http_predicate_never_fires_on_https(text):
    if "https" in text.lower():
        assert evaluate_predicate("isHTTP", text, DEFAULT_PATTERNS) is False


def test_pattern_override_file(tmp_path):
    override = tmp_path / "patterns.json"
    override.write_text('{"isPassword": ["geheim"], "isAdmin": ["root"]}')
    patterns = load_pattern_overrides(str(override))
    assert patterns.is_password == ("geheim",)
    assert patterns.is_admin == ("root",)
    assert patterns.is_user == DEFAULT_PATTERNS.is_user


def test_pattern_override_keeps_private_key_regexes_as_written(tmp_path):
    override = tmp_path / "patterns.json"
    override.write_text(r'{"isPvtKey": ["PRIV\\S*KEY"], "isUser": ["LOGIN"]}')
    patterns = load_pattern_overrides(str(override))
    assert patterns.is_pvt_key == (r"PRIV\S*KEY",)
    assert patterns.is_user == ("login",)  # substrings are still lowered
    assert evaluate_predicate("isPvtKey", "priv_ssl_key", patterns) is True
    assert evaluate_predicate("isPvtKey", "Priv_SSL_Key", patterns) is True
    assert evaluate_predicate("isPvtKey", "priv key", patterns) is False


def test_pattern_override_rejects_an_invalid_regex(tmp_path):
    override = tmp_path / "patterns.json"
    override.write_text('{"isPvtKey": ["priv.*key", "(unclosed"]}')
    expected = r"patterns\.json: isPvtKey entry '\(unclosed': missing \)"
    with pytest.raises(ValueError, match=expected):
        load_pattern_overrides(str(override))


def test_pattern_override_unknown_key(tmp_path):
    override = tmp_path / "patterns.json"
    override.write_text('{"isMystery": ["x"]}')
    with pytest.raises(UnknownPredicate):
        load_pattern_overrides(str(override))


# -- rule behavior -----------------------------------------------------------


def test_empty_password_candidate():
    cands = candidates_for("$database_password = ''")
    assert categories(cands) == [WeaknessCategory.EMPTY_PASSWORD]


def test_hard_coded_secret_candidate_from_username():
    cands = candidates_for("$slack_username = 'Icinga'")
    assert categories(cands) == [WeaknessCategory.HARD_CODED_SECRET]


def test_undef_produces_no_candidate():
    assert candidates_for("$db_admin_password = undef") == []


def test_function_value_produces_no_candidate():
    cands = candidates_for("$admin_password = pick($access_hash['password'])")
    assert cands == []


def test_invalid_ip_binding_candidate():
    cands = candidates_for("$vip = '0.0.0.0'")
    assert categories(cands) == [WeaknessCategory.INVALID_IP_BINDING]


def test_weak_crypto_candidate_from_call():
    cands = candidates_for("$pw = htpasswd_sha1($h['nagiosadmin_pw'])")
    assert categories(cands) == [WeaknessCategory.WEAK_CRYPTO_ALGORITHM]
    assert cands[0].matched_text == "htpasswd_sha1"


def test_admin_by_default_requires_parameter_and_admin_value():
    cands = candidates_for("class c ($api_user = 'admin') { }")
    assert WeaknessCategory.ADMIN_BY_DEFAULT in categories(cands)
    # same name with a non-admin value: only the hard-coded secret remains
    cands2 = candidates_for("class c ($api_user = 'svc1') { }")
    assert WeaknessCategory.ADMIN_BY_DEFAULT not in categories(cands2)
    # plain variables never produce admin-by-default
    cands3 = candidates_for("$api_user = 'admin'")
    assert WeaknessCategory.ADMIN_BY_DEFAULT not in categories(cands3)
    # nor do attributes, though their value is a string too
    cands4 = candidates_for("file { 'f': user => 'admin' }")
    assert categories(cands4) == [WeaknessCategory.HARD_CODED_SECRET]


def test_http_candidate_from_interpolation_fragment():
    cands = candidates_for('$cmd = "wget http://mirror/pkg and run"')
    assert categories(cands) == [WeaknessCategory.HTTP_WITHOUT_TLS]
    assert cands[0].matched_text.startswith("wget http://")


def test_variable_parts_do_not_trigger_value_rules():
    cands = candidates_for('$url = "${proto}://${host}/v1"')
    assert cands == []


def test_empty_password_attribute_candidate():
    cands = candidates_for("mysql::db { 'x': password => '' }")
    assert categories(cands) == [WeaknessCategory.EMPTY_PASSWORD]


def test_candidate_order_when_several_rules_match_one_expression():
    src = (
        "$h = md5('x')\n"
        "class c ($admin_user = 'admin http://0.0.0.0') {\n"
        "  file { '/etc/c': content => \"${admin_user}${h}\" }\n"
        "}\n"
    )
    m = parse_manifest(src, "order.pp")
    index = build_membership_index(m)
    cands = detect_candidates(classify_expressions(index), collect_function_calls(index))
    assert [c.category.value for c in cands] == [
        "admin_by_default",
        "hard_coded_secret",
        "invalid_ip_binding",
        "http_without_tls",
        "weak_crypto_algorithm",
    ]
    ddg = build_ddg(m, cands, index)
    assert ddg is not None
    for i, cand in enumerate(cands):
        assert ddg.taints[i] is cand


# The shape of the benchmark's `chain` workload: every link's value has the
# same "-" fragment, so the value rules see one text many times.
CHAIN_TEXT = "$secret = 'p4ss'\n$link0 = $secret\n" + "".join(
    f'$link{i} = "${{secret}}-${{link{i - 1}}}"\nfile {{ "/tmp/{i}": content => $link{i} }}\n'
    for i in range(1, 40)
)


def test_each_name_predicate_runs_at_most_once_per_expression(monkeypatch):
    """From an empty memo, one ``detect_candidates`` call runs each
    predicate at most once per distinct text, over all of a file's entries
    and call sites; so each name predicate runs at most once per
    expression.  The memo is emptied before each call, as it is kept from
    call to call and would otherwise hide the texts of earlier files."""
    real = pupsec.rules.evaluate_predicate
    calls = []

    def spy(predicate, text, patterns=DEFAULT_PATTERNS):
        calls.append((predicate, text))
        return real(predicate, text, patterns)

    monkeypatch.setattr(pupsec.rules, "evaluate_predicate", spy)
    texts = [p.read_text(encoding="utf-8") for p in sorted(FIXTURES.rglob("*.pp"))]
    texts += [RARE_FORMS, "class c ($user = 'x') { }", CHAIN_TEXT]
    texts += [generate_manifest_text(seed) for seed in range(100)]
    checked = 0
    for text in texts:
        index = build_membership_index(parse_manifest(text, "t.pp"))
        classified = classify_expressions(index)
        calls.clear()
        pupsec.rules._memos.cache_clear()
        detect_candidates(classified, collect_function_calls(index))
        repeated = [call for call, n in collections.Counter(calls).items() if n > 1]
        assert repeated == [], repeated
        checked += bool(calls)
    assert checked > 100  # the spy sees the rules run
    chain = classify_expressions(build_membership_index(parse_manifest(CHAIN_TEXT, "t.pp")))
    assert sum(ce.value == ("-",) for ce in chain) > 30  # one text, many entries


def test_each_call_matches_with_its_own_patterns():
    """Predicate results are kept per pattern set, not per call: two
    calls on the same entries with different pattern sets each give their
    own set's candidates, also when the first set's memo is warm."""
    src = "$db_pass = 'x'\n$token = 'y'\n$bind = '127.0.0.1'\n$h = sha256('z')\n"
    index = build_membership_index(parse_manifest(src, "t.pp"))
    classified, sites = classify_expressions(index), collect_function_calls(index)
    other = PatternSet(is_password=("token",), is_invalid_bind=("127.",), uses_weak_algo=("sha256",))

    def found(patterns):
        return [(c.category.value, c.matched_text) for c in detect_candidates(classified, sites, patterns)]

    default_found = [("hard_coded_secret", "db_pass")]
    other_found = [
        ("hard_coded_secret", "token"),
        ("invalid_ip_binding", "127.0.0.1"),
        ("weak_crypto_algorithm", "sha256"),
    ]
    assert found(DEFAULT_PATTERNS) == default_found
    assert found(other) == other_found
    assert found(DEFAULT_PATTERNS) == default_found


def _memo_dicts(patterns=DEFAULT_PATTERNS):
    *by_name, value_rules = pupsec.rules._memos(patterns)
    return by_name + [holds for _, _, holds in value_rules]


def _generated_tree(root, count):
    for seed in range(count):
        (root / f"m{seed:03}.pp").write_text(generate_manifest_text(seed), encoding="utf-8")
    return root


def test_one_scan_evaluates_each_predicate_and_text_once(tmp_path, monkeypatch):
    """The memo lasts from file to file: a scan of 100 generated manifests
    evaluates each (predicate, text) pair at most once."""
    from pupsec.harness import RunConfig, scan

    real = pupsec.rules.evaluate_predicate
    calls = []

    def spy(predicate, text, patterns=DEFAULT_PATTERNS):
        calls.append((predicate, text))
        return real(predicate, text, patterns)

    monkeypatch.setattr(pupsec.rules, "evaluate_predicate", spy)
    pupsec.rules._memos.cache_clear()
    report = scan(RunConfig(inputs=(str(_generated_tree(tmp_path, 100)),), mode="pattern"))
    assert report.findings and report.skipped == ()
    repeated = [call for call, n in collections.Counter(calls).items() if n > 1]
    assert repeated == [] and len(calls) > 50, repeated
    assert len(calls) == sum(map(len, _memo_dicts()))  # nothing was emptied


def test_no_memo_dict_exceeds_its_cap(monkeypatch):
    """A memo dict that reaches ``MEMO_CAP`` texts is emptied before the
    next one is added, and the candidates stay those of an unbounded memo."""
    texts = [generate_manifest_text(seed) for seed in range(60)]
    texts += [f"$user_{i} = 'admin{i}'\n$h = md{i}('x')\n" for i in range(40)]
    expected = [candidates_for(text) for text in texts]
    monkeypatch.setattr(pupsec.rules, "MEMO_CAP", 8)
    pupsec.rules._memos.cache_clear()
    largest = 0
    for text, want in zip(texts, expected):
        assert candidates_for(text) == want
        largest = max(largest, *map(len, _memo_dicts()))
    assert largest == 8


def test_a_cold_and_a_warm_memo_give_the_same_report_bytes(tmp_path):
    """A scan gives the same bytes in each format whether the predicate
    memo is empty or full from the same scan."""
    from pupsec.harness import RunConfig, scan
    from pupsec.report import render_report

    tree = _generated_tree(tmp_path, 60)
    config = RunConfig(inputs=(str(tree), str(FIXTURES)))

    def rendered():
        report = scan(config)
        return [render_report(list(report.findings), report.stats, fmt) for fmt in ("json", "sarif", "text")]

    pupsec.rules._memos.cache_clear()
    cold = rendered()
    assert sum(map(len, _memo_dicts())) > 0
    assert rendered() == cold


def test_detection_is_deterministic():
    for seed in range(25):
        m = parse_manifest(generate_manifest_text(seed), "gen.pp")
        index = build_membership_index(m)
        classified = classify_expressions(index)
        calls = collect_function_calls(index)
        first = detect_candidates(classified, calls, DEFAULT_PATTERNS)
        second = detect_candidates(classified, calls, DEFAULT_PATTERNS)
        assert first == second


_SELF_CHECK_PREDICATES = {
    WeaknessCategory.ADMIN_BY_DEFAULT: ("isAdmin",),
    WeaknessCategory.EMPTY_PASSWORD: ("isPassword",),
    WeaknessCategory.HARD_CODED_SECRET: ("isUser", "isPassword", "isPvtKey"),
    WeaknessCategory.INVALID_IP_BINDING: ("isInvalidBind",),
    WeaknessCategory.HTTP_WITHOUT_TLS: ("isHTTP",),
    WeaknessCategory.WEAK_CRYPTO_ALGORITHM: ("usesWeakAlgo",),
}


def test_matched_text_satisfies_rule_predicates():
    sources = [generate_manifest_text(seed) for seed in range(60)]
    sources += [p.read_text(encoding="utf-8") for p in sorted(WEAKNESS_SUITE.glob("*.pp"))]
    seen = set()
    for src in sources:
        for cand in candidates_for(src):
            seen.add(cand.category)
            predicates = _SELF_CHECK_PREDICATES[cand.category]
            assert any(
                evaluate_predicate(p, cand.matched_text, DEFAULT_PATTERNS) for p in predicates
            ), (cand.category, cand.matched_text)
    assert len(seen) >= 5  # the sample actually exercises the rules


def test_no_string_category_from_undef_or_function_values():
    for seed in range(60):
        for cand in candidates_for(generate_manifest_text(seed)):
            if cand.category is WeaknessCategory.WEAK_CRYPTO_ALGORITHM:
                continue
            node = cand.element.node
            expr = node.default if isinstance(node, Parameter) else node.value
            assert not isinstance(expr, (FunctionCall, UndefLiteral))
