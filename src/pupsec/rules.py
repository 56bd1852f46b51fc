"""Security weakness rules and their text patterns.

Six categories are detected over classified expressions and function-call
sites.  All matching is case-insensitive.  Name predicates for hard-coded
secrets are joined disjunctively (a name matching any of user/password/
private-key counts); reports carry a ``rule_semantics`` marker recording
that choice.

``detect_candidates`` reads each entry's value once, and runs each
predicate once per distinct text: its results are kept for the rest of
the call, and only that long.  A value is a plain string's text or a tuple
of literal fragments.  Per expression the candidates come in this order:
admin by default, empty password and hard-coded secret (plain strings
only, from the name's ``isUser`` and ``isPassword`` results), then invalid
IP binding and HTTP without TLS (the first matching fragment each; a plain
string is its own one fragment).
Weak-crypto call sites follow all expressions.  A candidate's place is its
element's: the call's ``loc`` for a call site, the holder node's
otherwise.  Taint node i of the DDG is candidate i.
"""

from __future__ import annotations

import functools
import json
import re
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Union

from .classify import ClassifiedExpression, FunctionCallSite
from .errors import UnknownPredicate
from .nodes import Parameter, SourceLocation

RULE_SEMANTICS = "disjunctive-names"


class WeaknessCategory(Enum):
    ADMIN_BY_DEFAULT = "admin_by_default"
    EMPTY_PASSWORD = "empty_password"
    HARD_CODED_SECRET = "hard_coded_secret"
    INVALID_IP_BINDING = "invalid_ip_binding"
    HTTP_WITHOUT_TLS = "http_without_tls"
    WEAK_CRYPTO_ALGORITHM = "weak_crypto_algorithm"


@dataclass(slots=True, unsafe_hash=True)
class PatternSet:
    """Per-predicate match lists.  All entries are lower-case substrings
    except ``is_pvt_key``, whose entries are regular expressions kept as
    written and matched case-insensitively."""

    is_admin: tuple[str, ...] = ("admin",)
    is_http: tuple[str, ...] = ("http:",)
    is_invalid_bind: tuple[str, ...] = ("0.0.0.0",)
    is_password: tuple[str, ...] = ("pwd", "pass", "password")
    is_pvt_key: tuple[str, ...] = (r"(pvt|priv).*(cert|key|rsa|secret|ssl)",)
    is_user: tuple[str, ...] = ("user",)
    uses_weak_algo: tuple[str, ...] = ("md5", "sha1")


DEFAULT_PATTERNS = PatternSet()

_PREDICATE_FIELDS = {
    "isAdmin": "is_admin",
    "isHTTP": "is_http",
    "isInvalidBind": "is_invalid_bind",
    "isPassword": "is_password",
    "isPvtKey": "is_pvt_key",
    "isUser": "is_user",
    "usesWeakAlgo": "uses_weak_algo",
}

_HTTP_WORD = re.compile(r"\bhttp\b")


@functools.cache
def _pvt_key_regexes(entries: tuple[str, ...]) -> tuple[re.Pattern, ...]:
    # One pattern per entry: one alternation would renumber a user's groups.
    return tuple(re.compile(p, re.IGNORECASE) for p in entries)


_pvt_key_regexes(DEFAULT_PATTERNS.is_pvt_key)  # compiled at import, not in a scan


def load_pattern_overrides(path: str) -> PatternSet:
    """Load a JSON object mapping predicate names to pattern lists;
    predicates not present keep their defaults.  Substrings are lowered;
    ``isPvtKey`` regexes are kept as written, and one that does not
    compile raises ``ValueError``, as does an empty entry.  Every error
    names the file.  A UTF-8 byte-order mark is skipped."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            data = json.load(fh)
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ValueError(f"{path}: pattern file must be a JSON object")
    overrides = {}
    for key, value in data.items():
        if key not in _PREDICATE_FIELDS:
            raise UnknownPredicate(key, path)
        if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
            raise ValueError(f"{path}: {key} must map to a list of strings")
        if "" in value:
            raise ValueError(f"{path}: {key} has an empty entry, which would match everything")
        if key == "isPvtKey":
            for v in value:
                try:
                    re.compile(v, re.IGNORECASE)
                except re.error as exc:
                    raise ValueError(f"{path}: {key} entry {v!r}: {exc}") from exc
        else:
            value = [v.lower() for v in value]
        overrides[_PREDICATE_FIELDS[key]] = tuple(value)
    return replace(DEFAULT_PATTERNS, **overrides)


def _contains_any(text: str, patterns: tuple[str, ...]) -> bool:
    return any(p in text for p in patterns)


def evaluate_predicate(predicate: str, text: str, patterns: PatternSet = DEFAULT_PATTERNS) -> bool:
    """Case-insensitive predicate match over *text*."""
    lowered = text.lower()
    if predicate == "isPvtKey":
        return any(r.search(lowered) for r in _pvt_key_regexes(patterns.is_pvt_key))
    if predicate == "isHTTP":
        # Plain-http values only: 'http:' anywhere or 'http' as a whole
        # word, and never anything that is already https.
        if "https" in lowered:
            return False
        return _contains_any(lowered, patterns.is_http) or bool(_HTTP_WORD.search(lowered))
    field_name = _PREDICATE_FIELDS.get(predicate)
    if field_name is None:
        raise UnknownPredicate(predicate)
    return _contains_any(lowered, getattr(patterns, field_name))


@dataclass(slots=True, unsafe_hash=True)
class WeaknessCandidate:
    category: WeaknessCategory
    element: Union[ClassifiedExpression, FunctionCallSite] = field(repr=False)
    matched_text: str

    @property
    def location(self) -> SourceLocation:
        if isinstance(self.element, FunctionCallSite):
            return self.element.call.loc
        return self.element.node.loc

    @property
    def display_name(self) -> str:
        if isinstance(self.element, FunctionCallSite):
            return self.element.call.name
        if self.element.attribute_id is not None:
            return self.element.name
        return f"${self.element.name}"


# Value rules, in candidate order; each reports the first matching fragment.
_VALUE_RULES = (
    (WeaknessCategory.INVALID_IP_BINDING, "isInvalidBind"),
    (WeaknessCategory.HTTP_WITHOUT_TLS, "isHTTP"),
)


def detect_candidates(
    classified: list[ClassifiedExpression],
    function_calls: list[FunctionCallSite],
    patterns: PatternSet = DEFAULT_PATTERNS,
) -> list[WeaknessCandidate]:
    """Apply every rule to one manifest's classified expressions and call
    sites.  The result is the pattern-level (pre-propagation) finding set."""
    # Each predicate's results by text, kept for this call only.
    user_of, password_of, pvt_key_of, admin_of, weak_of = {}, {}, {}, {}, {}
    value_rules = [(category, predicate, {}) for category, predicate in _VALUE_RULES]
    out: list[WeaknessCandidate] = []
    for ce in classified:
        value = ce.value
        if type(value) is str:
            name = ce.name
            if (user := user_of.get(name)) is None:
                user = user_of[name] = evaluate_predicate("isUser", name, patterns)
            if (password := password_of.get(name)) is None:
                password = password_of[name] = evaluate_predicate("isPassword", name, patterns)
            if user and type(ce.node) is Parameter:
                if (admin := admin_of.get(value)) is None:
                    admin = admin_of[value] = evaluate_predicate("isAdmin", value, patterns)
                if admin:
                    out.append(WeaknessCandidate(WeaknessCategory.ADMIN_BY_DEFAULT, ce, value))
            if not value:
                if password:
                    out.append(WeaknessCandidate(WeaknessCategory.EMPTY_PASSWORD, ce, name))
            else:
                secret = user or password
                if not secret and (secret := pvt_key_of.get(name)) is None:
                    secret = pvt_key_of[name] = evaluate_predicate("isPvtKey", name, patterns)
                if secret:
                    out.append(WeaknessCandidate(WeaknessCategory.HARD_CODED_SECRET, ce, name))
            fragments = (value,)
        else:
            fragments = value
        for category, predicate, holds in value_rules:
            for fragment in fragments:
                if (found := holds.get(fragment)) is None:
                    found = holds[fragment] = evaluate_predicate(predicate, fragment, patterns)
                if found:
                    out.append(WeaknessCandidate(category, ce, fragment))
                    break
    for site in function_calls:
        name = site.call.name
        if (weak := weak_of.get(name)) is None:
            weak = weak_of[name] = evaluate_predicate("usesWeakAlgo", name, patterns)
        if weak:
            out.append(WeaknessCandidate(WeaknessCategory.WEAK_CRYPTO_ALGORITHM, site, name))
    return out
