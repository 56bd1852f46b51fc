"""Exception types raised by the scanner pipeline."""

from __future__ import annotations

from typing import Optional

from .nodes import SourceLocation


class ScanError(Exception):
    """Base class for all scanner errors."""


class ParseError(ScanError):
    def __init__(self, location: SourceLocation, message: str):
        super().__init__(f"{location.path}:{location.line}:{location.column}: {message}")
        self.location = location
        self.message = message


class UnsupportedConstruct(ScanError):
    """Recognized Puppet syntax that lies outside the supported subset."""

    def __init__(self, location: SourceLocation, construct: str):
        super().__init__(
            f"{location.path}:{location.line}:{location.column}: "
            f"unsupported construct: {construct}"
        )
        self.location = location
        self.construct = construct


class UnknownPredicate(ScanError):
    def __init__(self, name: str, path: Optional[str] = None):
        where = f"{path}: " if path else ""  # the pattern file that names it
        super().__init__(f"{where}unknown rule predicate: {name!r}")
        self.name = name


class ZeroTotal(ScanError):
    """Raised when a percentage is requested over an empty resource set."""


class UnknownFormat(ScanError):
    def __init__(self, fmt: str):
        super().__init__(f"unknown report format: {fmt!r}")
        self.fmt = fmt
