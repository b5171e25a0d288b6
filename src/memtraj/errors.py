"""Exception types shared across the package.

Plain ``ValueError`` is used for bad arguments; the classes here cover the
cases where callers need extra context (a line number, a byte offset, a
config key) to act on the failure.
"""

from __future__ import annotations


class MemtrajError(Exception):
    """Base class for package-specific failures."""


class ParseError(MemtrajError):
    """A text input (TSV, manifest) could not be parsed."""

    def __init__(self, message: str, line_no: int | None = None, path=None):
        self.reason = message
        if line_no is not None:
            message = f"line {line_no}: {message}"
        if path is not None:
            message = f"{path}: {message}"
        super().__init__(message)
        self.line_no = line_no


class FormatError(MemtrajError):
    """A binary artifact is corrupt or inconsistent."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"offset {offset}: {message}"
        super().__init__(message)
        self.offset = offset


class NumericError(MemtrajError):
    """Training or inference produced non-finite numbers."""


class ConfigError(MemtrajError):
    """A config file is missing a key, or holds one we do not know."""

    def __init__(self, message: str, key: str | None = None):
        if key is not None:
            message = f"key '{key}': {message}"
        super().__init__(message)
        self.key = key


class DependencyError(MemtrajError):
    """A pipeline stage ran before its prerequisites, or against stale ones."""
