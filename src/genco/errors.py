"""Shared exception types."""

from __future__ import annotations

DEFAULT_FUEL = 100_000


class GencoError(Exception):
    """Base class for library errors."""


class ConfigError(GencoError, ValueError):
    """A config field is invalid; `path` names the field, `reason` says
    what is wrong with it."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"config error at {path}: {reason}")
        self.path = path
        self.reason = reason


class FuelExhausted(GencoError):
    """A search exceeded its probe budget (dishonest oracle or stalled
    enumeration); carries optional context set by the caller."""

    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


class WitnessStemMismatch(GencoError):
    """A dense set returned a member witness whose stem is not the
    requested node."""


class MalformedCodeElement(GencoError):
    """A value presented as a prefix code does not factor as one."""

    def __init__(self, value: int):
        super().__init__(f"not a valid prefix code: {value}")
        self.value = value


class MalformedTranscript(GencoError):
    """A transcript file violates the line format."""


class DenseContractError(GencoError):
    """A dense-set oracle violated its contract (non-extension or
    non-membership after extend); carries the stage index."""

    def __init__(self, message: str, stage: int | None = None):
        super().__init__(message)
        self.stage = stage
