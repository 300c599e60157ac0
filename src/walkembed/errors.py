"""Exception types shared across the package, and the config and file checks."""

import os
from dataclasses import fields, is_dataclass


class WalkembedError(Exception):
    """Base class for all package errors."""


class ValidationError(WalkembedError):
    """Bad configuration or precondition violation; maps to CLI exit code 1."""


def check_keys(section: str, d: dict, allowed) -> None:
    """Raise ValidationError naming any key of d that is not allowed: a field
    of the dataclass `allowed`, or a member of the collection `allowed`."""
    names = {f.name for f in fields(allowed)} if is_dataclass(allowed) else set(allowed)
    unknown = sorted(set(d) - names)
    if unknown:
        raise ValidationError(f"unknown {section} config key(s): {', '.join(map(repr, unknown))}")


def check_file_size(path, fh, expected: int) -> None:
    """Raise ValidationError naming path unless the open binary file fh holds
    exactly the expected number of bytes, as its header implies."""
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise ValidationError(f"{path}: {size} bytes, but its header implies {expected}")


class ParseError(ValidationError):
    """Malformed input file; carries the offending line number."""

    def __init__(self, path, line_no: int, message: str):
        self.path = str(path)
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class EmptyGraphError(ValidationError):
    """An operation produced or received a graph with no nodes."""


class CapacityError(ValidationError):
    """Requested generation would exceed the configured memory budget."""


class MetricError(WalkembedError):
    """A metric is undefined for the given inputs (e.g. no edges)."""


class NumericError(WalkembedError):
    """Training produced a non-finite value."""


class StageError(WalkembedError):
    """A pipeline stage failed; names the stage and chains the cause."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        super().__init__(f"stage {stage!r} failed: {cause}")
