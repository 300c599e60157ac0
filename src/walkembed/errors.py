"""Exception types shared across the package, and the config, file and id checks."""

import os
from dataclasses import MISSING, fields, is_dataclass


class WalkembedError(Exception):
    """Base class for all package errors."""


class ValidationError(WalkembedError):
    """Bad configuration or precondition violation; maps to CLI exit code 1."""


def check_object(section: str, d) -> None:
    """Raise ValidationError unless a config section d is a JSON object."""
    if not isinstance(d, dict):
        raise ValidationError(f"{section} config must be an object, got {d!r}")


# scalar field type -> the value types it accepts
_SCALARS = {"bool": bool, "int": int, "float": (int, float), "str": str}


def check_keys(section: str, d: dict, allowed) -> None:
    """Raise ValidationError naming any key of d that is not allowed: a field
    of the dataclass `allowed`, or a member of the collection `allowed`.
    Against a dataclass, also name a field without a default that d lacks,
    and a value whose type is not its bool, int, float or str field's type:
    a bool is no int, and an int passes for a float."""
    check_object(section, d)
    names = {f.name for f in fields(allowed)} if is_dataclass(allowed) else set(allowed)
    unknown = sorted(set(d) - names)
    if unknown:
        raise ValidationError(f"unknown {section} config key(s): {', '.join(map(repr, unknown))}")
    for f in fields(allowed) if is_dataclass(allowed) else ():
        if f.name not in d:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ValidationError(f"{section} config missing {f.name!r}")
            continue
        type_name = getattr(f.type, "__name__", f.type)
        accepts, value = _SCALARS.get(type_name), d[f.name]
        if accepts and (isinstance(value, bool) != (accepts is bool) or not isinstance(value, accepts)):
            raise ValidationError(f"{section} config key {f.name!r} must be {type_name}, got {value!r}")


def check_file_size(path, fh, expected: int) -> None:
    """Raise ValidationError naming path unless the open binary file fh holds
    exactly the expected number of bytes, as its header implies."""
    size = os.fstat(fh.fileno()).st_size
    if size != expected:
        raise ValidationError(f"{path}: {size} bytes, but its header implies {expected}")


def check_ids(ids, num_nodes: int) -> None:
    """Raise IndexError naming the first of the ids that is not a row of a num_nodes-row table."""
    if len(ids) and (ids.min() < 0 or ids.max() >= num_nodes):
        bad = ids[(ids < 0) | (ids >= num_nodes)][0]
        raise IndexError(f"node id {bad} out of range [0, {num_nodes})")


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
