"""Exception types shared across the package, plus the checks behind every
config: the integer and finite-number check that config dataclasses run
before their own validation, the one function that makes a config
dataclass from parsed JSON, and the text and JSON readers behind every
input file, which turn each way a file can be unreadable into one error."""

import dataclasses
import json
import math
import sys
import typing
from pathlib import Path


class LgrinError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(LgrinError):
    """Operands have incompatible shapes; the message names both."""


class ConfigError(LgrinError):
    """Invalid model, training, or run configuration."""


class DataError(LgrinError):
    """Dataset loading or validation failure; names the offending file/line."""


class SplitError(LgrinError):
    """Cross-validation split cannot be formed (e.g. class smaller than k)."""


class ContractError(LgrinError):
    """An internal precondition was violated by the caller."""


class NumericalError(LgrinError):
    """Non-finite values or a failed gradient check during computation."""


def is_int(value) -> bool:
    """An integer that is not a bool (JSON ``true`` is not a count)."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """A float-range int or a finite float, not a bool (JSON reads ``NaN``,
    ``Infinity`` and ``true``)."""
    return (is_int(value) and abs(value) <= sys.float_info.max
            or isinstance(value, float) and math.isfinite(value))


def check_int_fields(config) -> None:
    """Raise ConfigError for any ``int``-annotated dataclass field holding a
    non-integer, so 1.5 epochs fails here rather than deep in numpy, and for
    any ``float``-annotated field that is not ``is_finite_number``."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type in ("int", int) and not is_int(value):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
        if f.type in ("float", float) and not is_finite_number(value):
            raise ConfigError(f"{f.name} must be a finite number, got {value!r}")


def check_keys(doc, allowed, where: str) -> None:
    """Raise ConfigError unless ``doc`` is a JSON object with only ``allowed`` keys."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} must be a JSON object")
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"bad {where}: unknown keys {sorted(unknown)}")


def config_from_json(cls, doc, where: str):
    """Build the config dataclass ``cls`` from a parsed JSON object.

    The dataclass's own fields are the schema: other keys are rejected, and
    a field typed as a config dataclass is built from its sub-object the
    same way. A ConfigError, TypeError or ValueError from the constructor
    or its ``__post_init__`` becomes one ConfigError naming ``where``.
    """
    check_keys(doc, [f.name for f in dataclasses.fields(cls)], where)
    hints = typing.get_type_hints(cls)
    kwargs = {key: config_from_json(hints[key], value, key)
              if dataclasses.is_dataclass(hints[key]) else value
              for key, value in doc.items()}
    try:
        return cls(**kwargs)
    except (ConfigError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def read_text(path: str | Path, error: type[LgrinError], what: str) -> str:
    """The UTF-8 text of ``path``; a missing file or one that is not UTF-8
    raises ``error`` naming ``what`` and the path."""
    path = Path(path)
    if not path.is_file():
        raise error(f"{what} not found: {path}")
    try:
        return path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: {what} is not UTF-8 text "
                    f"({exc.reason} at offset {exc.start})") from exc


def parse_json(text: str, error: type[Exception], where: str):
    """``text`` parsed as JSON; malformed or too deeply nested JSON raises
    ``error`` naming ``where``."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise error(f"{where}: invalid JSON ({exc})") from exc
