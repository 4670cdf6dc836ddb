"""Exception types shared across the package, plus the integer check that
config dataclasses run before their own validation."""

import dataclasses


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


def check_int_fields(config) -> None:
    """Raise ConfigError for any ``int``-annotated dataclass field holding a
    non-integer, so 1.5 epochs fails here rather than deep in numpy."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type in ("int", int) and not is_int(value):
            raise ConfigError(f"{f.name} must be an integer, got {value!r}")
