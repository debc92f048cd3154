"""Exception taxonomy shared across the package, the field type check of
the configuration dataclasses, and the checks of a count argument and of a
positive step argument."""

import dataclasses
import math
import numbers
import sys


class HypermilError(Exception):
    """Base class for all package errors."""


class ShapeError(HypermilError):
    """Operand shapes are incompatible for the attempted operation."""


class NumericalError(HypermilError):
    """A computation produced NaN, or a gradient is not finite."""


class GeometryError(HypermilError):
    """Degenerate input to a hyperbolic-geometry formula (origin point,
    coincident points). Callers must pre-filter or skip."""


class EmptyBagError(HypermilError):
    """A bag, region, or aggregation input has no elements."""


class FormatError(HypermilError):
    """A bundle, manifest or checkpoint is malformed; the subclasses name
    the four faults of a file's framing."""


class BadMagicError(FormatError):
    """The file does not start with its format's magic bytes."""


class VersionError(FormatError):
    """The file, or its manifest, holds another version of the format."""


class TruncatedPayloadError(FormatError):
    """The file ends before what its header declares."""


class PayloadLengthError(FormatError):
    """The payload length disagrees with what the header or manifest declares."""


class ConfigError(HypermilError):
    """Malformed or unknown configuration keys/values."""


class SplitError(HypermilError):
    """Split plan cannot be constructed as requested."""


class MetricError(HypermilError):
    """Metric undefined for the given inputs (e.g. single-class AUC)."""


class TrainingError(HypermilError):
    """Training run violated a hard invariant (too many skipped steps)."""


_FIELD_KINDS = {
    float: (numbers.Real, "a finite number"),
    int: (numbers.Integral, "an integer"),
}


def check_field_types(config):
    """Raise ConfigError for a field of the dataclass `config` whose value
    does not have the declared type: float fields take real numbers that
    are finite as floats, int fields integers (a boolean is neither) and a
    field declared as a class takes an instance of it."""
    for f in dataclasses.fields(config):
        kind, what = _FIELD_KINDS.get(f.type, (f.type, f"a {f.type.__name__}"))
        value = getattr(config, f.name)
        if (not isinstance(value, kind) or isinstance(value, bool)
                or f.type is float and not _finite(value)):
            raise ConfigError(f"{f.name} must be {what}, got {value!r}")


def _finite(value):
    """Whether the real `value` is finite as a float: not NaN, not infinite
    and, for an int, not beyond the float range, where isfinite would
    overflow. A narrower numpy float is not compared with the float64
    maximum, which it cannot hold."""
    if isinstance(value, numbers.Integral):
        return abs(value) <= sys.float_info.max
    return math.isfinite(value)


def check_integer(name, value, minimum):
    """Raise ConfigError, naming the argument `name`, unless `value` is an
    integer (a boolean is not one) of at least `minimum`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        raise ConfigError(f"{name} must be an integer of at least {minimum}, "
                          f"got {value!r}")


def check_positive(name, value):
    """Raise ConfigError, naming the argument `name`, unless `value` is a
    number (a boolean is not one) above 0 that is finite as a float."""
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not (value > 0 and _finite(value))):
        raise ConfigError(f"{name} must be a positive finite number, got {value!r}")
