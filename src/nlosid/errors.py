"""Exception hierarchy shared across the package, plus the dict round trip
every configuration section and stored data record uses.

The CLI maps these onto process exit codes: configuration problems exit
with 2, malformed input data with 3, and numerical failures with 4.
"""

import dataclasses
import functools
import numbers
import typing


class NlosIdError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(NlosIdError):
    """Invalid or inconsistent configuration values."""


class DataFormatError(NlosIdError):
    """Malformed, truncated, or inconsistent input data."""


class NumericalError(NlosIdError):
    """A computation could not produce a meaningful result."""


class DegenerateInputError(NumericalError):
    """Input carries no usable variation (constant magnitudes, zero energy,
    collapsed cluster geometry)."""


class FitError(NumericalError):
    """Distribution fitting failed or its preconditions were violated."""


class TrainingError(NumericalError):
    """Classifier training failed or its preconditions were violated."""


class EvaluationError(NumericalError):
    """Performance evaluation was requested on unusable inputs."""


class RenderError(ConfigError):
    """A channel cannot be rendered onto the configured sampling grid."""


class Record:
    """Field types and dict round trip of a frozen dataclass kept as JSON.

    An int field takes integers, a float field real numbers, never bools,
    stored as that type.  from_dict also parses Record fields, and tuples
    of them, and raises the class's error for every value it or the class
    rejects: ConfigError for config sections, DataFormatError for data."""

    error = ConfigError

    def __post_init__(self):
        for name, kind in _field_table(type(self))[0]:
            value = getattr(self, name)
            if type(value) is not kind:
                if isinstance(value, bool) or \
                        not isinstance(value, _NUMBERS[kind]):
                    raise self.error(
                        f"{type(self).__name__}.{name} must be "
                        f"{'an integer' if kind is int else 'a real number'}"
                        f", got {value!r}")
                object.__setattr__(self, name, kind(value))

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, d):
        name = cls.__name__
        if not isinstance(d, dict):
            raise cls.error(
                f"{name} must be an object, got {type(d).__name__}")
        unknown = set(d) - {f.name for f in dataclasses.fields(cls)}
        if unknown:
            raise cls.error(f"unknown {name} fields: {sorted(unknown)}")
        nested = _field_table(cls)[1]
        kwargs = {}
        for key, value in d.items():
            kind, many = nested.get(key, (None, False))
            if many and not isinstance(value, list):
                raise cls.error(f"{name}.{key} must be a list, got "
                                f"{type(value).__name__}")
            if kind is not None:
                value = (tuple(map(kind.from_dict, value)) if many
                         else kind.from_dict(value))
            kwargs[key] = value
        try:
            return cls(**kwargs)
        except cls.error:
            raise
        except (NlosIdError, OverflowError, TypeError, ValueError) as exc:
            raise cls.error(f"bad {name}: {exc}") from exc


_NUMBERS = {int: numbers.Integral, float: numbers.Real}


@functools.cache
def _field_table(cls) -> tuple:
    """A Record's int and float fields as (name, type), and name -> (Record
    class, whether a tuple of them) for its Record-typed fields."""
    numeric, nested = [], {}
    for f in dataclasses.fields(cls):
        many = typing.get_origin(f.type) is tuple
        kind = typing.get_args(f.type)[0] if many else f.type
        if f.type in _NUMBERS:
            numeric.append((f.name, f.type))
        elif isinstance(kind, type) and issubclass(kind, Record):
            nested[f.name] = (kind, many)
    return tuple(numeric), nested
