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

    A bool field takes bools, an int field integers, a float field real
    numbers (never bools, stored as that type), a str field strings and a
    dict field objects; an X | None field also takes None.  from_dict also
    parses Record fields, tuples of them (JSON lists) and str-keyed dicts
    of them (JSON objects), and raises the class's error for every value
    it or the class rejects: ConfigError for config sections,
    DataFormatError for data."""

    error = ConfigError

    def __post_init__(self):
        for name, kind, optional in _field_table(type(self))[0]:
            value = getattr(self, name)
            if type(value) is kind or (optional and value is None):
                continue
            accepts, noun = _SCALARS[kind]
            if isinstance(value, bool) or not isinstance(value, accepts):
                raise self.error(
                    f"{type(self).__name__}.{name} must be {noun}"
                    f"{' or null' if optional else ''}, got {value!r}")
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
        try:
            for key, value in d.items():
                kind, many, optional = nested.get(key, (None, None, False))
                if kind is not None and not (optional and value is None):
                    if many and not isinstance(value, many):
                        raise cls.error(f"{name}.{key} must be {_NOUNS[many]}"
                                        f", got {type(value).__name__}")
                    value = (kind.from_dict(value) if many is None
                             else tuple(map(kind.from_dict, value))
                             if many is list else
                             {k: kind.from_dict(v) for k, v in value.items()})
                kwargs[key] = value
            return cls(**kwargs)
        except cls.error:
            raise
        except (NlosIdError, OverflowError, TypeError, ValueError) as exc:
            raise cls.error(f"bad {name}: {exc}") from exc


_SCALARS = {bool: (bool, "a boolean"), int: (numbers.Integral, "an integer"),
            float: (numbers.Real, "a real number"), str: (str, "a string"),
            dict: (dict, "an object")}
_NOUNS = {list: "a list", dict: "an object"}


@functools.cache
def _field_table(cls) -> tuple:
    """Scalar fields as (name, type, optional), and Record-typed ones as
    name -> (Record class R, the JSON container of a tuple[R, ...] field
    (list) or a dict[str, R] field (dict) or None, optional)."""
    scalars, nested = [], {}
    for f in dataclasses.fields(cls):
        args = typing.get_args(f.type)
        optional = type(None) in args                 # X | None
        kind = args[0] if optional else f.type
        many = {tuple: list, dict: dict}.get(typing.get_origin(kind))
        kind = typing.get_args(kind)[many is dict] if many else kind
        if kind in _SCALARS and not many:
            scalars.append((f.name, kind, optional))
        elif isinstance(kind, type) and issubclass(kind, Record):
            nested[f.name] = (kind, many, optional)
    return tuple(scalars), nested
