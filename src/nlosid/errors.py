"""Exception hierarchy shared across the package, plus the dict round trip
every configuration section and stored data record uses.

The CLI maps these onto process exit codes: configuration problems exit
with 2, malformed input data with 3, and numerical failures with 4.
"""

import dataclasses
import functools
import numbers
import typing

import numpy as np


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

    A bool field takes bools, an int field integers, a float field finite
    real numbers (never bools), a tuple[float, float] field two of them and
    an np.ndarray field nested lists or an array of them (stored as float,
    float tuple and float64 array), a str field strings and a dict field
    objects; an X | None field also takes None.  from_dict also parses
    Record fields, tuples of them (JSON lists) and str-keyed dicts of them
    (JSON objects).  Every value it or the class rejects raises the class's
    error naming Class.field: ConfigError for config sections,
    DataFormatError for data."""

    error = ConfigError

    def __post_init__(self):
        for name, kind, optional in _field_table(type(self))[0]:
            value = getattr(self, name)
            # the exact-type fast path; x - x is 0.0 for finite floats only
            if type(value) is kind and (kind is not float
                                        or value - value == 0.0) \
                    or optional and value is None:
                continue
            object.__setattr__(self, name,
                               self._checked(name, kind, value, optional))

    def _checked(self, name, kind, value, optional):
        """value stored as kind, or the class's error naming the field."""
        accepts, noun = _SCALARS[kind]
        where, cells = f"{type(self).__name__}.{name}", [value]
        if kind == "array":     # a ragged list keeps lists as its cells
            value = np.asarray(value, dtype=object)
            cells = value.flat
        elif kind == "pair":
            cells = value if isinstance(value, (list, tuple)) \
                and len(value) == 2 else [None]
        for v in cells:
            if isinstance(v, bool) or not isinstance(v, accepts):
                raise self.error(f"{where} must be {noun}"
                                 f"{' or null' if optional else ''}, got "
                                 f"{v if kind == 'array' else value!r}")
        try:
            value = (value.astype(float) if kind == "array" else
                     tuple(map(float, value)) if kind == "pair"
                     else kind(value))
        except OverflowError:     # an integer past the float range
            raise self.error(f"{where} must be finite, got an integer too "
                             f"large for a float") from None
        if accepts is numbers.Real:
            bad = np.ravel(value)[~np.isfinite(np.ravel(value))]
            if bad.size:
                raise self.error(f"{where} must be finite, got {bad[0]}")
        return value

    def to_dict(self) -> dict:
        return dataclasses.asdict(self, dict_factory=_json_object)

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
            dict: (dict, "an object"),
            "pair": (numbers.Real, "a [start, stop] pair of real numbers"),
            "array": (numbers.Real, "an array of real numbers")}
# field types checked under the string keys above, which no value has
_ALIASES = {tuple[float, float]: "pair", np.ndarray: "array"}
_NOUNS = {list: "a list", dict: "an object"}


def _json_object(pairs) -> dict:
    return {k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in pairs}


@functools.cache
def _field_table(cls) -> tuple:
    """Checked fields as (name, _SCALARS key, optional), and Record-typed
    ones as name -> (Record class R, the JSON container of a tuple[R, ...]
    field (list) or a dict[str, R] field (dict) or None, optional)."""
    scalars, nested = [], {}
    for f in dataclasses.fields(cls):
        args = typing.get_args(f.type)
        optional = type(None) in args                 # X | None
        kind = args[0] if optional else f.type
        kind = _ALIASES.get(kind, kind)
        many = {tuple: list, dict: dict}.get(typing.get_origin(kind))
        kind = typing.get_args(kind)[many is dict] if many else kind
        if kind in _SCALARS and not many:
            scalars.append((f.name, kind, optional))
        elif isinstance(kind, type) and issubclass(kind, Record):
            nested[f.name] = (kind, many, optional)
    return tuple(scalars), nested
