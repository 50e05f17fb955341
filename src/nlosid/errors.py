"""Exception hierarchy shared across the package, plus the dict round trip
every configuration section uses.

The CLI maps these onto process exit codes: configuration problems exit
with 2, malformed input data with 3, and numerical failures with 4.
"""

import dataclasses
import numbers


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


class ConfigSection:
    """Dict round trip for a frozen configuration dataclass.

    from_dict accepts only a dict whose keys are field names, parses fields
    typed as another section recursively, and reports every rejected value
    as a ConfigError naming the class.
    """

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    def _check_integers(self) -> None:
        """Reject a non-integer (or bool) value in any field typed int."""
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if field.type is int and (isinstance(value, bool) or
                                      not isinstance(value, numbers.Integral)):
                raise ConfigError(
                    f"{type(self).__name__}.{field.name} must be an integer, "
                    f"got {value!r}")

    @classmethod
    def from_dict(cls, d):
        name = cls.__name__
        if not isinstance(d, dict):
            raise ConfigError(
                f"{name} section must be an object, got {type(d).__name__}")
        fields = {f.name: f.type for f in dataclasses.fields(cls)}
        unknown = set(d) - set(fields)
        if unknown:
            raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")
        kwargs = {}
        for key, value in d.items():
            kind = fields[key]
            if isinstance(kind, type) and issubclass(kind, ConfigSection):
                value = kind.from_dict(value)
            kwargs[key] = value
        try:
            return cls(**kwargs)
        except (OverflowError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad {name}: {exc}") from exc
