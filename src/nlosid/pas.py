"""Angular grids and power maps.

Conventions used throughout the package:
  * angles are degrees, azimuth wraps modulo 360 when a grid spans the
    full circle, elevation never wraps
  * delays are nanoseconds, sample rates are GHz, so tap spacing is
    1 / sample_rate_ghz
  * array axes are ordered (elevation, azimuth, tap)
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Annotated

import numpy as np

from .errors import POSITIVE, ConfigError, DataFormatError, Record

# an azimuth span this wide closes the circle
_FULL_TURN_DEG = 360.0 - 1e-9


def wrap_angle_deg(a):
    """Map angles (scalar or array) into [-180, 180)."""
    return (np.asarray(a, dtype=float) + 180.0) % 360.0 - 180.0


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class AngularGrid(Record):
    """Rectangular scan grid over (elevation, azimuth).  Its azimuth axis
    spans less than one turn, so no two columns name one direction."""

    error = DataFormatError

    az_start_deg: float
    az_step_deg: float
    n_az: Annotated[int, POSITIVE]
    el_start_deg: float
    el_step_deg: float
    n_el: Annotated[int, POSITIVE]

    def __post_init__(self):
        super().__post_init__()
        if not (0.0 < self.az_step_deg <= 360.0
                and 0.0 < self.el_step_deg <= 360.0):
            raise ConfigError("angular grid needs steps in (0, 360] degrees")
        span = (self.n_az - 1) * self.az_step_deg
        if span >= _FULL_TURN_DEG:
            raise ConfigError(
                f"azimuth axis of {self.n_az} columns {self.az_step_deg:g} "
                f"degrees apart spans {span:g} degrees; it must stay under "
                f"one turn")

    @classmethod
    def from_ranges(cls, az_range_deg, el_range_deg, az_step_deg: float,
                    el_step_deg: float) -> "AngularGrid":
        """Grid whose axes run from start to stop inclusive; each
        (start, stop) range must span a whole number of steps.  An azimuth
        range of exactly 360 degrees is half-open, since its stop is its
        start again.  A range whose step count is not a finite number, as
        a subnormal step makes it, is refused."""
        counts = []
        for axis, (lo, hi), step in (("azimuth", az_range_deg, az_step_deg),
                                     ("elevation", el_range_deg, el_step_deg)):
            if not 0.0 < step <= 360.0 or hi <= lo:
                raise ConfigError(
                    f"{axis} range ({lo}, {hi}) needs start < stop and a "
                    f"step in (0, 360] degrees")
            steps = (hi - lo) / step
            if not math.isfinite(steps):
                raise ConfigError(
                    f"{axis} range ({lo}, {hi}) spans {steps} steps of "
                    f"{step} degrees; the count must be finite")
            n = int(round(steps)) + 1
            if abs(lo + (n - 1) * step - hi) > 1e-9 * step:
                raise ConfigError(
                    f"{axis} range ({lo}, {hi}) is not a whole number of "
                    f"{step} degree steps")
            if axis == "azimuth" and abs(hi - lo - 360.0) <= 1e-9 * step:
                n -= 1
            counts.append(n)
        return cls(az_start_deg=az_range_deg[0], az_step_deg=az_step_deg,
                   n_az=counts[0], el_start_deg=el_range_deg[0],
                   el_step_deg=el_step_deg, n_el=counts[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_el, self.n_az)

    # each axis is built once per grid and kept read-only; fields alone
    # decide ==, hash and to_dict
    @cached_property
    def azimuths_deg(self) -> np.ndarray:
        return _read_only(self.az_start_deg
                          + self.az_step_deg * np.arange(self.n_az))

    @cached_property
    def elevations_deg(self) -> np.ndarray:
        return _read_only(self.el_start_deg
                          + self.el_step_deg * np.arange(self.n_el))

    @property
    def wraps_azimuth(self) -> bool:
        """True when the azimuth axis covers the full circle, so the first
        and last columns are angular neighbours."""
        return self.n_az * self.az_step_deg >= _FULL_TURN_DEG

    def angles_of(self, el_idx: int, az_idx: int) -> tuple[float, float]:
        return (self.el_start_deg + self.el_step_deg * el_idx,
                self.az_start_deg + self.az_step_deg * az_idx)

    def nearest_pixel(self, el_deg, az_deg):
        """Closest (el_idx, az_idx) to a direction as ints, or to arrays of
        them as whole floats; azimuth is on the circle if the grid wraps."""
        i = np.clip(np.rint((el_deg - self.el_start_deg) / self.el_step_deg),
                    0.0, float(self.n_el - 1))
        if self.wraps_azimuth:
            j = np.rint(((az_deg - self.az_start_deg) % 360.0)
                        / self.az_step_deg) % self.n_az
        else:
            j = np.clip(np.rint((az_deg - self.az_start_deg)
                                / self.az_step_deg), 0.0, float(self.n_az - 1))
        return (i, j) if np.ndim(i) else (int(i), int(j))

    def azimuth_offsets(self, az_idx, ref_az_idx: int) -> np.ndarray:
        """Azimuths of the given columns.  On a full-circle grid they are
        offsets from column ref_az_idx wrapped into [-180, 180), so a
        cluster straddling the seam stays contiguous."""
        az = self.azimuths_deg[np.asarray(az_idx, dtype=int)]
        if not self.wraps_azimuth:
            return az
        return wrap_angle_deg(az - self.azimuths_deg[ref_az_idx])


@dataclass(frozen=True)
class PasMap:
    """Power angular spectrum: per-pixel received energy, linear units."""

    grid: AngularGrid
    power: np.ndarray         # shape (n_el, n_az), >= 0

    def __post_init__(self):
        if self.power.shape != self.grid.shape:
            raise DataFormatError(
                f"power map shape {self.power.shape} does not match grid "
                f"{self.grid.shape}")
        if not np.isfinite(self.power).all():
            raise DataFormatError("power map contains non-finite entries")
        if np.any(self.power < 0):
            raise DataFormatError("power map contains negative entries")


def compute_pas(cir) -> PasMap:
    """Integrate a CirTensor's tap energy into a power angular spectrum.

    Each pixel becomes sum_k |h_k|^2 * dt with dt the tap spacing, i.e. the
    discrete form of integrating squared magnitude over the delay record.
    """
    return PasMap(cir.grid, cir.tap_energy() * cir.tap_spacing_ns)
