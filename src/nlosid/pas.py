"""Angular grids, beam-trained impulse-response tensors, and power maps.

Conventions used throughout the package:
  * angles are degrees, azimuth wraps modulo 360 when a grid spans the
    full circle, elevation never wraps
  * delays are nanoseconds, sample rates are GHz, so tap spacing is
    1 / sample_rate_ghz
  * array axes are ordered (elevation, azimuth, tap)
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataFormatError, DegenerateInputError

# relative tolerance for "is this frequency axis uniform"
_UNIFORM_RTOL = 1e-6


def wrap_angle_deg(a):
    """Map angles (scalar or array) into [-180, 180)."""
    return (np.asarray(a, dtype=float) + 180.0) % 360.0 - 180.0


@dataclass(frozen=True)
class AngularGrid:
    """Rectangular scan grid over (elevation, azimuth)."""

    az_start_deg: float
    az_step_deg: float
    n_az: int
    el_start_deg: float
    el_step_deg: float
    n_el: int

    def __post_init__(self):
        if self.az_step_deg <= 0 or self.el_step_deg <= 0:
            raise ConfigError("angular step sizes must be positive")
        if self.n_az < 1 or self.n_el < 1:
            raise ConfigError("grid needs at least one pixel per axis")

    @classmethod
    def from_ranges(cls, az_range_deg, el_range_deg, az_step_deg: float,
                    el_step_deg: float) -> "AngularGrid":
        """Grid whose axes run from start to stop inclusive; each
        (start, stop) range must span a whole number of steps."""
        counts = []
        for axis, (lo, hi), step in (("azimuth", az_range_deg, az_step_deg),
                                     ("elevation", el_range_deg, el_step_deg)):
            if step <= 0 or hi <= lo:
                raise ConfigError(
                    f"{axis} range ({lo}, {hi}) needs start < stop and a "
                    f"positive step")
            n = int(round((hi - lo) / step)) + 1
            if abs(lo + (n - 1) * step - hi) > 1e-9 * step:
                raise ConfigError(
                    f"{axis} range ({lo}, {hi}) is not a whole number of "
                    f"{step} degree steps")
            counts.append(n)
        return cls(az_start_deg=az_range_deg[0], az_step_deg=az_step_deg,
                   n_az=counts[0], el_start_deg=el_range_deg[0],
                   el_step_deg=el_step_deg, n_el=counts[1])

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n_el, self.n_az)

    @property
    def azimuths_deg(self) -> np.ndarray:
        return self.az_start_deg + self.az_step_deg * np.arange(self.n_az)

    @property
    def elevations_deg(self) -> np.ndarray:
        return self.el_start_deg + self.el_step_deg * np.arange(self.n_el)

    @property
    def wraps_azimuth(self) -> bool:
        """True when the azimuth axis covers the full circle, so the first
        and last columns are angular neighbours."""
        return self.n_az * self.az_step_deg >= 360.0 - 1e-9

    def angles_of(self, el_idx: int, az_idx: int) -> tuple[float, float]:
        return (self.el_start_deg + self.el_step_deg * el_idx,
                self.az_start_deg + self.az_step_deg * az_idx)

    def nearest_pixel(self, el_deg: float, az_deg: float) -> tuple[int, int]:
        """Closest (el_idx, az_idx) to a direction; azimuth distance is
        computed on the circle when the grid wraps."""
        i = int(round((el_deg - self.el_start_deg) / self.el_step_deg))
        i = min(max(i, 0), self.n_el - 1)
        if self.wraps_azimuth:
            j = int(round(((az_deg - self.az_start_deg) % 360.0)
                          / self.az_step_deg)) % self.n_az
        else:
            j = int(round((az_deg - self.az_start_deg) / self.az_step_deg))
            j = min(max(j, 0), self.n_az - 1)
        return (i, j)

    def azimuth_offsets(self, az_idx,
                        ref_az_idx: int) -> tuple[np.ndarray, float]:
        """Azimuths of the given columns as offsets from a reference angle,
        plus that reference.  On a full-circle grid the reference is column
        ref_az_idx and offsets wrap into [-180, 180), so a cluster
        straddling the seam stays contiguous; otherwise the reference is 0
        and the offsets are the plain azimuths."""
        az = self.azimuths_deg[np.asarray(az_idx, dtype=int)]
        if not self.wraps_azimuth:
            return az, 0.0
        ref = self.azimuths_deg[ref_az_idx]
        return wrap_angle_deg(az - ref), ref

    def to_dict(self) -> dict:
        return {
            "az_start_deg": float(self.az_start_deg),
            "az_step_deg": float(self.az_step_deg),
            "n_az": int(self.n_az),
            "el_start_deg": float(self.el_start_deg),
            "el_step_deg": float(self.el_step_deg),
            "n_el": int(self.n_el),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AngularGrid":
        try:
            return cls(
                az_start_deg=float(d["az_start_deg"]),
                az_step_deg=float(d["az_step_deg"]),
                n_az=int(d["n_az"]),
                el_start_deg=float(d["el_start_deg"]),
                el_step_deg=float(d["el_step_deg"]),
                n_el=int(d["n_el"]),
            )
        except KeyError as exc:
            raise DataFormatError(f"grid description missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"bad grid description: {exc}") from exc


@dataclass(frozen=True)
class CirTensor:
    """Beam-trained channel impulse responses on an angular grid.

    data has shape (n_el, n_az, n_taps), complex, tap k sits at delay
    k / sample_rate_ghz nanoseconds.
    """

    grid: AngularGrid
    sample_rate_ghz: float
    data: np.ndarray

    def __post_init__(self):
        if self.sample_rate_ghz <= 0:
            raise ConfigError("sample rate must be positive")
        if self.data.ndim != 3 or self.data.shape[:2] != self.grid.shape:
            raise DataFormatError(
                f"tensor shape {self.data.shape} does not match grid "
                f"{self.grid.shape} + tap axis")
        if not np.isfinite(self.data).all():
            raise DataFormatError("impulse-response tensor contains non-finite taps")

    @property
    def n_taps(self) -> int:
        return self.data.shape[2]

    @property
    def tap_spacing_ns(self) -> float:
        return 1.0 / self.sample_rate_ghz

    def pixel(self, el_idx: int, az_idx: int) -> "CirSlice":
        return CirSlice(self.data[el_idx, az_idx, :], self.sample_rate_ghz)


@dataclass(frozen=True)
class CirSlice:
    """Impulse response of a single beam direction."""

    taps: np.ndarray          # complex, shape (n_taps,)
    sample_rate_ghz: float

    def __post_init__(self):
        if self.sample_rate_ghz <= 0:
            raise ConfigError("sample rate must be positive")
        if np.asarray(self.taps).ndim != 1:
            raise DataFormatError("a pixel slice must be one-dimensional")

    @property
    def n_taps(self) -> int:
        return len(self.taps)

    @property
    def tap_spacing_ns(self) -> float:
        return 1.0 / self.sample_rate_ghz

    @property
    def delays_ns(self) -> np.ndarray:
        return np.arange(self.n_taps) / self.sample_rate_ghz


@dataclass(frozen=True)
class CfrSlice:
    """Frequency response of a single beam direction on a uniform axis."""

    frequencies_ghz: np.ndarray
    values: np.ndarray        # complex, same length

    def __post_init__(self):
        f = np.asarray(self.frequencies_ghz, dtype=float)
        if f.ndim != 1 or len(f) < 8:
            raise DataFormatError("frequency response needs at least 8 points")
        if len(f) != len(self.values):
            raise DataFormatError("frequency axis and values disagree in length")
        df = np.diff(f)
        if np.any(df <= 0):
            raise DataFormatError("frequency axis must be strictly increasing")
        step = float(np.mean(df))
        if np.max(np.abs(df - step)) > _UNIFORM_RTOL * step:
            raise DataFormatError("frequency axis is not uniformly spaced")

    @property
    def spacing_ghz(self) -> float:
        f = np.asarray(self.frequencies_ghz, dtype=float)
        return float((f[-1] - f[0]) / (len(f) - 1))


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


def compute_pas(cir: CirTensor) -> PasMap:
    """Integrate per-direction tap energy into a power angular spectrum.

    Each pixel becomes sum_k |h_k|^2 * dt with dt the tap spacing, i.e. the
    discrete form of integrating squared magnitude over the delay record.
    """
    dt = cir.tap_spacing_ns
    power = np.sum(np.abs(cir.data) ** 2, axis=2) * dt
    return PasMap(cir.grid, power)


def cfr_from_cir(pixel: CirSlice) -> CfrSlice:
    """Discrete Fourier transform of one pixel's taps.

    Bin m maps to frequency m / (n * dt) GHz.  Energy is preserved:
    sum |h|^2 == sum |H|^2 / n.
    """
    taps = np.asarray(pixel.taps, dtype=complex)
    if len(taps) < 8:
        raise DegenerateInputError(
            f"need at least 8 taps for a frequency response, got {len(taps)}")
    values = np.fft.fft(taps)
    n = len(taps)
    freqs = np.arange(n) / (n * pixel.tap_spacing_ns)
    return CfrSlice(freqs, values)


def cir_from_cfr(cfr: CfrSlice, window: str = "none") -> CirSlice:
    """Inverse transform of a sampled frequency response.

    window="hann" applies a symmetric Hann taper across the band before
    inverting, the usual choice for measured sweeps; "none" inverts the raw
    samples and is the exact inverse of cfr_from_cir.
    """
    values = np.asarray(cfr.values, dtype=complex)
    n = len(values)
    if window == "hann":
        values = values * np.hanning(n)
    elif window != "none":
        raise ConfigError(f"unknown window {window!r}, expected 'hann' or 'none'")
    taps = np.fft.ifft(values)
    sample_rate = n * cfr.spacing_ghz
    return CirSlice(taps, sample_rate)
