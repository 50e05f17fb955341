"""Per-cluster channel metrics.

Five numbers summarize each cluster:

  r_p          eigenvalue ratio of the angular co-kurtosis matrix;
               concentrated (single-ray) footprints score high
  k_t          kurtosis of tap magnitudes of the cluster's impulse response
  k_f          kurtosis of the magnitude frequency response
  tau_mean_ns  power-weighted mean excess delay
  tau_rms_ns   power-weighted rms delay spread

Kurtosis is the population ratio m4 / m2^2 of central moments; angular
moments are power-weighted over the cluster's pixels in degrees.  The other
four metrics read the impulse response of the cluster's peak pixel.
"""

from dataclasses import dataclass
from typing import Literal

import numpy as np

from .errors import ConfigError, DegenerateInputError, Record
from .pas import PasMap
from .segmentation import Cluster

METRIC_NAMES = ("r_p", "k_t", "k_f", "tau_mean_ns", "tau_rms_ns")
R_P_MODES = ("kurtosis", "covariance")     # what co_kurtosis fills

# spread below this fraction of a squared pixel step counts as collapsed
_SPREAD_REL_TOL = 1e-12
# magnitude variance below this fraction of the squared mean is constant
_VARIANCE_REL_TOL = 1e-12


@dataclass(frozen=True)
class CoKurtosisMatrix:
    """Symmetric 2x2 angular moment matrix; axis 1 is azimuth, axis 2
    elevation."""

    rho11: float
    rho12: float
    rho22: float


@dataclass(frozen=True)
class FeatureVector:
    r_p: float
    k_t: float
    k_f: float
    tau_mean_ns: float
    tau_rms_ns: float
    label: str | None = None

    def values(self) -> np.ndarray:
        """Metric values in canonical METRIC_NAMES order."""
        return np.array([self.r_p, self.k_t, self.k_f,
                         self.tau_mean_ns, self.tau_rms_ns])

    def metric(self, name: str) -> float:
        if name not in METRIC_NAMES:
            raise ConfigError(f"unknown metric {name!r}")
        return getattr(self, name)


@dataclass(frozen=True)
class MetricConfig(Record):
    r_p_mode: Literal[R_P_MODES] = "kurtosis"


def co_kurtosis(cluster: Cluster, pas: PasMap,
                mode: str = "kurtosis") -> CoKurtosisMatrix:
    """Power-weighted angular moment matrix of one cluster.

    mode "kurtosis" fills the matrix with normalized fourth moments
    (marginal kurtoses on the diagonal, the cross term off it); mode
    "covariance" returns the plain weighted covariance in the same
    container.  Both are invariant to scaling the power map.
    """
    if mode not in R_P_MODES:
        raise ConfigError(f"unknown co-kurtosis mode {mode!r}")
    pix = sorted(cluster.pixels)
    if len(pix) < 3:
        raise DegenerateInputError(
            f"cluster needs at least 3 pixels for angular moments, "
            f"got {len(pix)}")
    grid = pas.grid
    el_idx, az_idx = np.array(pix).T
    el = grid.elevations_deg[el_idx]
    # azimuth relative to the peak, so a seam-straddling cluster stays
    # contiguous on the angle axis
    az = grid.azimuth_offsets(az_idx, cluster.peak_pixel[1])
    if len(set(az.tolist())) < 2 or len(set(el.tolist())) < 2:
        raise DegenerateInputError(
            "cluster spans fewer than 2 distinct angles on an axis")

    w = np.asarray(pas.power[el_idx, az_idx], dtype=float)
    total = w.sum()
    if total <= 0.0:
        raise DegenerateInputError("cluster carries no power")
    w = w / total

    daz = az - np.dot(w, az)
    del_ = el - np.dot(w, el)
    s11 = np.dot(w, daz ** 2)
    s22 = np.dot(w, del_ ** 2)
    if s11 < _SPREAD_REL_TOL * grid.az_step_deg ** 2 \
            or s22 < _SPREAD_REL_TOL * grid.el_step_deg ** 2:
        raise DegenerateInputError(
            "cluster power is concentrated on a single angle; angular "
            "spread is numerically zero")
    if mode == "covariance":
        return CoKurtosisMatrix(rho11=float(s11),
                                rho12=float(np.dot(w, daz * del_)),
                                rho22=float(s22))
    m4a = np.dot(w, daz ** 4)
    m4e = np.dot(w, del_ ** 4)
    m22 = np.dot(w, daz ** 2 * del_ ** 2)
    return CoKurtosisMatrix(rho11=float(m4a / s11 ** 2),
                            rho12=float(m22 / (s11 * s22)),
                            rho22=float(m4e / s22 ** 2))


def eigen_ratio(matrix: CoKurtosisMatrix) -> float:
    """min/max eigenvalue ratio of the 2x2 symmetric moment matrix."""
    a, b, c = matrix.rho11, matrix.rho12, matrix.rho22
    half_trace = 0.5 * (a + c)
    disc = np.hypot(0.5 * (a - c), b)
    lo, hi = half_trace - disc, half_trace + disc
    if hi == 0.0:
        raise DegenerateInputError("moment matrix has no nonzero eigenvalue")
    return float(lo / hi)


def _magnitude_kurtosis(mag: np.ndarray, what: str) -> float:
    if len(mag) < 8:
        raise DegenerateInputError(
            f"need at least 8 {what}s for a magnitude kurtosis, got "
            f"{len(mag)}")
    # np.add.reduce(x) / n is np.mean(x) without its dispatch overhead
    n = len(mag)
    mean = float(np.add.reduce(mag) / n)
    # products, not powers: ** calls pow, slow per element and, unlike a
    # product, not exact under power-of-two scaling
    dev = mag - mean
    sq = dev * dev
    m2 = float(np.add.reduce(sq) / n)
    if m2 <= 0.0 or m2 < _VARIANCE_REL_TOL * mean ** 2:
        raise DegenerateInputError(
            f"{what} magnitudes are effectively constant; kurtosis undefined")
    m4 = float(np.add.reduce(sq * sq) / n)
    return m4 / (m2 * m2)


def time_kurtosis(taps: np.ndarray) -> float:
    """Kurtosis of the tap magnitudes of one beam direction."""
    return _magnitude_kurtosis(np.abs(taps), "tap")


def freq_kurtosis(taps: np.ndarray) -> float:
    """Kurtosis of the magnitude frequency response of one beam direction,
    its taps' discrete Fourier transform."""
    return _magnitude_kurtosis(np.abs(np.fft.fft(taps)), "frequency-bin")


def delay_moments(taps: np.ndarray,
                  sample_rate_ghz: float) -> tuple[float, float]:
    """Power-weighted mean tap delay and rms delay spread, nanoseconds from
    the record start, of one beam direction."""
    p = np.abs(taps) ** 2
    total = p.sum()
    if total <= 0.0:
        raise DegenerateInputError("pixel carries no energy; delays undefined")
    delays = np.arange(len(taps)) / sample_rate_ghz
    mean = float(np.dot(p, delays) / total)
    var = float(np.dot(p, (delays - mean) ** 2) / total)
    return mean, float(np.sqrt(max(var, 0.0)))


def cluster_features(cluster: Cluster, pas: PasMap, peak: np.ndarray,
                     sample_rate_ghz: float,
                     config: MetricConfig = MetricConfig()) -> FeatureVector:
    """All five metrics for one segmented cluster.

    The angular metric uses the cluster's pixels on pas; the delay and
    frequency metrics come from peak, the (n_taps,) impulse response of the
    cluster's peak pixel sampled at sample_rate_ghz (CirTensor.pixels reads
    those of many clusters at once).
    """
    try:
        r_p = eigen_ratio(co_kurtosis(cluster, pas, config.r_p_mode))
        k_t = time_kurtosis(peak)
        tau_mean, tau_rms = delay_moments(peak, sample_rate_ghz)
        k_f = freq_kurtosis(peak)
    except DegenerateInputError as exc:
        raise DegenerateInputError(f"cluster {cluster.id}: {exc}") from exc
    return FeatureVector(r_p=float(r_p), k_t=float(k_t), k_f=float(k_f),
                         tau_mean_ns=float(tau_mean), tau_rms_ns=float(tau_rms),
                         label=cluster.truth)
