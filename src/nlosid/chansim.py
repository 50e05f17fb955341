"""Synthetic multipath channel generator and beam-trained renderer.

A channel is a list of ray clusters.  At most one cluster is line-of-sight:
a single dominant ray (largest amplitude in the whole channel) plus up to
two weak companions.  The remaining clusters are reflections: bundles of
rays with exponentially decaying mean amplitude, random phases, and small
angular jitter around the cluster direction.

Rendering sweeps a Gaussian beam pair over a rectangular angular grid and
accumulates each ray into the delay bin nearest its total delay, optionally
adding complex white noise referenced to the strongest ray.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ConfigSection, DataFormatError, RenderError
from .pas import AngularGrid, CirTensor, wrap_angle_deg

LOS = "LOS"
NLOS = "NLOS"

# generator shape constants; the tunable statistics live on SimConfig
_RAYS_MEAN_EXTRA = 8.0        # rays per reflection cluster: 2 + Poisson(8)
_BASE_DELAY_LO_NS = 5.0       # earliest cluster arrival
_BASE_DELAY_HI_NS = 40.0      # latest cluster base arrival
_COMPANION_MIN_DB = 15.0      # LOS companions sit at least this far down
_NLOS_ATTEN_LO_DB = 3.0       # reflection peak amplitude below the LOS ray
_NLOS_ATTEN_HI_DB = 10.0
_AMPLITUDE_CEILING = 0.95     # reflections stay below the unit LOS ray
_MAX_REDRAWS = 100

# sub-stream tags; each (tag, index) pair is an independent random stream
_STREAM_CHANNEL = 0
_STREAM_NOISE = 1
STREAM_TRAINING = 2


def rng_stream(master_seed: int, tag: int, index: int) -> np.random.Generator:
    """Independent generator for one (purpose, realization) pair.

    Streams are derived from the master seed by key, not by draw order, so
    realizations can be produced in any order or in parallel.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=(tag, index))
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class Ray:
    delay_offset_ns: float    # relative to the cluster base delay, >= 0
    amplitude: float          # linear magnitude
    phase_rad: float
    az_offset_deg: float      # relative to the cluster centre
    el_offset_deg: float

    def to_dict(self) -> dict:
        return {
            "delay_offset_ns": float(self.delay_offset_ns),
            "amplitude": float(self.amplitude),
            "phase_rad": float(self.phase_rad),
            "az_offset_deg": float(self.az_offset_deg),
            "el_offset_deg": float(self.el_offset_deg),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "Ray":
        return cls(**{k: float(d[k]) for k in (
            "delay_offset_ns", "amplitude", "phase_rad",
            "az_offset_deg", "el_offset_deg")})


@dataclass(frozen=True)
class RayCluster:
    kind: str                 # LOS or NLOS
    center_az_deg: float
    center_el_deg: float
    base_delay_ns: float
    rays: tuple[Ray, ...]

    def __post_init__(self):
        if self.kind not in (LOS, NLOS):
            raise ConfigError(f"unknown cluster kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "center_az_deg": float(self.center_az_deg),
            "center_el_deg": float(self.center_el_deg),
            "base_delay_ns": float(self.base_delay_ns),
            "rays": [r.to_dict() for r in self.rays],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RayCluster":
        try:
            return cls(
                kind=str(d["kind"]),
                center_az_deg=float(d["center_az_deg"]),
                center_el_deg=float(d["center_el_deg"]),
                base_delay_ns=float(d["base_delay_ns"]),
                rays=tuple(Ray.from_dict(r) for r in d["rays"]),
            )
        except KeyError as exc:
            raise DataFormatError(f"cluster record missing field {exc}") from exc
        except (TypeError, ValueError) as exc:
            raise DataFormatError(f"bad cluster record: {exc}") from exc


@dataclass(frozen=True)
class SimConfig(ConfigSection):
    """Everything needed to reproduce a simulated sounding campaign."""

    az_range_deg: tuple[float, float] = (-180.0, 180.0)
    el_range_deg: tuple[float, float] = (-45.0, 90.0)
    step_deg: float = 5.0             # scan step, both axes
    hpbw_az_deg: float = 5.0          # half-power beamwidth of the beam pair
    hpbw_el_deg: float = 5.0
    sample_rate_ghz: float = 7.0
    n_taps: int = 512
    snr_db: float | None = 60.0       # per-tap SNR vs the strongest ray; None = noiseless
    n_nlos_mean: float = 4.0          # mean reflection-cluster count, 1 + Poisson(mean - 1)
    decay_ns: float = 4.5             # intra-cluster amplitude decay constant
    ray_gap_mean_ns: float = 2.0      # mean spacing between successive rays
    angular_jitter_deg: float = 2.0   # per-ray scatter around the cluster centre
    los_present: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.hpbw_az_deg <= 0 or self.hpbw_el_deg <= 0:
            raise ConfigError("beamwidths must be positive")
        if self.sample_rate_ghz <= 0:
            raise ConfigError("sample_rate_ghz must be positive")
        if self.n_taps < 64:
            raise ConfigError("n_taps must be at least 64")
        if self.n_nlos_mean < 1:
            raise ConfigError("n_nlos_mean must be at least 1")
        if self.decay_ns <= 0 or self.ray_gap_mean_ns <= 0:
            raise ConfigError("decay_ns and ray_gap_mean_ns must be positive")
        if self.angular_jitter_deg < 0:
            raise ConfigError("angular_jitter_deg must be non-negative")
        if self.snr_db is not None and not math.isfinite(self.snr_db):
            raise ConfigError("snr_db must be finite or None")
        for name in ("az_range_deg", "el_range_deg"):
            value = getattr(self, name)
            if not isinstance(value, (list, tuple)) or len(value) != 2:
                raise ConfigError(f"{name} must be a [start, stop] pair")
            # JSON gives lists; store a float tuple so configs compare and hash
            object.__setattr__(self, name, (float(value[0]), float(value[1])))
        # both ranges must land on the step grid
        self.grid()

    def grid(self) -> AngularGrid:
        """The scan grid implied by the ranges and step."""
        return AngularGrid.from_ranges(self.az_range_deg, self.el_range_deg,
                                       self.step_deg, self.step_deg)

    @property
    def record_ns(self) -> float:
        return self.n_taps / self.sample_rate_ghz


def generate_channel(config: SimConfig,
                     realization: int = 0) -> tuple[list[RayCluster], list[str]]:
    """Draw one channel realization: clusters plus their ground-truth kinds.

    The draw depends only on (config.seed, realization), never on call
    order.  Cluster base delays are drawn jointly uniform on the base-delay
    window and assigned so the line-of-sight cluster, when present, arrives
    strictly first.
    """
    last_bin_ns = (config.n_taps - 1) / config.sample_rate_ghz
    if last_bin_ns <= _BASE_DELAY_HI_NS:
        raise ConfigError(
            f"delay record of {last_bin_ns:.1f} ns cannot hold cluster base "
            f"delays up to {_BASE_DELAY_HI_NS:.0f} ns; increase n_taps or "
            f"lower sample_rate_ghz")
    rng = rng_stream(config.seed, _STREAM_CHANNEL, realization)
    (az_lo, az_hi), (el_lo, el_hi) = config.az_range_deg, config.el_range_deg

    n_nlos = 1 + rng.poisson(config.n_nlos_mean - 1.0)
    n_clusters = n_nlos + (1 if config.los_present else 0)
    bases = np.sort(rng.uniform(_BASE_DELAY_LO_NS, _BASE_DELAY_HI_NS, n_clusters))
    # break improbable ties so arrival order stays strict
    for i in range(1, n_clusters):
        if bases[i] <= bases[i - 1]:
            bases[i] = bases[i - 1] + 1e-3

    clusters: list[RayCluster] = []
    if config.los_present:
        clusters.append(_draw_los_cluster(rng, config, bases[0], last_bin_ns,
                                          az_lo, az_hi, el_lo, el_hi))
        bases = bases[1:]
    for base in bases:
        clusters.append(_draw_nlos_cluster(rng, config, float(base), last_bin_ns,
                                           az_lo, az_hi, el_lo, el_hi))
    return clusters, [c.kind for c in clusters]


def _draw_los_cluster(rng, config, base, last_bin_ns, az_lo, az_hi, el_lo, el_hi):
    center_az = rng.uniform(az_lo, az_hi)
    center_el = rng.uniform(el_lo, el_hi)
    rays = [Ray(0.0, 1.0, rng.uniform(0.0, 2.0 * math.pi), 0.0, 0.0)]
    for _ in range(rng.integers(0, 3)):
        offset = rng.exponential(config.ray_gap_mean_ns)
        if base + offset > last_bin_ns:
            continue
        atten_db = _COMPANION_MIN_DB + rng.exponential(5.0)
        rays.append(Ray(
            delay_offset_ns=offset,
            amplitude=10.0 ** (-atten_db / 20.0),
            phase_rad=rng.uniform(0.0, 2.0 * math.pi),
            az_offset_deg=rng.normal(0.0, config.angular_jitter_deg),
            el_offset_deg=rng.normal(0.0, config.angular_jitter_deg),
        ))
    rays.sort(key=lambda r: r.delay_offset_ns)
    return RayCluster(LOS, center_az, center_el, float(base), tuple(rays))


def _draw_nlos_cluster(rng, config, base, last_bin_ns, az_lo, az_hi, el_lo, el_hi):
    center_az = rng.uniform(az_lo, az_hi)
    center_el = rng.uniform(el_lo, el_hi)
    peak_amp = 10.0 ** (-rng.uniform(_NLOS_ATTEN_LO_DB, _NLOS_ATTEN_HI_DB) / 20.0)
    headroom = last_bin_ns - base
    for _ in range(_MAX_REDRAWS):
        n_rays = 2 + rng.poisson(_RAYS_MEAN_EXTRA)
        gaps = rng.exponential(config.ray_gap_mean_ns, n_rays - 1)
        offsets = np.concatenate([[0.0], np.cumsum(gaps)])
        offsets = offsets[offsets <= headroom]
        if len(offsets) >= 2:
            break
    else:
        raise ConfigError(
            f"could not place a reflection cluster at {base:.1f} ns inside a "
            f"{last_bin_ns:.1f} ns record")
    n = len(offsets)
    scale = rng.rayleigh(math.sqrt(2.0 / math.pi), n)
    amps = peak_amp * np.exp(-offsets / config.decay_ns) * scale
    amps[0] = peak_amp  # the specular ray defines the cluster's peak level
    if config.los_present and amps.max() >= _AMPLITUDE_CEILING:
        amps *= _AMPLITUDE_CEILING / amps.max()
    phases = rng.uniform(0.0, 2.0 * math.pi, n)
    az_jit = rng.normal(0.0, config.angular_jitter_deg, n)
    el_jit = rng.normal(0.0, config.angular_jitter_deg, n)
    rays = tuple(Ray(
        delay_offset_ns=float(offsets[i]),
        amplitude=float(amps[i]),
        phase_rad=float(phases[i]),
        az_offset_deg=float(az_jit[i]),
        el_offset_deg=float(el_jit[i]),
    ) for i in range(n))
    return RayCluster(NLOS, center_az, center_el, base, rays)


def beam_gain(d_az_deg, d_el_deg, hpbw_az_deg: float, hpbw_el_deg: float):
    """Combined transmit/receive power gain of the Gaussian beam pair at an
    angular offset from boresight.  Equals 1 at boresight and 1/2 when one
    axis is offset by half its half-power beamwidth."""
    if hpbw_az_deg <= 0 or hpbw_el_deg <= 0:
        raise ConfigError("beamwidths must be positive")
    d_az = np.asarray(d_az_deg, dtype=float)
    d_el = np.asarray(d_el_deg, dtype=float)
    ln2 = math.log(2.0)
    g = np.exp(-4.0 * ln2 * ((d_az / hpbw_az_deg) ** 2
                             + (d_el / hpbw_el_deg) ** 2))
    if g.ndim == 0:
        return float(g)
    return g


def render_cir(clusters: list[RayCluster], config: SimConfig,
               realization: int = 0) -> CirTensor:
    """Sweep the beam pair over the grid and build the impulse-response tensor.

    Each ray lands in the delay bin nearest its total delay with amplitude
    scaled by the square root of the beam power gain toward its direction.
    With snr_db set, circular complex Gaussian noise is added to every tap,
    its per-tap power snr_db below the strongest ray's squared amplitude.
    """
    grid = config.grid()
    az = grid.azimuths_deg
    el = grid.elevations_deg
    data = np.zeros((grid.n_el, grid.n_az, config.n_taps), dtype=complex)
    ln2 = math.log(2.0)
    peak_amp = 0.0

    for ci, cluster in enumerate(clusters):
        for ri, ray in enumerate(cluster.rays):
            delay = cluster.base_delay_ns + ray.delay_offset_ns
            if delay < 0:
                raise RenderError(
                    f"cluster {ci} ray {ri}: negative delay {delay:.3f} ns")
            tap = int(round(delay * config.sample_rate_ghz))
            if tap >= config.n_taps:
                raise RenderError(
                    f"cluster {ci} ray {ri}: delay {delay:.3f} ns falls past "
                    f"the {config.record_ns:.3f} ns record")
            ray_az = cluster.center_az_deg + ray.az_offset_deg
            ray_el = cluster.center_el_deg + ray.el_offset_deg
            d_az = wrap_angle_deg(az - ray_az)
            d_el = el - ray_el
            # beam gain is separable, so amplitude weights factor per axis
            amp_az = np.exp(-2.0 * ln2 * (d_az / config.hpbw_az_deg) ** 2)
            amp_el = np.exp(-2.0 * ln2 * (d_el / config.hpbw_el_deg) ** 2)
            coeff = ray.amplitude * np.exp(1j * ray.phase_rad)
            data[:, :, tap] += coeff * np.outer(amp_el, amp_az)
            peak_amp = max(peak_amp, ray.amplitude)

    if config.snr_db is not None and peak_amp > 0.0:
        rng = rng_stream(config.seed, _STREAM_NOISE, realization)
        noise_power = peak_amp ** 2 * 10.0 ** (-config.snr_db / 10.0)
        sigma = math.sqrt(noise_power / 2.0)
        data += sigma * (rng.standard_normal(data.shape)
                         + 1j * rng.standard_normal(data.shape))
    return CirTensor(grid, config.sample_rate_ghz, data)


def simulate_realization(config: SimConfig, realization: int = 0
                         ) -> tuple[list[RayCluster], list[str], CirTensor]:
    """Generate and render one realization in a single call."""
    clusters, labels = generate_channel(config, realization)
    return clusters, labels, render_cir(clusters, config, realization)
