"""Synthetic multipath channel generator and beam-trained renderer.

A channel is a list of ray clusters.  At most one cluster is line-of-sight:
a single dominant ray (largest amplitude in the whole channel) plus up to
two weak companions.  The remaining clusters are reflections: bundles of
rays with exponentially decaying mean amplitude, random phases, and small
angular jitter around the cluster direction.

Rendering sweeps a Gaussian beam pair over a rectangular angular grid and
accumulates each ray into the delay bin nearest its total delay, optionally
adding complex white noise referenced to the strongest ray, of which each
pixel keeps two numbers until its taps are read.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import _SCALARS, ConfigError, DataFormatError, Record, RenderError
from .pas import AngularGrid, wrap_angle_deg

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

# sub-stream tags; each (tag, *index) key is an independent random stream
_STREAM_CHANNEL = 0
_STREAM_NOISE = 1
STREAM_TRAINING = 2
_STREAM_PIXEL_NOISE = 3


def rng_stream(master_seed: int, tag: int, *index: int) -> np.random.Generator:
    """Independent generator for one purpose and index, e.g. (noise,
    realization).

    Streams are derived from the master seed by key, not by draw order, so
    realizations can be produced in any order or in parallel.
    """
    seq = np.random.SeedSequence(master_seed, spawn_key=(tag, *index))
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class Ray(Record):
    error = DataFormatError

    delay_offset_ns: float    # relative to the cluster base delay, >= 0
    amplitude: float          # linear magnitude
    phase_rad: float
    az_offset_deg: float      # relative to the cluster centre
    el_offset_deg: float


@dataclass(frozen=True)
class RayCluster(Record):
    error = DataFormatError

    kind: str                 # LOS or NLOS
    center_az_deg: float
    center_el_deg: float
    base_delay_ns: float
    rays: tuple[Ray, ...]

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in (LOS, NLOS):
            raise ConfigError(f"unknown cluster kind {self.kind!r}")


@dataclass(frozen=True)
class SimConfig(Record):
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

    def __post_init__(self):
        super().__post_init__()
        if self.hpbw_az_deg <= 0 or self.hpbw_el_deg <= 0:
            raise ConfigError("beamwidths must be positive")
        if not (math.isfinite(self.sample_rate_ghz)
                and self.sample_rate_ghz > 0):
            raise ConfigError(f"sample_rate_ghz must be positive and finite, "
                              f"got {self.sample_rate_ghz}")
        if self.n_taps < 64:
            raise ConfigError("n_taps must be at least 64")
        if self.n_nlos_mean < 1:
            raise ConfigError("n_nlos_mean must be at least 1")
        if self.decay_ns <= 0 or self.ray_gap_mean_ns <= 0:
            raise ConfigError("decay_ns and ray_gap_mean_ns must be positive")
        if self.angular_jitter_deg < 0:
            raise ConfigError("angular_jitter_deg must be non-negative")
        if self.snr_db is not None:
            try:
                factor = self.noise_factor
            except OverflowError:
                factor = math.inf
            if not (math.isfinite(self.snr_db) and math.isfinite(factor)):
                raise ConfigError(
                    f"snr_db must be None, or finite with a finite noise "
                    f"factor 10 ** (-snr_db / 10); got {self.snr_db}")
        real, _ = _SCALARS[float]
        for name in ("az_range_deg", "el_range_deg"):
            value = getattr(self, name)
            if not (isinstance(value, (list, tuple)) and len(value) == 2
                    and all(isinstance(v, real) and not isinstance(v, bool)
                            for v in value)):
                raise ConfigError(f"SimConfig.{name} must be a [start, stop] "
                                  f"pair of real numbers, got {value!r}")
            # JSON gives lists; store a float tuple so configs compare and hash
            object.__setattr__(self, name, (float(value[0]), float(value[1])))
        # both ranges must land on the step grid
        self.grid()

    def grid(self) -> AngularGrid:
        """The scan grid implied by the ranges and step."""
        return AngularGrid.from_ranges(self.az_range_deg, self.el_range_deg,
                                       self.step_deg, self.step_deg)

    @property
    def noise_factor(self) -> float:
        """Per-tap noise power over the strongest ray's squared amplitude."""
        return 10.0 ** (-self.snr_db / 10.0)

    @property
    def record_ns(self) -> float:
        return self.n_taps / self.sample_rate_ghz


def generate_channel(config: SimConfig, seed: int,
                     realization: int = 0) -> tuple[list[RayCluster], list[str]]:
    """Draw one channel realization: clusters plus their ground-truth kinds.

    The draw depends only on (seed, realization), never on call order.
    Cluster base delays are drawn jointly uniform on the base-delay window
    and assigned so the line-of-sight cluster, when present, arrives
    strictly first.
    """
    last_bin_ns = (config.n_taps - 1) / config.sample_rate_ghz
    if last_bin_ns <= _BASE_DELAY_HI_NS:
        raise ConfigError(
            f"delay record of {last_bin_ns:.1f} ns cannot hold cluster base "
            f"delays up to {_BASE_DELAY_HI_NS:.0f} ns; increase n_taps or "
            f"lower sample_rate_ghz")
    rng = rng_stream(seed, _STREAM_CHANNEL, realization)

    n_nlos = 1 + rng.poisson(config.n_nlos_mean - 1.0)
    n_clusters = n_nlos + (1 if config.los_present else 0)
    bases = np.sort(rng.uniform(_BASE_DELAY_LO_NS, _BASE_DELAY_HI_NS, n_clusters))
    # break improbable ties so arrival order stays strict
    for i in range(1, n_clusters):
        if bases[i] <= bases[i - 1]:
            bases[i] = bases[i - 1] + 1e-3

    clusters: list[RayCluster] = []
    if config.los_present:
        clusters.append(_draw_los_cluster(rng, config, bases[0], last_bin_ns))
        bases = bases[1:]
    for base in bases:
        clusters.append(_draw_nlos_cluster(rng, config, float(base),
                                           last_bin_ns))
    return clusters, [c.kind for c in clusters]


def _draw_los_cluster(rng, config, base, last_bin_ns):
    center_az = rng.uniform(*config.az_range_deg)
    center_el = rng.uniform(*config.el_range_deg)
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


def _draw_nlos_cluster(rng, config, base, last_bin_ns):
    center_az = rng.uniform(*config.az_range_deg)
    center_el = rng.uniform(*config.el_range_deg)
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
    # Ray fields in order: delay offset, amplitude, phase, az and el offsets
    rays = tuple(Ray(*map(float, ray))
                 for ray in zip(offsets, amps, phases, az_jit, el_jit))
    return RayCluster(NLOS, center_az, center_el, base, rays)


def beam_amplitude(d_deg, hpbw_deg: float):
    """Amplitude weight of the Gaussian beam pair at an offset along one
    axis.  The pair's power gain, the product of both axes' squared weights,
    is 1 at boresight and 1/2 at half the half-power beamwidth on one axis."""
    return np.exp(-2.0 * math.log(2.0) * (d_deg / hpbw_deg) ** 2)


def _scaled_rows(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows (last axis) of x scaled exactly, by powers of two, to a largest
    entry in [0.5, 1), so their sums of squares cannot underflow even for
    subnormal rows; and the exponents that undo the scaling."""
    exponent = np.frexp(np.max(np.abs(x), axis=-1, keepdims=True))[1]
    return np.ldexp(x, -exponent), exponent


@dataclass(frozen=True, eq=False)
class CirTensor:
    """Impulse responses on an angular grid, tap k at k / sample_rate_ghz ns.

    signal, shape (n_el, n_az, len(signal_taps)), holds s, the taps at the
    increasing indices signal_taps; the others are zero before noise.  A
    dense tensor has every tap a signal tap and no noise.  A rendered one
    keeps its noise as two numbers per pixel.  A pixel's white noise (real
    view, p = 2 n_taps coordinates, variance sigma^2) is a ~ N(0, sigma^2)
    along mu = s / |s| (the first signal tap's axis when s = 0) plus an
    independent rest, orthogonal to mu, of squared norm sigma^2 chi^2(p - 1)
    and uniform direction v (Muller 1959).  along = |s| + a and across, that
    squared norm, are stored (None when noiseless); a read draws v from the
    pixel's own (seed, realization) sub-stream and returns along mu +
    sqrt(across) v.  pixel() and data share that routine and no generator
    state, so they agree bit for bit in any order of access.
    """

    grid: AngularGrid
    sample_rate_ghz: float
    n_taps: int
    signal_taps: np.ndarray
    signal: np.ndarray
    along: np.ndarray | None = None
    across: np.ndarray | None = None
    seed: int = 0
    realization: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.sample_rate_ghz)
                and self.sample_rate_ghz > 0):
            raise ConfigError(f"sample rate must be positive and finite, got "
                              f"{self.sample_rate_ghz}")
        if self.signal.shape != self.grid.shape + (len(self.signal_taps),):
            raise DataFormatError(
                f"tensor shape {self.signal.shape} does not match grid "
                f"{self.grid.shape} + tap axis")
        # a non-finite signal tap makes its pixel's along non-finite
        stored = ((self.signal,) if self.along is None
                  else (self.along, self.across))
        if not all(np.isfinite(a).all() for a in stored):
            raise DataFormatError(
                "impulse-response tensor contains non-finite taps")

    @classmethod
    def dense(cls, grid: AngularGrid, sample_rate_ghz: float,
              data: np.ndarray) -> "CirTensor":
        """Noiseless tensor whose every tap is a signal tap; data, shape
        (n_el, n_az, n_taps), is kept as it is, not copied."""
        n_taps = data.shape[-1] if data.ndim == 3 else 0
        return cls(grid, sample_rate_ghz, n_taps, np.arange(n_taps), data)

    @property
    def tap_spacing_ns(self) -> float:
        return 1.0 / self.sample_rate_ghz

    def tap_energy(self) -> np.ndarray:
        """Sum of |h_k|^2 over every tap of each pixel, shape (n_el, n_az)."""
        if self.along is None:
            return np.sum(np.abs(self.signal) ** 2, axis=-1)
        return self.along ** 2 + self.across

    @cached_property
    def _pixel_noise(self) -> tuple[np.random.Generator, dict]:
        """Generator and start state of the pixel draws: pixel k = el_idx *
        n_az + az_idx draws from that state advanced by k * 2^64 steps."""
        rng = rng_stream(self.seed, _STREAM_PIXEL_NOISE, self.realization)
        return rng, rng.bit_generator.state

    def _fill(self, rows: np.ndarray, az_idx: int, out: np.ndarray) -> None:
        """Write the taps of pixels (rows, az_idx) into out, complex with
        shape (len(rows), n_taps) and contiguous rows."""
        s = self.signal[rows, az_idx]
        if self.along is None:
            out[:] = 0.0
            out[:, self.signal_taps] = s
            return
        rng, start = self._pixel_noise
        g = out.view(float)
        for r, i in enumerate(rows):
            rng.bit_generator.state = start
            rng.bit_generator.advance(int(i * self.grid.n_az + az_idx) << 64)
            rng.standard_normal(out=g[r])
        mu, _ = _scaled_rows(s.view(float))
        mu[:, 0] += ~mu.any(axis=-1)    # s = 0: first signal tap's axis
        mu /= np.sqrt(np.vecdot(mu, mu))[:, None]
        # mu is zero off the signal taps, so only they lose a component
        ortho = np.ascontiguousarray(out[:, self.signal_taps]).view(float)
        ortho -= np.vecdot(ortho, mu)[:, None] * mu
        out[:, self.signal_taps] = ortho.view(complex)
        out *= (np.sqrt(self.across[rows, az_idx])
                / np.sqrt(np.vecdot(g, g)))[:, None]
        out[:, self.signal_taps] += (self.along[rows, az_idx][:, None]
                                     * mu).view(complex)

    def pixel(self, el_idx: int, az_idx: int) -> np.ndarray:
        """The (n_taps,) complex taps of one beam direction."""
        taps = np.empty((1, self.n_taps), dtype=complex)
        self._fill(np.array([range(self.grid.n_el)[el_idx]]),
                   range(self.grid.n_az)[az_idx], taps)
        return taps[0]

    @cached_property
    def data(self) -> np.ndarray:
        """Dense (n_el, n_az, n_taps) taps: the signal itself when every tap
        is a signal tap and there is no noise, else built on first access."""
        if self.along is None and len(self.signal_taps) == self.n_taps:
            return self.signal
        out = np.empty(self.grid.shape + (self.n_taps,), dtype=complex)
        rows = np.arange(self.grid.n_el)
        for j in range(self.grid.n_az):
            self._fill(rows, j, out[:, j])
        return out


def render_cir(clusters: list[RayCluster], config: SimConfig, seed: int,
               realization: int = 0) -> CirTensor:
    """Sweep the beam pair over the grid and build the impulse-response tensor.

    Each ray lands in the delay bin nearest its total delay with amplitude
    scaled by the square root of the beam power gain toward its direction.
    With snr_db set, every tap carries circular complex Gaussian noise, its
    per-tap power snr_db below the strongest ray's squared amplitude.  The
    render draws two numbers of it per pixel from the (seed, realization)
    noise stream; a read draws the rest (see CirTensor).
    """
    grid = config.grid()
    az = grid.azimuths_deg
    el = grid.elevations_deg
    peak_amp = 0.0
    taps = {}                 # tap index -> (n_el, n_az) sum of its rays

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
            # beam gain is separable, so amplitude weights factor per axis
            amp_az = beam_amplitude(wrap_angle_deg(az - ray_az),
                                    config.hpbw_az_deg)
            amp_el = beam_amplitude(el - ray_el, config.hpbw_el_deg)
            coeff = ray.amplitude * np.exp(1j * ray.phase_rad)
            acc = taps.setdefault(tap, np.zeros(grid.shape, dtype=complex))
            acc += coeff * np.outer(amp_el, amp_az)
            peak_amp = max(peak_amp, ray.amplitude)

    signal_taps = sorted(taps)
    signal = np.empty(grid.shape + (len(signal_taps),), dtype=complex)
    for n, k in enumerate(signal_taps):
        signal[..., n] = taps[k]

    along = across = None
    if config.snr_db is not None and peak_amp > 0.0:
        rng = rng_stream(seed, _STREAM_NOISE, realization)
        sigma2 = peak_amp ** 2 * config.noise_factor / 2.0
        scaled, exponent = _scaled_rows(signal.view(float))
        along = (np.ldexp(np.sqrt(np.vecdot(scaled, scaled)), exponent[..., 0])
                 + math.sqrt(sigma2) * rng.standard_normal(grid.shape))
        across = sigma2 * rng.chisquare(2 * config.n_taps - 1, grid.shape)
    return CirTensor(grid, config.sample_rate_ghz, config.n_taps,
                     np.array(signal_taps, dtype=int), signal, along, across,
                     seed, realization)


def simulate_realization(config: SimConfig, seed: int, realization: int = 0
                         ) -> tuple[list[RayCluster], list[str], CirTensor]:
    """Generate and render one realization in a single call."""
    clusters, labels = generate_channel(config, seed, realization)
    return clusters, labels, render_cir(clusters, config, seed, realization)
