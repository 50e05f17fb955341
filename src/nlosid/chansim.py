"""Synthetic multipath channel generator and beam-trained renderer.

A channel is a list of ray clusters.  At most one cluster is line-of-sight:
a single dominant ray (largest amplitude in the whole channel) plus up to
two weak companions.  The remaining clusters are reflections: bundles of
rays with exponentially decaying mean amplitude, random phases, and small
angular jitter around the cluster direction.

Rendering sweeps a Gaussian beam pair over a rectangular angular grid.  Each
ray lands in the delay bin nearest its total delay, weighted per axis by the
beam, and a rendered tensor keeps the rays in that factored form, building a
pixel's taps only when they are read.  Optional complex white noise,
referenced to the strongest ray, is kept as two numbers per pixel until
then.
"""

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Annotated, Literal

import numpy as np

from .errors import (NON_NEGATIVE, POSITIVE, AtLeast, ConfigError,
                     DataFormatError, Record, RenderError)
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


def check_sample_rate(rate_ghz: float, error=ConfigError,
                      where: str = "") -> None:
    """Raise error, its message led by where, unless rate_ghz and its tap
    spacing 1 / rate_ghz are both positive and finite (a subnormal rate's
    spacing is not)."""
    if not (0 < rate_ghz < math.inf and 1 / rate_ghz < math.inf):
        raise error(f"{where}sample rate must be positive and finite, with a "
                    f"finite tap spacing 1 / rate, got {rate_ghz}")


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

    kind: Literal[LOS, NLOS]
    center_az_deg: float
    center_el_deg: float
    base_delay_ns: float
    rays: tuple[Ray, ...]


@dataclass(frozen=True)
class SimConfig(Record):
    """Everything needed to reproduce a simulated sounding campaign."""

    az_range_deg: tuple[float, float] = (-180.0, 180.0)
    el_range_deg: tuple[float, float] = (-45.0, 90.0)
    step_deg: float = 5.0             # scan step, both axes
    hpbw_az_deg: Annotated[float, POSITIVE] = 5.0   # the beam pair's
    hpbw_el_deg: Annotated[float, POSITIVE] = 5.0   # half-power beamwidths
    sample_rate_ghz: float = 7.0
    n_taps: Annotated[int, AtLeast(64)] = 512
    snr_db: float | None = 60.0       # per-tap SNR vs the strongest ray; None = noiseless
    n_nlos_mean: float = 4.0          # mean reflection-cluster count, 1 + Poisson(mean - 1)
    decay_ns: Annotated[float, POSITIVE] = 4.5   # amplitude decay in a cluster
    ray_gap_mean_ns: Annotated[float, POSITIVE] = 2.0   # mean gap between rays
    angular_jitter_deg: Annotated[float, NON_NEGATIVE] = 2.0  # per-ray scatter
    los_present: bool = True

    def __post_init__(self):
        super().__post_init__()
        check_sample_rate(self.sample_rate_ghz,
                          where="SimConfig.sample_rate_ghz: ")
        object.__setattr__(self, "angular_jitter_deg",
                           self.angular_jitter_deg + 0.0)   # numpy refuses -0.0
        if self.snr_db is not None:
            try:
                self.noise_factor
            except OverflowError:
                raise ConfigError(
                    f"snr_db must be None, or finite with a finite noise "
                    f"factor 10 ** (-snr_db / 10); got {self.snr_db}"
                ) from None
        # both ranges must land on the step grid, and the dense complex128
        # tensor must be an array numpy can size
        grid = self.grid()
        counts = {"el_range_deg": grid.n_el, "az_range_deg": grid.n_az,
                  "n_taps": self.n_taps}
        limit = np.iinfo(np.intp).max
        if 16 * math.prod(counts.values()) > limit:
            name = max(counts, key=counts.get)
            step = "" if name == "n_taps" else f" at step_deg {self.step_deg}"
            raise ConfigError(
                f"SimConfig.{name}{step} is too large: its dense tensor of "
                f"complex128 taps would exceed the {limit} bytes numpy can "
                f"allocate")
        # segmentation resolves at most one cluster per beam direction
        if not 1 <= self.n_nlos_mean <= grid.n_el * grid.n_az:
            raise ConfigError(f"SimConfig.n_nlos_mean must be at least 1 and "
                              f"at most the grid's {grid.n_el * grid.n_az} "
                              f"beam directions, got {self.n_nlos_mean}")

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
        with np.errstate(over="ignore"):      # inf lands past the record
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


def _scaled_rows(x: np.ndarray) -> np.ndarray:
    """Rows (last axis) of x scaled exactly, by powers of two, to a largest
    entry in [0.5, 1), so their sums of squares cannot underflow even for
    subnormal rows."""
    exponent = np.frexp(np.max(np.abs(x), axis=-1, keepdims=True))[1]
    return np.ldexp(x, -exponent)


@dataclass(frozen=True, eq=False)
class BeamRays:
    """A rendered channel in the factored form the separable beam gives:
    ray r adds coeff[r] * amp_el[r, i] * amp_az[r, j] to signal tap slot[r]
    of pixel (i, j)."""

    slot: np.ndarray          # (n_rays,) index into the signal taps
    coeff: np.ndarray         # (n_rays,) complex amplitude
    amp_el: np.ndarray        # (n_rays, n_el) beam weight per elevation row
    amp_az: np.ndarray        # (n_rays, n_az) beam weight per azimuth column

    def norms(self, peak_amp: float) -> np.ndarray:
        """|s| of every pixel, shape (n_el, n_az), peak_amp at least every
        ray's amplitude.  The coefficients are first scaled exactly by
        peak_amp's power of two, so |s| scales exactly with the amplitudes
        and its squares underflow only below about 2^-500 peak_amp.  All
        taps with one ray add |c|^2 e^2 (x) a^2 in one matrix product; a tap
        with several rays is built and then squared, which cannot cancel."""
        exponent = math.frexp(peak_amp)[1]
        coeff = np.ldexp(self.coeff.view(float), -exponent).view(complex)
        counts = np.bincount(self.slot)
        alone = counts[self.slot] == 1
        energy = ((self.amp_el[alone].T ** 2 * np.abs(coeff[alone]) ** 2)
                  @ self.amp_az[alone] ** 2)
        for k in np.flatnonzero(counts > 1):
            s = 0.0
            for r in np.flatnonzero(self.slot == k):
                s = s + coeff[r] * (self.amp_el[r][:, None] * self.amp_az[r])
            energy += s.real ** 2 + s.imag ** 2
        return np.ldexp(np.sqrt(energy), exponent)


@dataclass(frozen=True, eq=False)
class CirTensor:
    """Impulse responses on an angular grid, tap k at k / sample_rate_ghz ns.

    s, the signal, is nonzero only at the increasing tap indices
    signal_taps.  A dense tensor stores every tap (a file's complex64 taps
    are read as complex128), all of them signal taps, and no noise.  A
    rendered one stores its rays (BeamRays), from which any pixel's signal
    taps are built, and its noise as two numbers per pixel.  A pixel's white
    noise (real view, p = 2 n_taps coordinates, variance sigma^2) is
    a ~ N(0, sigma^2) along mu = s / |s| (the first
    signal tap's axis when s = 0) plus an independent rest, orthogonal to
    mu, of squared norm sigma^2 chi^2(p - 1) and uniform direction v
    (Muller 1959).  along = |s| + a and across, that squared norm, are
    stored (None when noiseless); a read draws v from the pixel's own
    (seed, realization) sub-stream and returns along mu + sqrt(across) v.
    pixels(), pixel(), signal and data share one signal routine and no
    generator state, so they agree bit for bit in any order of access.
    """

    grid: AngularGrid
    sample_rate_ghz: float
    n_taps: int
    signal_taps: np.ndarray
    stored: np.ndarray | None = None   # dense: (n_el, n_az, n_taps) taps
    rays: BeamRays | None = None       # rendered
    along: np.ndarray | None = None
    across: np.ndarray | None = None
    seed: int = 0
    realization: int = 0

    def __post_init__(self):
        check_sample_rate(self.sample_rate_ghz)
        if self.rays is None and (self.stored.shape != self.grid.shape
                                  + (len(self.signal_taps),)):
            raise DataFormatError(
                f"tensor shape {self.stored.shape} does not match grid "
                f"{self.grid.shape} + tap axis")
        # a non-finite signal tap makes its pixel's along non-finite
        kept = ((self.along, self.across) if self.along is not None
                else (self.stored if self.rays is None else self.signal,))
        if not all(np.isfinite(a).all() for a in kept):
            raise DataFormatError(
                "impulse-response tensor contains non-finite taps")

    @classmethod
    def dense(cls, grid: AngularGrid, sample_rate_ghz: float,
              data: np.ndarray) -> "CirTensor":
        """Noiseless tensor whose every tap is a signal tap; data, shape
        (n_el, n_az, n_taps), complex64 or complex128, is kept uncopied."""
        n_taps = data.shape[-1] if data.ndim == 3 else 0
        return cls(grid, sample_rate_ghz, n_taps, np.arange(n_taps), data)

    @property
    def tap_spacing_ns(self) -> float:
        return 1.0 / self.sample_rate_ghz

    def tap_energy(self) -> np.ndarray:
        """Sum of |h_k|^2 over each pixel's taps, row by row: (n_el, n_az)."""
        if self.along is not None:
            return self.along ** 2 + self.across
        az = np.arange(self.grid.n_az)
        return np.array([np.sum(np.abs(self._signal_at(i, az)) ** 2, axis=-1)
                         for i in np.arange(self.grid.n_el)[:, None]])

    def _signal_at(self, el_idx: np.ndarray, az_idx: np.ndarray) -> np.ndarray:
        """The C-contiguous signal taps, shape (*shape, len(signal_taps)),
        of pixels (el_idx[p], az_idx[p]) for the indices p of shape, the
        broadcast shape of the two index arrays.  A rendered tensor adds each
        ray into its tap in cluster and ray order, onto +0.0, tap by tap over
        all the pixels at once, so every pixel gets the same bits however it
        is read."""
        if self.rays is None:
            return self.stored[el_idx, az_idx].astype(complex, copy=False)
        rays = self.rays
        weight = rays.amp_el[:, el_idx] * rays.amp_az[:, az_idx]
        acc = np.zeros((len(self.signal_taps),) + weight.shape[1:],
                       dtype=complex)
        for r, k in enumerate(rays.slot.tolist()):
            acc[k] += rays.coeff[r] * weight[r]
        return np.ascontiguousarray(np.moveaxis(acc, 0, -1))

    @property
    def signal(self) -> np.ndarray:
        """s, complex128 with shape (n_el, n_az, len(signal_taps)): a dense
        tensor's stored taps, built on each access for a rendered one."""
        if self.rays is None:
            return self.stored.astype(complex, copy=False)
        return self._signal_at(*np.ix_(range(self.grid.n_el),
                                       range(self.grid.n_az)))

    @cached_property
    def _pixel_noise(self) -> tuple[np.random.Generator, dict]:
        """Generator and start state of the pixel draws: pixel k = el_idx *
        n_az + az_idx draws from that state advanced by k * 2^64 steps."""
        rng = rng_stream(self.seed, _STREAM_PIXEL_NOISE, self.realization)
        return rng, rng.bit_generator.state

    def _fill(self, el_idx: np.ndarray, az_idx: np.ndarray, s: np.ndarray,
              out: np.ndarray) -> None:
        """Write the taps of pixels (el_idx[r], az_idx[r]), whose signal
        taps are s[r], into out[r]; out is complex with shape
        (len(el_idx), n_taps) and contiguous rows."""
        if self.along is None:
            out[:] = 0.0
            out[:, self.signal_taps] = s
            return
        rng, start = self._pixel_noise
        g = out.view(float)
        n_az = self.grid.n_az
        for r, (i, j) in enumerate(zip(el_idx.tolist(), az_idx.tolist())):
            rng.bit_generator.state = start
            rng.bit_generator.advance((i * n_az + j) << 64)
            rng.standard_normal(out=g[r])
        mu = _scaled_rows(s.view(float))
        mu[:, 0] += ~mu.any(axis=-1)    # s = 0: first signal tap's axis
        mu /= np.sqrt(np.vecdot(mu, mu))[:, None]
        # mu is zero off the signal taps, so only they lose a component
        ortho = np.ascontiguousarray(out[:, self.signal_taps]).view(float)
        ortho -= np.vecdot(ortho, mu)[:, None] * mu
        out[:, self.signal_taps] = ortho.view(complex)
        out *= (np.sqrt(self.across[el_idx, az_idx])
                / np.sqrt(np.vecdot(g, g)))[:, None]
        out[:, self.signal_taps] += (self.along[el_idx, az_idx][:, None]
                                     * mu).view(complex)

    def pixels(self, el_idx, az_idx) -> np.ndarray:
        """The (k, n_taps) complex taps of the k beam directions
        (el_idx[r], az_idx[r]), in the order given; a direction may repeat.
        Negative indices count from the end of their axis."""
        el_idx, az_idx = np.asarray(el_idx), np.asarray(az_idx)
        if el_idx.ndim != 1 or el_idx.shape != az_idx.shape:
            raise IndexError(f"pixels needs two index sequences of one "
                             f"length, got shapes {el_idx.shape} and "
                             f"{az_idx.shape}")
        out = np.empty((len(el_idx), self.n_taps), dtype=complex)
        if len(el_idx):
            el_idx = np.arange(self.grid.n_el)[el_idx]
            az_idx = np.arange(self.grid.n_az)[az_idx]
            self._fill(el_idx, az_idx, self._signal_at(el_idx, az_idx), out)
        return out

    def pixel(self, el_idx: int, az_idx: int) -> np.ndarray:
        """The (n_taps,) complex taps of one beam direction."""
        return self.pixels([el_idx], [az_idx])[0]

    @cached_property
    def data(self) -> np.ndarray:
        """Dense (n_el, n_az, n_taps) taps: the signal itself when every tap
        is a signal tap and there is no noise, else built on first access
        by one pixels() call over every direction."""
        if self.along is None and len(self.signal_taps) == self.n_taps:
            return self.signal
        el_idx, az_idx = np.indices(self.grid.shape).reshape(2, -1)
        return self.pixels(el_idx, az_idx).reshape(self.grid.shape
                                                   + (self.n_taps,))


def render_cir(clusters: list[RayCluster], config: SimConfig, seed: int,
               realization: int = 0) -> CirTensor:
    """Sweep the beam pair over the grid and build the impulse-response tensor.

    Each ray lands in the delay bin nearest its total delay with amplitude
    scaled by the square root of the beam power gain toward its direction.
    The tensor keeps the rays (BeamRays), not the taps.  With snr_db set,
    every tap carries circular complex Gaussian noise, its per-tap power
    snr_db below the strongest ray's squared amplitude.  The render draws
    two numbers of it per pixel from the (seed, realization) noise stream,
    the first added to |s|, which BeamRays.norms takes from the rays
    without building the taps; a read draws the rest (see CirTensor).
    """
    grid = config.grid()
    taps, ray_az, ray_el, amplitudes, phases = [], [], [], [], []
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
            taps.append(tap)
            ray_az.append(cluster.center_az_deg + ray.az_offset_deg)
            ray_el.append(cluster.center_el_deg + ray.el_offset_deg)
            amplitudes.append(ray.amplitude)
            phases.append(ray.phase_rad)
    peak_amp = max([0.0] + amplitudes)

    # beam gain is separable, so amplitude weights factor per axis; one row
    # per ray
    amp_az = beam_amplitude(
        wrap_angle_deg(grid.azimuths_deg - np.array(ray_az)[:, None]),
        config.hpbw_az_deg)
    amp_el = beam_amplitude(grid.elevations_deg - np.array(ray_el)[:, None],
                            config.hpbw_el_deg)
    coeff = np.array(amplitudes) * np.exp(1j * np.array(phases))
    signal_taps, slot = np.unique(np.array(taps, dtype=int),
                                  return_inverse=True)
    rays = BeamRays(slot, coeff, amp_el, amp_az)

    along = across = None
    if config.snr_db is not None and peak_amp > 0.0:
        rng = rng_stream(seed, _STREAM_NOISE, realization)
        sigma2 = peak_amp ** 2 * config.noise_factor / 2.0
        along = (rays.norms(peak_amp)
                 + math.sqrt(sigma2) * rng.standard_normal(grid.shape))
        across = sigma2 * rng.chisquare(2 * config.n_taps - 1, grid.shape)
    return CirTensor(grid, config.sample_rate_ghz, config.n_taps,
                     signal_taps, rays=rays, along=along, across=across,
                     seed=seed, realization=realization)


def simulate_realization(config: SimConfig, seed: int, realization: int = 0
                         ) -> tuple[list[RayCluster], list[str], CirTensor]:
    """Generate and render one realization in a single call."""
    clusters, labels = generate_channel(config, seed, realization)
    return clusters, labels, render_cir(clusters, config, seed, realization)
