"""Shared fixtures and builders for the test suite."""

import json

import numpy as np
import pytest

from nlosid.chansim import LOS, NLOS, SimConfig
from nlosid.metrics import FeatureVector
from nlosid.pas import AngularGrid, PasMap
from nlosid.segmentation import Cluster


def small_sim(**overrides) -> SimConfig:
    """A fast simulation setup: 25x13 grid, 64 ns record at 2 GHz."""
    base = dict(
        az_range_deg=(-60.0, 60.0),
        el_range_deg=(-30.0, 30.0),
        step_deg=5.0,
        sample_rate_ghz=2.0,
        n_taps=128,
        snr_db=None,
    )
    base.update(overrides)
    return SimConfig(**base)


# placeholder strings for JSON numbers that json.dumps cannot write
RAW_NUMBERS = {"@inf": "1e400", "@long": "9" * 4400}


def json_with_raw_numbers(doc) -> str:
    """doc as JSON text with each RAW_NUMBERS placeholder string replaced by
    its raw number, e.g. 1e400, which parses as infinity."""
    text = json.dumps(doc)
    for placeholder, literal in RAW_NUMBERS.items():
        text = text.replace(f'"{placeholder}"', literal)
    return text


def flat_grid(n_el: int = 20, n_az: int = 20, step: float = 1.0,
              az_start: float = 0.0, el_start: float = 0.0) -> AngularGrid:
    return AngularGrid(az_start_deg=az_start, az_step_deg=step, n_az=n_az,
                       el_start_deg=el_start, el_step_deg=step, n_el=n_el)


def grid_sweeps(grid: AngularGrid, freqs, values) -> np.ndarray:
    """ingest_sweeps table naming every direction of grid in raster order,
    pixel (i, j) swept at freqs with values[i, j]."""
    n = len(freqs)
    el, az = np.meshgrid(grid.elevations_deg, grid.azimuths_deg,
                         indexing="ij")
    values = np.asarray(values).reshape(grid.shape + (n,)).ravel()
    return np.column_stack([np.repeat(az, n), np.repeat(el, n),
                            np.tile(freqs, el.size), values.real,
                            values.imag])


def blob_map(grid: AngularGrid, blobs, floor: float = 1.0) -> PasMap:
    """Power map of Gaussian blobs on a constant background.

    blobs: iterable of (el_idx, az_idx, amplitude, sigma_px).  Distances are
    measured in pixels, wrapping the azimuth axis when the grid does.
    """
    ii, jj = np.meshgrid(np.arange(grid.n_el), np.arange(grid.n_az),
                         indexing="ij")
    power = np.full(grid.shape, float(floor))
    for el0, az0, amp, sigma in blobs:
        d_el = ii - el0
        d_az = np.abs(jj - az0)
        if grid.wraps_azimuth:
            d_az = np.minimum(d_az, grid.n_az - d_az)
        power = power + amp * np.exp(-(d_el ** 2 + d_az ** 2)
                                     / (2.0 * sigma ** 2))
    return PasMap(grid, power)


def cluster_of(pixels, pas: PasMap, cluster_id: int = 1,
               truth=None) -> Cluster:
    """Wrap a pixel set into a Cluster, deriving peak and total power from
    the map."""
    pix = sorted(pixels)
    peak = max(pix, key=lambda p: (pas.power[p], -p[0], -p[1]))
    total = float(sum(pas.power[p] for p in pix))
    return Cluster(id=cluster_id, pixels=frozenset(pix), peak_pixel=peak,
                   total_power=total, truth=truth)


def make_fv(r_p=0.8, k_t=200.0, k_f=2.5, tau_mean_ns=3.0, tau_rms_ns=4.0,
            label=None) -> FeatureVector:
    return FeatureVector(r_p=r_p, k_t=k_t, k_f=k_f, tau_mean_ns=tau_mean_ns,
                         tau_rms_ns=tau_rms_ns, label=label)


def separable_features(n_per_class: int = 40, seed: int = 5) -> list:
    """Two classes split cleanly by the eigenvalue-ratio feature; the other
    four features share one distribution so they carry no signal."""
    rng = np.random.default_rng(seed)
    rows = []
    for label, center in ((LOS, 0.9), (NLOS, 0.3)):
        for _ in range(n_per_class):
            rows.append(FeatureVector(
                r_p=float(np.clip(rng.normal(center, 0.02), 0.01, 1.0)),
                k_t=float(rng.normal(200.0, 30.0)),
                k_f=float(rng.normal(2.5, 0.2)),
                tau_mean_ns=float(abs(rng.normal(4.0, 1.0))),
                tau_rms_ns=float(abs(rng.normal(4.0, 1.0))),
                label=label))
    return rows


def labelled_feature_rows(n_realizations: int = 50, seed: int = 3) -> list:
    """(realization, FeatureVector) pairs, one LOS and one NLOS row per
    realization, with class-dependent statistics in every metric."""
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n_realizations):
        rows.append((i, FeatureVector(
            r_p=float(np.clip(rng.normal(0.85, 0.06), 0.02, 1.0)),
            k_t=float(rng.normal(300.0, 50.0)),
            k_f=float(rng.normal(2.7, 0.18)),
            tau_mean_ns=float(abs(rng.normal(2.0, 0.7))),
            tau_rms_ns=float(abs(rng.normal(4.5, 0.5))),
            label=LOS)))
        rows.append((i, FeatureVector(
            r_p=float(np.clip(rng.normal(0.45, 0.15), 0.02, 1.0)),
            k_t=float(rng.normal(180.0, 45.0)),
            k_f=float(rng.normal(2.4, 0.18)),
            tau_mean_ns=float(abs(rng.normal(6.5, 2.5))),
            tau_rms_ns=float(abs(rng.normal(5.6, 1.2))),
            label=NLOS)))
    return rows


def gev_inverse_sample(gamma: float, mu: float, sigma: float, n: int,
                       seed: int) -> np.ndarray:
    """Draw from the extreme-value family by inverting its distribution
    function, independent of the package's own code paths."""
    u = np.random.default_rng(seed).uniform(0.0, 1.0, n)
    if gamma == 0.0:
        return mu - sigma * np.log(-np.log(u))
    return mu + sigma * ((-np.log(u)) ** -gamma - 1.0) / gamma


@pytest.fixture
def rng():
    return np.random.default_rng(20260816)
