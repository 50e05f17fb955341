"""Watershed segmentation of power angular spectra into ray clusters.

The pipeline works on the dB map so every decision is relative to the map's
own level, never to absolute power:

  1. convert to dB, pinning empty pixels far below the map peak
  2. foreground mask: pixels above a median noise floor plus a margin
  3. smooth the dB map with a grayscale open-then-close
  4. markers: regional maxima of the smoothed map inside the mask, with
     nearby maxima suppressed in favour of the stronger one
  5. priority flood of the smoothed map from the markers, highest value
     first, restricted to the mask
  6. basins smaller than a pixel budget are dropped

Azimuth is treated as circular whenever the grid spans the full 360
degrees, so clusters may straddle the +-180 degree seam.
"""

import heapq
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .chansim import LOS, NLOS, RayCluster
from .errors import ConfigError, ConfigSection
from .pas import AngularGrid, PasMap, wrap_angle_deg

# empty pixels are pinned this far below the map peak before dB conversion
_ZERO_PIN_DB = 400.0


@dataclass(frozen=True)
class SegParams(ConfigSection):
    foreground_threshold_db: float = 10.0  # margin above the noise floor
    min_pixels: int = 4                    # smallest surviving cluster
    marker_min_separation: float = 5.0     # pixels, between seed maxima
    smoothing_radius: int = 1              # disc radius for open/close

    def __post_init__(self):
        if self.foreground_threshold_db <= 0:
            raise ConfigError("foreground_threshold_db must be positive")
        if self.min_pixels < 1:
            raise ConfigError("min_pixels must be at least 1")
        if self.marker_min_separation < 0:
            raise ConfigError("marker_min_separation must be non-negative")
        if self.smoothing_radius < 0:
            raise ConfigError("smoothing_radius must be non-negative")


@dataclass(frozen=True)
class Cluster:
    """One segmented blob of the power map."""

    id: int
    pixels: frozenset        # of (el_idx, az_idx)
    peak_pixel: tuple[int, int]
    centroid_el_deg: float
    centroid_az_deg: float
    total_power: float
    truth: str | None = None


def estimate_noise_floor(pas: PasMap) -> float:
    """Median pixel power, linear units.

    Foreground clusters occupy a small fraction of a scan, so the median is
    a robust stand-in for the noise-only level.
    """
    return float(np.median(pas.power))


def _disc_footprint(radius: int) -> np.ndarray:
    if radius == 0:
        return np.ones((1, 1), dtype=bool)
    r = np.arange(-radius, radius + 1)
    return (r[:, None] ** 2 + r[None, :] ** 2) <= radius ** 2


def _neighbors(i: int, j: int, n_el: int, n_az: int, wrap: bool):
    for di in (-1, 0, 1):
        ii = i + di
        if ii < 0 or ii >= n_el:
            continue
        for dj in (-1, 0, 1):
            if di == 0 and dj == 0:
                continue
            jj = j + dj
            if wrap:
                jj %= n_az
            elif jj < 0 or jj >= n_az:
                continue
            yield ii, jj


def _pixel_distance(a, b, n_az: int, wrap: bool) -> float:
    d_el = a[0] - b[0]
    d_az = abs(a[1] - b[1])
    if wrap:
        d_az = min(d_az, n_az - d_az)
    return float(np.hypot(d_el, d_az))


def segment(pas: PasMap, params: SegParams) -> list[Cluster]:
    """Split a power map into clusters.  Returns them ordered by descending
    total power, ids counting from 1.  A map whose foreground is empty
    yields an empty list."""
    power = pas.power
    grid = pas.grid
    wrap = grid.wraps_azimuth
    n_el, n_az = grid.shape

    peak = float(power.max())
    if peak <= 0.0:
        return []
    pin = peak * 10.0 ** (-_ZERO_PIN_DB / 10.0)
    db = 10.0 * np.log10(np.maximum(power, pin))
    floor_db = 10.0 * np.log10(max(estimate_noise_floor(pas), pin))
    mask = db >= floor_db + params.foreground_threshold_db
    if not mask.any():
        return []

    smoothed = _smooth_db(db, params.smoothing_radius, wrap)

    markers = _find_markers(smoothed, power, mask, params, wrap)
    if not markers:
        return []
    labels = _priority_flood(smoothed, mask, markers, wrap)
    return _build_clusters(labels, len(markers), power, grid, params)


def _smooth_db(db, radius: int, wrap: bool):
    """Grayscale open-then-close with a disc footprint.  Opening trims
    speckle maxima, closing refills dents.  On a full-circle grid the
    azimuth axis is padded circularly so the seam smooths like any other
    column; elevation edges replicate."""
    if radius == 0:
        return db
    footprint = _disc_footprint(radius)
    # open o close reads original values up to 4 * radius away
    pad = min(4 * radius, db.shape[1]) if wrap else 0
    work = np.concatenate([db[:, -pad:], db, db[:, :pad]], axis=1) if pad \
        else db
    work = ndimage.grey_opening(work, footprint=footprint, mode="nearest")
    work = ndimage.grey_closing(work, footprint=footprint, mode="nearest")
    return work[:, pad:work.shape[1] - pad] if pad else work


def _find_markers(smoothed, power, mask, params, wrap):
    """Regional maxima of the smoothed map inside the mask, as one
    representative pixel per plateau, strongest first, with close pairs
    thinned."""
    n_el, n_az = smoothed.shape
    modes = ("nearest", "wrap") if wrap else ("nearest", "nearest")
    local_max = smoothed >= ndimage.maximum_filter(smoothed, size=3, mode=modes)
    candidate = local_max & mask

    seen = np.zeros_like(candidate, dtype=bool)
    reps = []
    for i in range(n_el):
        for j in range(n_az):
            if not candidate[i, j] or seen[i, j]:
                continue
            # flood one plateau of candidate pixels
            plateau = [(i, j)]
            seen[i, j] = True
            queue = [(i, j)]
            while queue:
                ci, cj = queue.pop()
                for ni, nj in _neighbors(ci, cj, n_el, n_az, wrap):
                    if candidate[ni, nj] and not seen[ni, nj]:
                        seen[ni, nj] = True
                        plateau.append((ni, nj))
                        queue.append((ni, nj))
            rep = max(plateau, key=lambda p: (power[p], -p[0], -p[1]))
            reps.append(rep)

    reps.sort(key=lambda p: (-smoothed[p], p[0], p[1]))
    kept = []
    for rep in reps:
        if all(_pixel_distance(rep, k, n_az, wrap) >= params.marker_min_separation
               for k in kept):
            kept.append(rep)
    return kept


def _priority_flood(smoothed, mask, markers, wrap):
    """Marker-driven watershed of the smoothed map, highest values claimed
    first.  Ties resolve lexicographically by (el, az, marker order), so the
    result is independent of dict or heap internals."""
    n_el, n_az = smoothed.shape
    labels = np.zeros(smoothed.shape, dtype=int)
    heap = []
    for lab, (i, j) in enumerate(markers, start=1):
        heapq.heappush(heap, (-smoothed[i, j], i, j, lab))
    while heap:
        _, i, j, lab = heapq.heappop(heap)
        if labels[i, j] != 0:
            continue
        labels[i, j] = lab
        for ni, nj in _neighbors(i, j, n_el, n_az, wrap):
            if mask[ni, nj] and labels[ni, nj] == 0:
                heapq.heappush(heap, (-smoothed[ni, nj], ni, nj, lab))
    return labels


def _build_clusters(labels, n_basins, power, grid: AngularGrid, params: SegParams):
    el = grid.elevations_deg
    raw = []
    for lab in range(1, n_basins + 1):
        idx = np.argwhere(labels == lab)
        if len(idx) < params.min_pixels:
            continue
        pix = [(int(i), int(j)) for i, j in idx]
        weights = np.array([power[p] for p in pix])
        total = float(weights.sum())
        peak_pixel = max(pix, key=lambda p: (power[p], -p[0], -p[1]))
        cent_el = float(np.dot(weights, [el[p[0]] for p in pix]) / total)
        # average azimuth relative to the peak so seam-straddling clusters
        # do not smear across the circle
        rel, ref = grid.azimuth_offsets([p[1] for p in pix], peak_pixel[1])
        cent_az = np.dot(weights, rel) / total
        if grid.wraps_azimuth:
            cent_az = wrap_angle_deg(ref + cent_az)
        raw.append((total, peak_pixel, frozenset(pix), cent_el, float(cent_az)))

    raw.sort(key=lambda r: (-r[0], r[1]))
    return [
        Cluster(id=k, pixels=pixels, peak_pixel=peak_pixel,
                centroid_el_deg=cent_el, centroid_az_deg=cent_az,
                total_power=total)
        for k, (total, peak_pixel, pixels, cent_el, cent_az)
        in enumerate(raw, start=1)
    ]


def label_clusters_with_truth(clusters: list[Cluster],
                              truth: list[RayCluster],
                              grid: AngularGrid
                              ) -> tuple[list[Cluster], bool | None]:
    """Attach ground-truth kinds from the generating channel.

    The cluster whose pixel set contains the true line-of-sight direction is
    labelled LOS, every other cluster NLOS.  Returns the labelled clusters
    plus whether the LOS direction was recovered (None when the channel has
    no LOS cluster at all).
    """
    los = next((c for c in truth if c.kind == LOS), None)
    if los is None:
        labelled = [_with_truth(c, NLOS) for c in clusters]
        return labelled, None
    los_pixel = grid.nearest_pixel(los.center_el_deg, los.center_az_deg)
    found = False
    labelled = []
    for c in clusters:
        if los_pixel in c.pixels:
            labelled.append(_with_truth(c, LOS))
            found = True
        else:
            labelled.append(_with_truth(c, NLOS))
    return labelled, found


def _with_truth(cluster: Cluster, truth: str) -> Cluster:
    return Cluster(id=cluster.id, pixels=cluster.pixels,
                   peak_pixel=cluster.peak_pixel,
                   centroid_el_deg=cluster.centroid_el_deg,
                   centroid_az_deg=cluster.centroid_az_deg,
                   total_power=cluster.total_power, truth=truth)
