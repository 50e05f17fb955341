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

import array
import functools
import heapq
import math
from dataclasses import dataclass, replace
from typing import Annotated

import numpy as np

from .chansim import LOS, NLOS, RayCluster
from .errors import NON_NEGATIVE, POSITIVE, Record
from .pas import AngularGrid, PasMap

# empty pixels are pinned this far below the map peak before dB conversion
_ZERO_PIN_DB = 400.0


@dataclass(frozen=True)
class SegParams(Record):
    foreground_threshold_db: Annotated[float, POSITIVE] = 10.0  # dB over floor
    min_pixels: Annotated[int, POSITIVE] = 2    # smallest surviving cluster
    marker_min_separation: Annotated[float, NON_NEGATIVE] = 1.0   # pixels
    smoothing_radius: Annotated[int, NON_NEGATIVE] = 1   # open/close disc


@dataclass(frozen=True)
class Cluster:
    """One segmented blob of the power map."""

    id: int
    pixels: frozenset        # of (el_idx, az_idx)
    peak_pixel: tuple[int, int]
    total_power: float
    truth: str | None = None


def estimate_noise_floor(pas: PasMap) -> float:
    """Median pixel power, linear units.

    Foreground clusters occupy a small fraction of a scan, so the median is
    a robust stand-in for the noise-only level.
    """
    return float(np.median(pas.power))


@functools.lru_cache(maxsize=8)
def _neighbor_table(n_el: int, n_az: int, wrap: bool) -> tuple:
    """The 8-connected neighbours of every pixel as flat indices i * n_az +
    j, indexed by the pixel's flat index, in raster order of the offsets;
    azimuth wraps when asked, elevation never does."""
    flat = list(range(n_el * n_az))     # one int object per index
    table = []
    for i in range(n_el):
        for j in range(n_az):
            near = []
            for ii in (i - 1, i, i + 1):
                if not 0 <= ii < n_el:
                    continue
                for jj in (j - 1, j, j + 1):
                    if (ii, jj) == (i, j):
                        continue
                    if wrap:
                        jj %= n_az
                    elif not 0 <= jj < n_az:
                        continue
                    near.append(flat[ii * n_az + jj])
            table.append(tuple(near))
    return tuple(table)


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
    return _build_clusters(labels, len(markers), power, params)


def _shifted_extremes(a, half_widths, ops, pad: int):
    """Apply each of ops (np.minimum or np.maximum) in turn over a footprint
    of centred azimuth runs: half_widths[d] is the run's half-width at row
    offsets +-d.  The azimuth axis is first padded circularly by pad
    columns, and cropped again at the end.  Offsets that leave the padded
    map are dropped; for a symmetric, orthogonally convex footprint that
    equals replicating the edge."""
    work = np.concatenate([a[:, -pad:], a, a[:, :pad]], axis=1) if pad \
        else a
    for op in ops:
        # runs[w]: op over the centred azimuth run of half-width w
        runs = [work]
        for w in range(1, max(half_widths) + 1):
            run = runs[-1].copy()
            op(run[:, w:], work[:, :-w], out=run[:, w:])
            op(run[:, :-w], work[:, w:], out=run[:, :-w])
            runs.append(run)
        out = runs[half_widths[0]].copy()
        for d, w in enumerate(half_widths[1:], start=1):
            op(out[d:], runs[w][:-d], out=out[d:])
            op(out[:-d], runs[w][d:], out=out[:-d])
        work = out
    return work[:, pad:work.shape[1] - pad] if pad else work


def _smooth_db(db, radius: int, wrap: bool):
    """Grayscale open-then-close with a disc footprint.  Opening trims
    speckle maxima, closing refills dents.  On a full-circle grid the
    azimuth axis is padded circularly so the seam smooths like any other
    column; elevation edges replicate."""
    if radius == 0:
        return db
    radius = min(radius, sum(db.shape))    # a wider disc smooths alike
    disc = [math.isqrt(radius * radius - d * d) for d in range(radius + 1)]
    # open o close reads original values up to 4 * radius away
    pad = min(4 * radius, db.shape[1]) if wrap else 0
    return _shifted_extremes(
        db, disc, (np.minimum, np.maximum, np.maximum, np.minimum), pad)


def _marker_maximum(smoothed, wrap: bool):
    """3x3 maximum: azimuth wraps on a full circle, elevation edges
    replicate."""
    return _shifted_extremes(smoothed, (1, 1), (np.maximum,),
                             1 if wrap else 0)


def _find_markers(smoothed, power, mask, params, wrap):
    """Regional maxima of the smoothed map inside the mask, as one
    representative pixel per plateau, strongest first, with close pairs
    thinned."""
    n_el, n_az = smoothed.shape
    local_max = smoothed >= _marker_maximum(smoothed, wrap)
    candidate = local_max & mask

    # flat indices: raster order is increasing index, and (power, -index)
    # orders like (power, -el, -az)
    neighbors = _neighbor_table(n_el, n_az, wrap)
    flat_power = power.ravel()
    candidates = np.flatnonzero(candidate).tolist()
    unseen = set(candidates)
    reps = []
    for p in candidates:
        if p not in unseen:
            continue
        # flood one plateau of candidate pixels
        unseen.remove(p)
        plateau = [p]
        queue = [p]
        while queue:
            for q in neighbors[queue.pop()]:
                if q in unseen:
                    unseen.remove(q)
                    plateau.append(q)
                    queue.append(q)
        rep = max(plateau, key=lambda q: (flat_power[q], -q))
        reps.append(divmod(rep, n_az))

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
    neighbors = _neighbor_table(n_el, n_az, wrap)
    # flat indices order like (el, az)
    flat = smoothed.ravel().tolist()
    inside = mask.ravel().tolist()
    # int64 zeros that numpy views without a copy at the end
    labels = array.array("q", bytes(8 * len(flat)))
    heap = []
    for lab, (i, j) in enumerate(markers, start=1):
        p = i * n_az + j
        heapq.heappush(heap, (-flat[p], p, lab))
    while heap:
        _, p, lab = heapq.heappop(heap)
        if labels[p] != 0:
            continue
        labels[p] = lab
        for q in neighbors[p]:
            if inside[q] and labels[q] == 0:
                heapq.heappush(heap, (-flat[q], q, lab))
    return np.frombuffer(labels, dtype=np.int64).reshape(n_el, n_az)


def _build_clusters(labels, n_basins, power, params: SegParams):
    n_az = labels.shape[1]
    flat = labels.ravel()
    # each basin's flat indices in raster order, as argwhere lists them
    order = np.argsort(flat, kind="stable")
    starts = np.searchsorted(flat[order], np.arange(1, n_basins + 2))
    flat_power = power.ravel()
    raw = []
    for lab in range(1, n_basins + 1):
        idx = order[starts[lab - 1]:starts[lab]]
        if len(idx) < params.min_pixels:
            continue
        basin_power = flat_power[idx]
        total = float(basin_power.sum())
        # the first maximum in raster order: the strongest pixel, ties to
        # the smallest (el, az)
        peak_pixel = divmod(int(idx[np.argmax(basin_power)]), n_az)
        el, az = np.divmod(idx, n_az)
        raw.append((total, peak_pixel,
                    frozenset(zip(el.tolist(), az.tolist()))))

    raw.sort(key=lambda r: (-r[0], r[1]))
    return [Cluster(id=k, pixels=pixels, peak_pixel=peak_pixel,
                    total_power=total)
            for k, (total, peak_pixel, pixels) in enumerate(raw, start=1)]


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
        return [replace(c, truth=NLOS) for c in clusters], None
    los_pixel = grid.nearest_pixel(los.center_el_deg, los.center_az_deg)
    labelled = [replace(c, truth=LOS if los_pixel in c.pixels else NLOS)
                for c in clusters]
    return labelled, any(c.truth == LOS for c in labelled)
