"""Watershed clustering of power maps and ground-truth labeling."""

import math
from dataclasses import replace
from functools import cache
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from nlosid import (LOS, NLOS, ConfigError, PasMap, RayCluster, Ray,
                    SegParams, SimConfig, compute_pas, estimate_noise_floor,
                    label_clusters_with_truth, segment, simulate_realization)
from nlosid import segmentation

from conftest import blob_map, flat_grid
from oracles import (connected_components, marker_maximum_oracle,
                     smooth_db_oracle)


def oracle_mask(power: np.ndarray, threshold_db: float) -> set:
    """Foreground per the documented rule: median floor, dB threshold."""
    floor = sorted(power.reshape(-1))
    n = len(floor)
    med = (floor[n // 2] if n % 2
           else 0.5 * (floor[n // 2 - 1] + floor[n // 2]))
    out = set()
    for i in range(power.shape[0]):
        for j in range(power.shape[1]):
            p = power[i, j]
            if p > 0 and 10 * math.log10(p) >= 10 * math.log10(med) + threshold_db:
                out.add((i, j))
    return out


# ---------------------------------------------------------------------------
# noise floor


def test_floor_constant_map():
    g = flat_grid(n_el=5, n_az=5)
    pas = PasMap(g, np.full((5, 5), 3.25))
    assert estimate_noise_floor(pas) == 3.25


def test_floor_ignores_sparse_bright_cluster():
    g = flat_grid(n_el=10, n_az=10)
    power = np.ones((10, 10))
    power[4, 4] = 1000.0
    assert estimate_noise_floor(PasMap(g, power)) == 1.0


def test_floor_matches_sort_oracle(rng):
    for n_el, n_az in ((7, 9), (8, 8)):
        g = flat_grid(n_el=n_el, n_az=n_az)
        power = rng.uniform(0.1, 5.0, size=(n_el, n_az))
        flat = sorted(power.reshape(-1))
        n = len(flat)
        want = flat[n // 2] if n % 2 else 0.5 * (flat[n // 2 - 1] + flat[n // 2])
        assert estimate_noise_floor(PasMap(g, power)) == pytest.approx(
            want, rel=1e-15)


# ---------------------------------------------------------------------------
# params


def test_seg_params_validation_and_round_trip():
    p = SegParams(foreground_threshold_db=8.0, min_pixels=3,
                  marker_min_separation=2.0, smoothing_radius=1)
    assert SegParams.from_dict(p.to_dict()) == p
    with pytest.raises(ConfigError):
        SegParams(foreground_threshold_db=0.0)
    with pytest.raises(ConfigError):
        SegParams(min_pixels=0)
    with pytest.raises(ConfigError):
        SegParams.from_dict({"min_pixels": 2, "bogus": 1})


# ---------------------------------------------------------------------------
# segment


def test_single_blob_single_cluster():
    g = flat_grid(n_el=24, n_az=24)
    pas = blob_map(g, [(12, 8, 1000.0, 2.0)])
    clusters = segment(pas, SegParams())
    assert len(clusters) == 1
    assert clusters[0].id == 1
    assert clusters[0].peak_pixel == (12, 8)
    assert (12, 8) in clusters[0].pixels


def test_two_blobs_match_flood_fill_oracle():
    g = flat_grid(n_el=40, n_az=40)
    params = SegParams()  # marker separation 5; blobs are 26 apart
    pas = blob_map(g, [(20, 7, 500.0, 1.8), (20, 33, 2000.0, 1.8)],
                   floor=1.0)
    clusters = segment(pas, replace(params, min_pixels=1))
    assert len(clusters) == 2
    # brightest blob gets id 1 even though it is listed second
    assert clusters[0].peak_pixel == (20, 33)
    assert clusters[1].peak_pixel == (20, 7)
    # recover exactly the mask components of the documented threshold rule
    mask = oracle_mask(pas.power, params.foreground_threshold_db)
    comps = set(connected_components(mask, g.n_az, wrap=False))
    assert {c.pixels for c in clusters} == comps
    # per-cluster structural invariants
    seen = set()
    for c in clusters:
        assert c.pixels.isdisjoint(seen)
        seen |= c.pixels
        assert c.peak_pixel in c.pixels
        peak_val = pas.power[c.peak_pixel]
        assert all(pas.power[p] <= peak_val for p in c.pixels)
        assert len(connected_components(c.pixels, g.n_az, wrap=False)) == 1
        assert c.total_power == pytest.approx(
            sum(pas.power[p] for p in c.pixels), rel=1e-12)


def test_flat_map_yields_nothing():
    g = flat_grid(n_el=10, n_az=10)
    assert segment(PasMap(g, np.ones((10, 10))), SegParams()) == []
    assert segment(PasMap(g, np.zeros((10, 10))), SegParams()) == []


def test_min_pixels_drops_specks():
    g = flat_grid(n_el=24, n_az=24)
    # a tight second blob survives smoothing but covers only a few pixels
    pas = blob_map(g, [(12, 6, 1000.0, 1.5), (12, 18, 300.0, 0.5)])
    assert len(segment(pas, SegParams(min_pixels=6))) == 1
    assert len(segment(pas, SegParams(min_pixels=1))) == 2


def test_close_peaks_merge_under_marker_separation():
    g = flat_grid(n_el=40, n_az=40)
    pas = blob_map(g, [(20, 18, 800.0, 1.2), (20, 22, 700.0, 1.2)])
    merged = segment(pas, SegParams(marker_min_separation=5.0))
    assert len(merged) == 1
    split = segment(pas, SegParams(marker_min_separation=1.0))
    assert len(split) == 2


def test_segmentation_scale_invariant():
    g = flat_grid(n_el=40, n_az=40)
    pas = blob_map(g, [(20, 7, 500.0, 1.8), (20, 33, 2000.0, 1.8)])
    base = segment(pas, SegParams())
    for c_scale in (1e-3, 1e3):
        scaled = segment(PasMap(g, pas.power * c_scale), SegParams())
        assert [(c.id, c.pixels, c.peak_pixel) for c in scaled] \
            == [(c.id, c.pixels, c.peak_pixel) for c in base]


def test_segmentation_deterministic():
    g = flat_grid(n_el=40, n_az=40)
    pas = blob_map(g, [(10, 10, 900.0, 1.5), (30, 30, 400.0, 1.5)])
    a = segment(pas, SegParams())
    b = segment(pas, SegParams())
    assert [(c.id, c.pixels, c.total_power) for c in a] \
        == [(c.id, c.pixels, c.total_power) for c in b]
    assert [c.id for c in a] == list(range(1, len(a) + 1))
    totals = [c.total_power for c in a]
    assert totals == sorted(totals, reverse=True)


def test_blob_straddling_azimuth_seam_stays_whole():
    g = flat_grid(n_el=10, n_az=72, step=5.0, az_start=-180.0, el_start=-20.0)
    assert g.wraps_azimuth
    seam = blob_map(g, [(5, 0, 1000.0, 1.5)])
    clusters = segment(seam, SegParams())
    assert len(clusters) == 1
    cols = {j for _, j in clusters[0].pixels}
    assert 0 in cols and 71 in cols
    # same blob away from the seam covers the same number of pixels
    middle = blob_map(g, [(5, 36, 1000.0, 1.5)])
    middle_cluster, = segment(middle, SegParams())
    assert len(middle_cluster.pixels) == len(clusters[0].pixels)


# dB maps never hold -0.0 (log10 gives +0.0), and on a -0.0/+0.0 tie
# np.minimum and ndimage may keep different zeros, so adding 0.0 leaves
# it out of the float maps; the small-integer maps are full of ties and
# plateaus
_map_shapes = st.tuples(st.integers(1, 12), st.integers(1, 40))
_db_maps = st.one_of(
    hnp.arrays(np.float64, _map_shapes,
               elements=st.floats(-400.0, 400.0).map(lambda v: v + 0.0)),
    hnp.arrays(np.float64, _map_shapes,
               elements=st.integers(-2, 2).map(float)))


@settings(max_examples=150, deadline=None)
@given(db=_db_maps, radius=st.integers(0, 3), wrap=st.booleans())
def test_morphology_matches_ndimage_bit_for_bit(db, radius, wrap):
    """The numpy open/close and marker maximum equal scipy.ndimage's: disc
    footprint, elevation edges replicated, azimuth wrapped when asked."""
    smoothed = segmentation._smooth_db(db, radius, wrap)
    assert smoothed.tobytes() == smooth_db_oracle(db, radius, wrap).tobytes()
    assert segmentation._marker_maximum(smoothed, wrap).tobytes() \
        == marker_maximum_oracle(smoothed, wrap).tobytes()


@settings(max_examples=30, deadline=None)
@given(db=_db_maps, wrap=st.booleans())
def test_radii_past_the_map_smooth_as_the_oracle(db, wrap):
    """A disc wider than the map smooths as scipy.ndimage's does, and a
    radius of 2**70 as one just past the map (it once filled memory)."""
    radius = sum(db.shape) + 2
    want = smooth_db_oracle(db, radius, wrap).tobytes()
    assert segmentation._smooth_db(db, radius, wrap).tobytes() == want
    assert segmentation._smooth_db(db, 2 ** 70, wrap).tobytes() == want


_ROLL_SEG = SegParams(min_pixels=2, marker_min_separation=1.0)


@cache
def default_map(realization: int) -> PasMap:
    """Power map of one seed-7 realization of the default, full-circle
    configuration."""
    return compute_pas(simulate_realization(SimConfig(), 7, realization)[2])


def rolled(pas: PasMap, k: int) -> PasMap:
    return PasMap(pas.grid, np.roll(pas.power, k, axis=1))


def roll_pixel(pixel, k: int, n_az: int) -> tuple[int, int]:
    return (pixel[0], (pixel[1] + k) % n_az)


def flood_inputs(pas: PasMap):
    """The smoothed map, foreground mask and markers segment floods."""
    with mock.patch.object(segmentation, "_priority_flood",
                           wraps=segmentation._priority_flood) as flood:
        segment(pas, _ROLL_SEG)
    smoothed, mask, markers, _ = flood.call_args.args
    return smoothed, mask, markers


@settings(max_examples=40, deadline=None)
@given(realization=st.integers(0, 199), k=st.integers(1, 71))
def test_rolling_a_full_circle_map_rolls_its_watershed_seeds(realization, k):
    """Smoothing, the foreground and the markers see the azimuth axis as a
    circle: rolling the map by k columns rolls each of them by k."""
    pas = default_map(realization)
    n_az = pas.grid.n_az
    smoothed, mask, markers = flood_inputs(pas)
    got_smoothed, got_mask, got_markers = flood_inputs(rolled(pas, k))
    assert np.array_equal(got_smoothed, np.roll(smoothed, k, axis=1))
    assert np.array_equal(got_mask, np.roll(mask, k, axis=1))
    assert got_markers == [roll_pixel(p, k, n_az) for p in markers]


@pytest.mark.xfail(strict=True, reason=(
    "_priority_flood breaks ties between equal smoothed values by raster "
    "position, so a roll can hand plateau pixels, or a whole marker, to "
    "another basin"))
@pytest.mark.parametrize("realization, k", [(12, 70), (27, 14)])
def test_rolling_a_full_circle_map_rolls_its_clusters(realization, k):
    pas = default_map(realization)
    n_az = pas.grid.n_az
    want = {frozenset(roll_pixel(p, k, n_az) for p in c.pixels):
            (roll_pixel(c.peak_pixel, k, n_az), c.total_power)
            for c in segment(pas, _ROLL_SEG)}
    got = {c.pixels: (c.peak_pixel, c.total_power)
           for c in segment(rolled(pas, k), _ROLL_SEG)}
    assert got.keys() == want.keys()
    for pixels, (peak, total) in got.items():
        assert peak == want[pixels][0]
        assert total == pytest.approx(want[pixels][1], rel=1e-12)


# ---------------------------------------------------------------------------
# truth labeling


def _box(cluster_id, rows, cols, peak):
    pixels = frozenset((i, j) for i in rows for j in cols)
    return segment_cluster(cluster_id, pixels, peak)


def segment_cluster(cluster_id, pixels, peak):
    from nlosid import Cluster
    return Cluster(id=cluster_id, pixels=pixels, peak_pixel=peak,
                   total_power=1.0)


def _truth_cluster(kind, az, el):
    return RayCluster(kind=kind, center_az_deg=az, center_el_deg=el,
                      base_delay_ns=10.0,
                      rays=(Ray(0.0, 1.0, 0.0, 0.0, 0.0),
                            Ray(1.0, 0.5, 0.0, 0.0, 0.0)))


def test_truth_labels_cluster_containing_los_direction():
    g = flat_grid(n_el=10, n_az=10)
    a = _box(1, range(0, 3), range(0, 3), (1, 1))
    b = _box(2, range(6, 9), range(6, 9), (7, 7))
    truth = [_truth_cluster(LOS, az=1.0, el=1.0),
             _truth_cluster(NLOS, az=7.0, el=7.0)]
    labelled, found = label_clusters_with_truth([a, b], truth, g)
    assert found is True
    assert labelled[0].truth == LOS
    assert labelled[1].truth == NLOS
    assert sum(1 for c in labelled if c.truth == LOS) == 1


def test_truth_los_direction_in_background():
    g = flat_grid(n_el=10, n_az=10)
    a = _box(1, range(0, 3), range(0, 3), (1, 1))
    truth = [_truth_cluster(LOS, az=9.0, el=9.0)]
    labelled, found = label_clusters_with_truth([a], truth, g)
    assert found is False
    assert labelled[0].truth == NLOS


def test_truth_without_los_cluster():
    g = flat_grid(n_el=10, n_az=10)
    a = _box(1, range(0, 3), range(0, 3), (1, 1))
    labelled, found = label_clusters_with_truth(
        [a], [_truth_cluster(NLOS, az=1.0, el=1.0)], g)
    assert found is None
    assert labelled[0].truth == NLOS


def test_los_recovery_rate_on_default_generator():
    cfg = SimConfig()
    seg = SegParams(min_pixels=2, marker_min_separation=1.0)
    recovered = 0
    for i in range(100):
        clusters, _, cir = simulate_realization(cfg, 101, i)
        pas = compute_pas(cir)
        labelled, found = label_clusters_with_truth(
            segment(pas, seg), clusters, pas.grid)
        assert sum(1 for c in labelled if c.truth == LOS) <= 1
        recovered += bool(found)
    assert recovered >= 95
