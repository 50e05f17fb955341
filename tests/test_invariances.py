"""Whole-pipeline invariances, drawn over reference-configuration
realizations: render, peak reads, segmentation and metrics together."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nlosid import (ExperimentConfig, extract_realization, generate_channel,
                    render_cir)
from nlosid.fileio import load_json

REFERENCE = ExperimentConfig.from_dict(load_json(
    Path(__file__).resolve().parent.parent / "configs" / "reference.json"))


def extract(clusters, sim, realization):
    cir = render_cir(clusters, sim, REFERENCE.seed, realization)
    rows, _ = extract_realization(cir, clusters, REFERENCE.seg,
                                  REFERENCE.metric)
    return rows, cir


def scaled(clusters, factor: float) -> list:
    return [replace(c, rays=tuple(replace(r, amplitude=r.amplitude * factor)
                                  for r in c.rays))
            for c in clusters]


def rotated(clusters, azimuth_deg: float) -> list:
    return [replace(c, center_az_deg=c.center_az_deg + azimuth_deg)
            for c in clusters]


def by_delay(rows) -> list:
    return sorted(rows, key=lambda fv: fv.tau_mean_ns)


def delayed(clusters, delay_ns: float) -> list:
    return [replace(c, base_delay_ns=c.base_delay_ns + delay_ns)
            for c in clusters]


@settings(max_examples=8, deadline=None)
@given(realization=st.integers(0, 199), exponent=st.sampled_from([-2, 3]))
def test_power_of_two_amplitude_scaling_keeps_features_bit_for_bit(
        realization, exponent):
    """Noise is referenced to the strongest ray, and every step from the
    render through the peak reads to the metrics scales exactly by a power
    of two, so with noise on the feature rows and labels are identical."""
    sim = REFERENCE.sim
    clusters, _ = generate_channel(sim, REFERENCE.seed, realization)
    rows, _ = extract(clusters, sim, realization)
    got, _ = extract(scaled(clusters, 2.0 ** exponent), sim, realization)
    assert [fv.label for fv in got] == [fv.label for fv in rows]
    assert (np.array([fv.values() for fv in got]).tobytes()
            == np.array([fv.values() for fv in rows]).tobytes())


@settings(max_examples=8, deadline=None)
@given(realization=st.integers(0, 199), shift=st.integers(1, 40))
def test_noiseless_delay_shift_moves_only_the_mean_delay(realization, shift):
    """Delaying every cluster by a whole number of taps inside the record
    moves tau_mean_ns by that delay and leaves the other metrics as they
    were, to 1e-9."""
    sim = replace(REFERENCE.sim, snr_db=None)
    clusters, _ = generate_channel(sim, REFERENCE.seed, realization)
    rows, cir = extract(clusters, sim, realization)
    # every ray stays inside the record, with a tap to spare for rounding
    assume(cir.signal_taps[-1] + shift < sim.n_taps - 1)
    delay_ns = shift / sim.sample_rate_ghz
    got, moved = extract(delayed(clusters, delay_ns), sim, realization)
    # rounding to the tap grid must move every ray by exactly shift taps
    assume(np.array_equal(moved.signal_taps, cir.signal_taps + shift))
    assert moved.signal.tobytes() == cir.signal.tobytes()
    assert [fv.label for fv in got] == [fv.label for fv in rows]
    assert len(rows) >= 1
    for fv, want in zip(got, rows):
        assert fv.tau_mean_ns == pytest.approx(want.tau_mean_ns + delay_ns,
                                               rel=1e-9)
        for name in ("r_p", "k_t", "k_f", "tau_rms_ns"):
            assert fv.metric(name) == pytest.approx(want.metric(name),
                                                    rel=1e-9)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(realization=st.integers(0, 199), steps=st.integers(1, 71))
def test_noiseless_azimuth_rotation_keeps_the_feature_rows(realization,
                                                          steps):
    """On the full-circle reference grid, turning every cluster by a whole
    number of grid steps turns the map with it, so without noise the
    feature rows and labels are the same multiset, to rtol 1e-12: only
    angles relative to a cluster's peak enter the metrics."""
    sim = replace(REFERENCE.sim, snr_db=None)
    grid = sim.grid()
    assert grid.wraps_azimuth
    clusters, _ = generate_channel(sim, REFERENCE.seed, realization)
    rows, _ = extract(clusters, sim, realization)
    got, _ = extract(rotated(clusters, steps * grid.az_step_deg), sim,
                     realization)
    rows, got = by_delay(rows), by_delay(got)
    assert len(rows) >= 1
    assert [fv.label for fv in got] == [fv.label for fv in rows]
    np.testing.assert_allclose([fv.values() for fv in got],
                               [fv.values() for fv in rows],
                               rtol=1e-12, atol=0.0)
