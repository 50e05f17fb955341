"""Angular grid, the tensor container, power maps, and the delay/frequency
transforms: np.fft.fft one way, ingest_sweeps the other."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from nlosid import (AngularGrid, CirTensor, ConfigError, DataFormatError,
                    DegenerateInputError, PasMap, compute_pas, freq_kurtosis,
                    ingest_sweeps, wrap_angle_deg)

from conftest import flat_grid, grid_sweeps
from oracles import kurtosis_oracle, pas_pixel_oracle


# ---------------------------------------------------------------------------
# angles and grids


def test_wrap_angle_reference_points():
    assert wrap_angle_deg(0.0) == 0.0
    assert wrap_angle_deg(180.0) == -180.0
    assert wrap_angle_deg(-180.0) == -180.0
    assert wrap_angle_deg(190.0) == -170.0
    assert wrap_angle_deg(540.0) == -180.0
    assert wrap_angle_deg(-190.0) == 170.0


def test_wrap_angle_array_and_range(rng):
    a = rng.uniform(-1000, 1000, 500)
    w = wrap_angle_deg(a)
    assert np.all(w >= -180.0) and np.all(w < 180.0)
    # wrapping changes each angle by an exact multiple of 360
    assert np.allclose((a - w) % 360.0, 0.0, atol=1e-9)


def test_grid_axes_and_pixel_mapping():
    g = AngularGrid(az_start_deg=-60.0, az_step_deg=5.0, n_az=25,
                    el_start_deg=-30.0, el_step_deg=5.0, n_el=13)
    assert g.shape == (13, 25)
    assert g.azimuths_deg[0] == -60.0 and g.azimuths_deg[-1] == 60.0
    assert g.elevations_deg[0] == -30.0 and g.elevations_deg[-1] == 30.0
    assert g.angles_of(2, 3) == (-20.0, -45.0)
    assert not g.wraps_azimuth


def test_grid_axes_are_built_once_and_read_only():
    g = AngularGrid(az_start_deg=-60.0, az_step_deg=5.0, n_az=25,
                    el_start_deg=-30.0, el_step_deg=5.0, n_el=13)
    fresh = AngularGrid.from_dict(g.to_dict())
    for axis in ("azimuths_deg", "elevations_deg"):
        values = getattr(g, axis)
        assert getattr(g, axis) is values
        with pytest.raises(ValueError):
            values[0] = 0.0
    # the cached axes are not fields: equality, hash and dict are unchanged
    assert g == fresh and hash(g) == hash(fresh)
    assert g.to_dict() == fresh.to_dict()


def test_grid_wraps_only_on_full_circle():
    full = AngularGrid(az_start_deg=-180.0, az_step_deg=5.0, n_az=72,
                       el_start_deg=0.0, el_step_deg=5.0, n_el=4)
    assert full.wraps_azimuth
    partial = AngularGrid(az_start_deg=-180.0, az_step_deg=5.0, n_az=71,
                          el_start_deg=0.0, el_step_deg=5.0, n_el=4)
    assert not partial.wraps_azimuth


def test_full_circle_range_drops_the_repeated_seam_column():
    full = AngularGrid.from_ranges((-180.0, 180.0), (0.0, 10.0), 5.0, 5.0)
    assert full.n_az == 72 and full.n_el == 3
    assert full.azimuths_deg[-1] == 175.0 and full.wraps_azimuth
    assert AngularGrid.from_ranges((0.0, 360.0), (0.0, 10.0), 7.2,
                                   5.0).n_az == 50
    # a range short of the full circle keeps its stop column
    assert AngularGrid.from_ranges((-180.0, 175.0), (0.0, 10.0), 5.0,
                                   5.0).n_az == 72


def test_azimuth_axis_spans_less_than_one_turn():
    with pytest.raises(ConfigError, match="under one turn"):
        AngularGrid.from_ranges((-180.0, 185.0), (0.0, 5.0), 5.0, 5.0)
    # the last column would be the first again, or lie past it
    for n_az, step in ((73, 5.0), (2, 360.0), (51, 7.2), (74, 5.0)):
        with pytest.raises(ConfigError, match="under one turn"):
            flat_grid(n_az=n_az, step=step)
    assert flat_grid(n_az=72, step=5.0).wraps_azimuth
    assert flat_grid(n_az=50, step=7.2).wraps_azimuth
    with pytest.raises(DataFormatError, match="bad AngularGrid.*under one"):
        AngularGrid.from_dict({**flat_grid(n_az=72, step=5.0).to_dict(),
                               "n_az": 73})


def test_nearest_pixel_clamps_on_partial_grids():
    g = flat_grid(n_el=5, n_az=7, step=2.0, az_start=0.0, el_start=0.0)
    assert g.nearest_pixel(4.0, 6.0) == (2, 3)
    assert g.nearest_pixel(4.9, 6.9) == (2, 3)
    assert g.nearest_pixel(-50.0, -50.0) == (0, 0)
    assert g.nearest_pixel(500.0, 500.0) == (4, 6)


def test_nearest_pixel_wraps_azimuth_on_full_circle():
    g = AngularGrid(az_start_deg=-180.0, az_step_deg=5.0, n_az=72,
                    el_start_deg=-10.0, el_step_deg=5.0, n_el=5)
    # 179 degrees is closer to the -180 column than to the 175 one
    assert g.nearest_pixel(0.0, 179.0) == (2, 0)
    assert g.nearest_pixel(0.0, -179.0) == (2, 0)
    assert g.nearest_pixel(0.0, 176.0) == (2, 71)


def test_grid_dict_round_trip():
    g = flat_grid(n_el=3, n_az=4, step=1.5, az_start=-3.0, el_start=2.0)
    assert AngularGrid.from_dict(g.to_dict()) == g
    with pytest.raises(DataFormatError):
        AngularGrid.from_dict({"az_start_deg": 0.0})


def test_grid_validation():
    with pytest.raises(ConfigError):
        AngularGrid(az_start_deg=0, az_step_deg=0.0, n_az=4,
                    el_start_deg=0, el_step_deg=1.0, n_el=4)
    with pytest.raises(AngularGrid.error, match="AngularGrid.n_az must be "
                                                "positive, got 0"):
        AngularGrid(az_start_deg=0, az_step_deg=1.0, n_az=0,
                    el_start_deg=0, el_step_deg=1.0, n_el=4)


# ---------------------------------------------------------------------------
# containers


def test_cir_tensor_validation(rng):
    g = flat_grid(n_el=2, n_az=3)
    good = rng.normal(size=(2, 3, 16)) + 1j * rng.normal(size=(2, 3, 16))
    t = CirTensor.dense(g, 2.0, good)
    assert t.n_taps == 16
    assert t.tap_spacing_ns == 0.5
    assert np.array_equal(t.pixels([1], [2])[0], good[1, 2])
    for wrong in (good[:1], good[..., 0], good[..., None]):
        with pytest.raises(DataFormatError, match="does not match grid"):
            CirTensor.dense(g, 2.0, wrong)
    bad = good.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(DataFormatError):
        CirTensor.dense(g, 2.0, bad)
    for rate in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ConfigError, match="sample rate must be positive "
                                              "and finite"):
            CirTensor.dense(g, rate, good)


def test_pas_map_validation():
    g = flat_grid(n_el=2, n_az=2)
    with pytest.raises(DataFormatError):
        PasMap(g, np.zeros((3, 2)))
    with pytest.raises(DataFormatError):
        PasMap(g, np.array([[1.0, -0.5], [0.0, 0.0]]))
    with pytest.raises(DataFormatError):
        PasMap(g, np.array([[1.0, np.inf], [0.0, 0.0]]))


# ---------------------------------------------------------------------------
# power integration


def test_pas_single_tap():
    g = flat_grid(n_el=1, n_az=1)
    data = np.zeros((1, 1, 64), dtype=complex)
    data[0, 0, 5] = 1.0
    pas = compute_pas(CirTensor.dense(g, 7.0, data))
    assert pas.power[0, 0] == pytest.approx(1.0 / 7.0, rel=1e-15)


def test_pas_all_zero():
    g = flat_grid(n_el=2, n_az=3)
    pas = compute_pas(CirTensor.dense(g, 2.0,
                                      np.zeros((2, 3, 16), dtype=complex)))
    assert np.all(pas.power == 0.0)


def test_pas_matches_double_loop_oracle(rng):
    g = flat_grid(n_el=4, n_az=5)
    data = rng.normal(size=(4, 5, 32)) + 1j * rng.normal(size=(4, 5, 32))
    t = CirTensor.dense(g, 3.0, data)
    pas = compute_pas(t)
    for i in range(4):
        for j in range(5):
            want = pas_pixel_oracle(data[i, j], t.tap_spacing_ns)
            assert pas.power[i, j] == pytest.approx(want, rel=1e-12)


def test_pas_quadratic_scaling_and_phase_invariance(rng):
    g = flat_grid(n_el=3, n_az=3)
    data = rng.normal(size=(3, 3, 24)) + 1j * rng.normal(size=(3, 3, 24))
    base = compute_pas(CirTensor.dense(g, 2.0, data)).power
    scaled = compute_pas(CirTensor.dense(g, 2.0, 3.0 * data)).power
    assert np.allclose(scaled, 9.0 * base, rtol=1e-12)
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, size=data.shape))
    rotated = compute_pas(CirTensor.dense(g, 2.0, data * phases)).power
    assert np.allclose(rotated, base, rtol=1e-12)


# ---------------------------------------------------------------------------
# delay/frequency transforms


def one_pixel_sweep(freqs, values, window="none"):
    """Taps and sample rate that ingest_sweeps gives one swept direction."""
    grid = flat_grid(n_el=1, n_az=1)
    sweeps = grid_sweeps(grid, freqs, np.asarray(values)[None, None])
    cir = ingest_sweeps(sweeps, grid, window=window)
    return cir.pixels([0], [0])[0], cir.sample_rate_ghz


def test_cfr_two_tap_interference_pattern():
    taps = np.zeros(64, dtype=complex)
    taps[0] = 1.0
    taps[5] = 1.0
    # bin m of the two-tap response has magnitude 2 |cos(pi m 5 / n)|
    analytic = 2.0 * np.abs(np.cos(np.pi * np.arange(64) * 5 / 64))
    assert freq_kurtosis(taps) == pytest.approx(kurtosis_oracle(analytic),
                                                rel=1e-9)


def test_cfr_parseval(rng):
    values = rng.normal(size=200) + 1j * rng.normal(size=200)
    taps, _ = one_pixel_sweep(60.0 + 0.01 * np.arange(200), values)
    lhs = np.sum(np.abs(taps) ** 2)
    rhs = np.sum(np.abs(values) ** 2) / len(values)
    assert rhs == pytest.approx(lhs, rel=1e-9)


def test_cfr_needs_eight_taps(rng):
    taps = rng.normal(size=8) + 1j * rng.normal(size=8)
    assert math.isfinite(freq_kurtosis(taps))
    with pytest.raises(DegenerateInputError, match="at least 8"):
        freq_kurtosis(taps[:7])


def test_flat_sweep_inverts_to_single_tap():
    f = 60.0 + 0.1 * np.arange(64)
    taps, _ = one_pixel_sweep(f, np.ones(64, dtype=complex))
    mags = np.abs(taps)
    assert np.argmax(mags) == 0
    assert mags[0] == pytest.approx(1.0, rel=1e-12)
    assert np.all(mags[1:] < 1e-12)


@settings(max_examples=60, deadline=None)
@given(taps=arrays(complex, st.integers(8, 300),
                   elements=st.complex_numbers(max_magnitude=1e3,
                                               allow_nan=False,
                                               allow_infinity=False)),
       rate=st.floats(0.5, 50.0), start=st.floats(0.0, 100.0))
def test_transform_round_trip_is_identity(taps, rate, start):
    """Taps -> DFT on the axis start + m rate / n -> ingest_sweeps with no
    window gives back the taps and the sample rate."""
    n = len(taps)
    back, back_rate = one_pixel_sweep(start + np.arange(n) * (rate / n),
                                      np.fft.fft(taps))
    scale = max(1.0, float(np.max(np.abs(taps))))
    np.testing.assert_allclose(back, taps, rtol=0, atol=1e-12 * scale)
    assert back_rate == pytest.approx(rate, rel=1e-12)


def test_hann_window_tapers_band_edges(rng):
    grid = flat_grid(n_el=2, n_az=3)
    values = rng.normal(size=(2, 3, 32)) + 1j * rng.normal(size=(2, 3, 32))
    sweeps = grid_sweeps(grid, 1.0 + 0.05 * np.arange(32), values)
    plain = ingest_sweeps(sweeps, grid, window="none").data
    tapered = ingest_sweeps(sweeps, grid, window="hann").data
    assert not np.allclose(plain, tapered)
    np.testing.assert_allclose(np.fft.fft(tapered), values * np.hanning(32),
                               rtol=0, atol=1e-12)
    with pytest.raises(ConfigError):
        ingest_sweeps(sweeps, grid, window="hamming")


def test_sweep_resolution_example():
    # a 752-point band sampled every 11.5 MHz resolves 0.116 ns taps
    f = 50.0 + 0.0115 * np.arange(752)
    _, rate = one_pixel_sweep(f, np.ones(752, dtype=complex))
    assert 1.0 / rate == pytest.approx(1.0 / (752 * 0.0115), rel=1e-9)
    assert round(1.0 / rate, 2) == 0.12
