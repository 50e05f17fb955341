"""Angular grid, tensor containers, and delay/frequency transforms."""

import numpy as np
import pytest

from nlosid import (AngularGrid, CfrSlice, CirSlice, CirTensor, ConfigError,
                    DataFormatError, DegenerateInputError, PasMap,
                    cfr_from_cir, cir_from_cfr, compute_pas, wrap_angle_deg)

from conftest import flat_grid
from oracles import pas_pixel_oracle


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
    with pytest.raises(ConfigError):
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
    assert np.array_equal(t.pixel(1, 2).taps, good[1, 2])
    for wrong in (good[:1], good[..., 0], good[..., None]):
        with pytest.raises(DataFormatError, match="does not match grid"):
            CirTensor.dense(g, 2.0, wrong)
    bad = good.copy()
    bad[0, 0, 0] = np.nan
    with pytest.raises(DataFormatError):
        CirTensor.dense(g, 2.0, bad)
    with pytest.raises(ConfigError):
        CirTensor.dense(g, 0.0, good)


def test_cir_slice_delay_axis():
    s = CirSlice(np.zeros(8, dtype=complex), 4.0)
    assert np.array_equal(s.delays_ns, np.arange(8) / 4.0)
    with pytest.raises(DataFormatError):
        CirSlice(np.zeros((2, 4), dtype=complex), 4.0)


def test_cfr_slice_validation():
    f = 60.0 + 0.1 * np.arange(16)
    s = CfrSlice(f, np.ones(16, dtype=complex))
    assert s.spacing_ghz == pytest.approx(0.1)
    with pytest.raises(DataFormatError):
        CfrSlice(f[:4], np.ones(4, dtype=complex))
    with pytest.raises(DataFormatError):
        CfrSlice(f, np.ones(15, dtype=complex))
    bumpy = f.copy()
    bumpy[7] += 0.03
    with pytest.raises(DataFormatError):
        CfrSlice(bumpy, np.ones(16, dtype=complex))
    with pytest.raises(DataFormatError):
        CfrSlice(f[::-1], np.ones(16, dtype=complex))


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


def test_cfr_of_delta_is_flat():
    taps = np.zeros(32, dtype=complex)
    taps[0] = 1.0
    cfr = cfr_from_cir(CirSlice(taps, 4.0))
    assert np.allclose(np.abs(cfr.values), 1.0, atol=1e-12)
    assert cfr.frequencies_ghz[0] == 0.0
    assert cfr.spacing_ghz == pytest.approx(4.0 / 32)


def test_cfr_two_tap_interference_pattern():
    taps = np.zeros(64, dtype=complex)
    taps[0] = 1.0
    taps[5] = 1.0
    slc = CirSlice(taps, 2.0)
    cfr = cfr_from_cir(slc)
    # DC bin sums coherently; the analytic magnitude holds across the band
    assert abs(cfr.values[0]) == pytest.approx(2.0, rel=1e-12)
    expected = 2.0 * np.abs(np.cos(np.pi * cfr.frequencies_ghz * 5
                                   * slc.tap_spacing_ns))
    assert np.allclose(np.abs(cfr.values), expected, atol=1e-9)


def test_cfr_parseval(rng):
    taps = rng.normal(size=200) + 1j * rng.normal(size=200)
    cfr = cfr_from_cir(CirSlice(taps, 7.0))
    lhs = np.sum(np.abs(taps) ** 2)
    rhs = np.sum(np.abs(cfr.values) ** 2) / len(taps)
    assert rhs == pytest.approx(lhs, rel=1e-9)


def test_cfr_needs_eight_taps():
    with pytest.raises(DegenerateInputError):
        cfr_from_cir(CirSlice(np.ones(7, dtype=complex), 1.0))


def test_flat_sweep_inverts_to_single_tap():
    f = 60.0 + 0.1 * np.arange(64)
    cir = cir_from_cfr(CfrSlice(f, np.ones(64, dtype=complex)))
    mags = np.abs(cir.taps)
    assert np.argmax(mags) == 0
    assert mags[0] == pytest.approx(1.0, rel=1e-12)
    assert np.all(mags[1:] < 1e-12)


def test_transform_round_trip_is_identity(rng):
    taps = rng.normal(size=96) + 1j * rng.normal(size=96)
    slc = CirSlice(taps, 5.0)
    back = cir_from_cfr(cfr_from_cir(slc), window="none")
    assert np.allclose(back.taps, taps, rtol=1e-9, atol=1e-12)
    assert back.sample_rate_ghz == pytest.approx(5.0, rel=1e-12)


def test_hann_window_tapers_band_edges(rng):
    values = rng.normal(size=32) + 1j * rng.normal(size=32)
    f = 1.0 + 0.05 * np.arange(32)
    plain = cir_from_cfr(CfrSlice(f, values), window="none")
    tapered = cir_from_cfr(CfrSlice(f, values), window="hann")
    assert not np.allclose(plain.taps, tapered.taps)
    with pytest.raises(ConfigError):
        cir_from_cfr(CfrSlice(f, values), window="hamming")


def test_sweep_resolution_example():
    # a 752-point band sampled every 11.5 MHz resolves 0.116 ns taps
    f = 50.0 + 0.0115 * np.arange(752)
    cir = cir_from_cfr(CfrSlice(f, np.ones(752, dtype=complex)))
    assert cir.tap_spacing_ns == pytest.approx(1.0 / (752 * 0.0115), rel=1e-9)
    assert round(cir.tap_spacing_ns, 2) == 0.12
