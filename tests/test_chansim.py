"""Clustered channel generator and beam-swept renderer."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy import stats

from nlosid import (LOS, NLOS, AngularGrid, CirTensor, ConfigError,
                    MetricConfig, Ray, RayCluster, RenderError, SegParams,
                    SimConfig, beam_amplitude, compute_pas,
                    extract_realization, generate_channel, render_cir,
                    rng_stream, simulate_realization)

import oracles
from conftest import small_sim


def boresight_sim(**overrides) -> SimConfig:
    """Grid with 2.5 degree columns so half-beamwidth offsets land on
    pixels exactly."""
    base = dict(
        az_range_deg=(-10.0, 10.0),
        el_range_deg=(-5.0, 5.0),
        step_deg=2.5,
        sample_rate_ghz=2.0,
        n_taps=128,
        snr_db=None,
    )
    base.update(overrides)
    return SimConfig(**base)


def single_ray_cluster(amplitude=1.0, phase=0.0, base=10.0) -> RayCluster:
    return RayCluster(kind=LOS, center_az_deg=0.0, center_el_deg=0.0,
                      base_delay_ns=base,
                      rays=(Ray(0.0, amplitude, phase, 0.0, 0.0),))


# ---------------------------------------------------------------------------
# seeding and config


def test_rng_stream_keyed_independence():
    a = rng_stream(42, 0, 0).uniform(size=4)
    b = rng_stream(42, 0, 0).uniform(size=4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, rng_stream(42, 0, 1).uniform(size=4))
    assert not np.array_equal(a, rng_stream(42, 1, 0).uniform(size=4))
    assert not np.array_equal(a, rng_stream(43, 0, 0).uniform(size=4))
    assert not np.array_equal(a, rng_stream(42, 0, 0, 0).uniform(size=4))


def test_sim_config_validation():
    with pytest.raises(ConfigError):
        small_sim(n_taps=32)
    with pytest.raises(ConfigError):
        small_sim(step_deg=-1.0)
    with pytest.raises(ConfigError, match="whole number"):
        small_sim(az_range_deg=(0.0, 7.0))
    with pytest.raises(ConfigError):
        small_sim(az_range_deg=(10.0, 10.0))
    with pytest.raises(ConfigError):
        small_sim(n_nlos_mean=0.5)
    with pytest.raises(ConfigError,
                       match="SimConfig.hpbw_az_deg must be positive, got 0.0"):
        small_sim(hpbw_az_deg=0.0)


def test_sim_config_dict_round_trip():
    cfg = small_sim(snr_db=25.0)
    assert SimConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        SimConfig.from_dict({"n_taps": 128, "bogus": 1})


def test_short_record_rejected():
    # 64 taps at 2 GHz span 31.5 ns, less than the latest base delay
    cfg = small_sim(n_taps=64)
    with pytest.raises(ConfigError):
        generate_channel(cfg, 7)


@pytest.mark.filterwarnings("error")
def test_huge_ray_gaps_are_refused_without_a_warning():
    """Ray offsets that overflow to inf fall past the record, so the
    cluster cannot be placed; the overflow itself is not reported."""
    with pytest.raises(ConfigError, match="could not place a reflection"):
        generate_channel(small_sim(ray_gap_mean_ns=1e308), 7)


# ---------------------------------------------------------------------------
# channel draws


def test_generate_deterministic():
    cfg = small_sim()
    a, la = generate_channel(cfg, 7, 5)
    b, lb = generate_channel(cfg, 7, 5)
    assert la == lb
    assert [c.to_dict() for c in a] == [c.to_dict() for c in b]


def test_los_flag_semantics():
    with_los, labels = generate_channel(small_sim(), 1, 0)
    assert labels.count(LOS) == 1
    assert with_los[0].kind == LOS
    without, labels2 = generate_channel(small_sim(los_present=False), 1, 0)
    assert LOS not in labels2
    assert len(without) >= 1


def test_cluster_structure_invariants():
    cfg = small_sim()
    ratios = []  # (delay offset, amplitude relative to the cluster's first ray)
    for realization in range(200):
        clusters, labels = generate_channel(cfg, 13, realization)
        assert labels == [c.kind for c in clusters]
        los = [c for c in clusters if c.kind == LOS]
        nlos = [c for c in clusters if c.kind == NLOS]
        assert len(los) == 1 and len(nlos) >= 1
        dominant = los[0].rays[0]
        assert dominant.amplitude == 1.0
        assert dominant.delay_offset_ns == 0.0
        # companions sit at least 15 dB below the dominant ray
        for extra in los[0].rays[1:]:
            assert extra.amplitude <= 10.0 ** (-15.0 / 20.0) + 1e-12
        for c in nlos:
            assert c.base_delay_ns > los[0].base_delay_ns
            assert len(c.rays) >= 2
            offsets = [r.delay_offset_ns for r in c.rays]
            assert offsets[0] == 0.0
            assert all(b > a for a, b in zip(offsets, offsets[1:]))
            assert all(r.amplitude < 0.95 + 1e-9 for r in c.rays)
            ratios.extend((r.delay_offset_ns, r.amplitude / c.rays[0].amplitude)
                          for r in c.rays[1:])
        for c in clusters:
            assert cfg.az_range_deg[0] <= c.center_az_deg <= cfg.az_range_deg[1]
            assert cfg.el_range_deg[0] <= c.center_el_deg <= cfg.el_range_deg[1]
    # mean relative amplitude decays with delay offset roughly as exp(-t/4.5)
    early = [a for t, a in ratios if t < 2.0]
    late = [a for t, a in ratios if 6.0 <= t < 10.0]
    assert len(early) > 50 and len(late) > 50
    decay = np.mean(late) / np.mean(early)
    assert 0.1 < decay < 0.6  # exp(-7/4.5)/exp(-1/4.5) is about 0.26


def test_nlos_count_statistics():
    cfg = small_sim(n_nlos_mean=4.0)
    counts = [sum(1 for c in generate_channel(cfg, 21, i)[0] if c.kind == NLOS)
              for i in range(1000)]
    mean = np.mean(counts)
    assert abs(mean - 4.0) <= 0.4
    assert min(counts) >= 1


# ---------------------------------------------------------------------------
# beam pattern


def beam_gain(d_az_deg, d_el_deg, hpbw_deg=5.0):
    """Power gain of the beam pair: the squared product of its per-axis
    amplitude weights."""
    return (beam_amplitude(d_az_deg, hpbw_deg)
            * beam_amplitude(d_el_deg, hpbw_deg)) ** 2


def test_beam_gain_reference_points():
    assert beam_gain(0.0, 0.0) == 1.0
    assert beam_gain(2.5, 0.0) == pytest.approx(0.5, rel=1e-12)
    assert beam_gain(0.0, 2.5) == pytest.approx(0.5, rel=1e-12)
    assert beam_gain(2.5, 2.5) == pytest.approx(0.25, rel=1e-12)


def test_beam_gain_array_and_symmetry(rng):
    d = rng.uniform(-10, 10, 50)
    a = beam_amplitude(d, 5.0)
    assert isinstance(a, np.ndarray) and a.shape == (50,)
    assert np.array_equal(a, beam_amplitude(-d, 5.0))
    assert np.all((0.0 < a) & (a <= 1.0))
    assert np.allclose(beam_gain(d, 0.0), beam_gain(-d, 0.0))


# ---------------------------------------------------------------------------
# rendering


def test_render_single_ray_boresight():
    cfg = boresight_sim()
    cir = render_cir([single_ray_cluster()], cfg, 3)
    grid = cfg.grid()
    i, j = grid.nearest_pixel(0.0, 0.0)
    taps = cir.data[i, j]
    tap_idx = int(round(10.0 * cfg.sample_rate_ghz))
    assert abs(taps[tap_idx]) == pytest.approx(1.0, rel=1e-12)
    nonzero = np.flatnonzero(np.abs(taps) > 0)
    assert list(nonzero) == [tap_idx]


def test_render_half_beamwidth_amplitude():
    cfg = boresight_sim()  # hpbw defaults to 5, columns every 2.5
    cir = render_cir([single_ray_cluster()], cfg, 3)
    grid = cfg.grid()
    i, j = grid.nearest_pixel(0.0, 2.5)
    tap_idx = int(round(10.0 * cfg.sample_rate_ghz))
    assert abs(cir.data[i, j, tap_idx]) == pytest.approx(math.sqrt(0.5),
                                                         rel=1e-12)


def test_render_destructive_interference():
    rays = (Ray(0.0, 0.5, 0.0, 0.0, 0.0), Ray(0.0, 0.5, math.pi, 0.0, 0.0))
    cluster = RayCluster(kind=NLOS, center_az_deg=0.0, center_el_deg=0.0,
                         base_delay_ns=10.0, rays=rays)
    cfg = boresight_sim()
    cir = render_cir([cluster], cfg, 3)
    assert np.max(np.abs(cir.data)) < 1e-12


def test_render_errors_name_the_ray():
    cfg = boresight_sim()
    late = RayCluster(kind=NLOS, center_az_deg=0.0, center_el_deg=0.0,
                      base_delay_ns=60.0,
                      rays=(Ray(0.0, 0.5, 0.0, 0.0, 0.0),
                            Ray(30.0, 0.2, 0.0, 0.0, 0.0)))
    with pytest.raises(RenderError, match="cluster 0 ray 1"):
        render_cir([late], cfg, 3)
    early = RayCluster(kind=NLOS, center_az_deg=0.0, center_el_deg=0.0,
                       base_delay_ns=5.0,
                       rays=(Ray(-9.0, 0.5, 0.0, 0.0, 0.0),))
    with pytest.raises(RenderError, match="negative delay"):
        render_cir([early], cfg, 3)


def test_energy_monotone_in_ray_amplitude():
    cfg = boresight_sim()

    def channel(amp):
        c1 = RayCluster(kind=NLOS, center_az_deg=-5.0, center_el_deg=0.0,
                        base_delay_ns=8.0,
                        rays=(Ray(0.0, amp, 0.4, 0.0, 0.0),
                              Ray(3.0, 0.3, 1.1, 1.0, -1.0)))
        c2 = RayCluster(kind=NLOS, center_az_deg=5.0, center_el_deg=2.5,
                        base_delay_ns=20.0,
                        rays=(Ray(0.0, 0.6, 2.0, 0.0, 0.0),
                              Ray(2.0, 0.2, 0.9, -1.0, 0.5)))
        return render_cir([c1, c2], cfg, 3)

    lo = np.sum(np.abs(channel(0.5).data) ** 2)
    hi = np.sum(np.abs(channel(0.8).data) ** 2)
    assert hi > lo


def test_noise_injection_and_seeding():
    cfg = boresight_sim(snr_db=40.0)
    cluster = single_ray_cluster()
    a = render_cir([cluster], cfg, 3, realization=2)
    b = render_cir([cluster], cfg, 3, realization=2)
    assert np.array_equal(a.data, b.data)
    c = render_cir([cluster], cfg, 3, realization=3)
    assert not np.array_equal(a.data, c.data)
    # every tap picks up noise
    assert np.all(np.abs(a.data) > 0)
    # measured noise power per complex tap tracks the configured level
    quiet = a.data[:, :, np.arange(cfg.n_taps) != int(round(10.0 * 2.0))]
    measured = np.mean(np.abs(quiet) ** 2)
    assert measured == pytest.approx(10.0 ** (-40.0 / 10.0), rel=0.2)


def test_noiseless_mode_is_clean():
    cfg = boresight_sim(snr_db=None)
    cir = render_cir([single_ray_cluster()], cfg, 3, realization=9)
    assert np.sum(np.abs(cir.data[..., 0])) == 0.0


def test_simulate_realization_deterministic():
    cfg = small_sim(snr_db=35.0)
    _, labels_a, cir_a = simulate_realization(cfg, 17, 4)
    _, labels_b, cir_b = simulate_realization(cfg, 17, 4)
    assert labels_a == labels_b
    assert np.array_equal(cir_a.data, cir_b.data)


# ---------------------------------------------------------------------------
# dense tensors


@settings(max_examples=60, deadline=None)
@given(values=arrays(complex, st.tuples(st.integers(1, 3), st.integers(1, 4),
                                        st.integers(0, 12)),
                     elements=st.complex_numbers(allow_nan=False,
                                                 allow_infinity=False)))
def test_dense_tensor_reads_back_its_array(values):
    n_el, n_az, n_taps = values.shape
    grid = AngularGrid(0.0, 1.0, n_az, 0.0, 1.0, n_el)
    cir = CirTensor.dense(grid, 2.0, values)
    assert cir.data is values and cir.n_taps == n_taps
    for i, j in np.ndindex(grid.shape):
        assert cir.pixels([i], [j])[0].tobytes() == values[i, j].tobytes()
    with np.errstate(over="ignore"):      # huge taps square to inf
        assert cir.tap_energy().tobytes() == \
            np.sum(np.abs(values) ** 2, axis=-1).tobytes()


def test_noiseless_render_equals_dense_tensor_of_its_data():
    cfg = small_sim(snr_db=None)
    clusters, _ = generate_channel(cfg, 5, 2)
    cir = render_cir(clusters, cfg, 5, 2)
    dense = CirTensor.dense(cir.grid, cir.sample_rate_ghz, cir.data)
    assert dense.n_taps == cir.n_taps and dense.data is cir.data
    for i, j in np.ndindex(cir.grid.shape):
        assert dense.pixels([i], [j])[0].tobytes() \
            == cir.pixels([i], [j])[0].tobytes()
    # the sums run over different tap sets, so they agree to rounding
    np.testing.assert_allclose(dense.tap_energy(), cir.tap_energy(),
                               rtol=1e-12, atol=0.0)


# ---------------------------------------------------------------------------
# lazy noise against the dense tensor and the eager oracle


def test_pixels_match_dense_view_in_any_order():
    cfg = small_sim(snr_db=30.0)
    clusters, _ = generate_channel(cfg, 5, 3)
    grid = cfg.grid()
    order = np.random.default_rng(0).permutation(grid.n_el * grid.n_az)
    pixels = [divmod(int(k), grid.n_az) for k in order]

    before = render_cir(clusters, cfg, 5, 3)
    early = {p: before.pixels(*zip(p))[0].tobytes()
             for p in pixels[:40]}
    dense = before.data
    after = render_cir(clusters, cfg, 5, 3)
    late = {p: after.pixels(*zip(p))[0].tobytes()
            for p in reversed(pixels)}
    assert dense.tobytes() == after.data.tobytes()
    for p in pixels:
        assert before.pixels(*zip(p))[0].tobytes() == dense[p].tobytes()
        assert late[p] == dense[p].tobytes()
        if p in early:
            assert early[p] == dense[p].tobytes()


def tensor_of(kind: str, realization: int) -> CirTensor:
    """A small_sim render: noisy, noiseless, or the dense copy of the noisy
    one's data."""
    cfg = small_sim(snr_db=None if kind == "noiseless" else 30.0)
    clusters, _ = generate_channel(cfg, 5, realization)
    cir = render_cir(clusters, cfg, 5, realization)
    if kind == "dense":
        return CirTensor.dense(cir.grid, cir.sample_rate_ghz, cir.data)
    return cir


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["noisy", "noiseless", "dense"]),
       realization=st.integers(0, 99),
       picks=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 24)),
                      min_size=1, max_size=10),
       repeat=st.integers(0, 9))
def test_batched_read_equals_pixel_and_data(kind, realization, picks, repeat):
    """pixels() in any order, with a direction repeated, reads the same bits
    as one-direction reads and as data, whichever is read first."""
    picks = picks + [picks[repeat % len(picks)]]
    el, az = (list(axis) for axis in zip(*picks))
    first = tensor_of(kind, realization)
    batch = first.pixels(el, az)
    assert batch.shape == (len(picks), first.n_taps)
    assert batch.dtype == complex
    singles = [first.pixels(*zip(p))[0] for p in picks]
    dense = tensor_of(kind, realization).data
    for row, single, p in zip(batch, singles, picks):
        assert row.tobytes() == single.tobytes() == dense[p].tobytes()
    assert first.pixels(el, az).tobytes() == batch.tobytes()


def test_batched_read_indices():
    cir = tensor_of("noisy", 1)
    n_el, n_az = cir.grid.shape
    assert cir.pixels([-1, 0], [-2, 3]).tobytes() == \
        np.stack([cir.pixels([n_el - 1], [n_az - 2])[0],
                  cir.pixels([0], [3])[0]]).tobytes()
    assert cir.pixels([], []).shape == (0, cir.n_taps)
    with pytest.raises(IndexError):
        cir.pixels([0, 1], [0])
    with pytest.raises(IndexError):
        cir.pixels([n_el], [0])
    with pytest.raises(IndexError):
        cir.pixels([0], [n_az])


def test_lazy_pas_matches_dense_pas():
    cfg = small_sim(snr_db=30.0)
    for realization in range(3):
        clusters, _ = generate_channel(cfg, 5, realization)
        cir = render_cir(clusters, cfg, 5, realization)
        dense = CirTensor.dense(cir.grid, cir.sample_rate_ghz, cir.data)
        np.testing.assert_allclose(compute_pas(cir).power,
                                   compute_pas(dense).power,
                                   rtol=1e-12, atol=0.0)


def bits(a: np.ndarray) -> np.ndarray:
    """The IEEE bit patterns of a float or complex array, so that -0.0 and
    +0.0 compare unequal."""
    return np.ascontiguousarray(a).view(np.uint64)


def test_noiseless_render_equals_oracle_exactly():
    cfg = small_sim(snr_db=None)
    for realization in range(5):
        clusters, _ = generate_channel(cfg, 5, realization)
        want = oracles.render_cir_oracle(clusters, cfg, 5, realization)
        got = render_cir(clusters, cfg, 5, realization).data
        assert np.array_equal(bits(got), bits(want))
    # zero peak amplitude: no noise is drawn, whatever snr_db says
    silent = [RayCluster(kind=NLOS, center_az_deg=0.0, center_el_deg=0.0,
                         base_delay_ns=10.0,
                         rays=(Ray(0.0, 0.0, 0.3, 0.0, 0.0),))]
    noisy_cfg = small_sim(snr_db=20.0)
    cir = render_cir(silent, noisy_cfg, 7, 1)
    assert cir.along is None and cir.across is None
    assert not np.any(cir.data)
    assert np.array_equal(cir.data,
                          oracles.render_cir_oracle(silent, noisy_cfg, 7, 1))


@pytest.mark.parametrize("cfg", [
    small_sim(snr_db=None), small_sim(snr_db=30.0), SimConfig(),
    SimConfig(snr_db=None, los_present=False),
    SimConfig(az_range_deg=(-60.0, 60.0), el_range_deg=(-20.0, 40.0),
              step_deg=2.0, snr_db=10.0)],
    ids=["small-noiseless", "small-noisy", "default", "default-noiseless-nlos",
         "fine-grid"])
def test_render_matches_the_ray_by_ray_oracle_bit_for_bit(cfg):
    """signal and across equal the per-ray oracle's bit patterns, so
    noiseless tensors keep their signs of zero and noisy ones their draws;
    along is the oracle's |s| plus the same noise draw, to the rounding of
    |s| (see assert_along_matches_oracle)."""
    for realization in range(4):
        clusters, _ = generate_channel(cfg, 17, realization)
        cir = render_cir(clusters, cfg, 17, realization)
        taps, signal, along, across = oracles.render_signal_oracle(
            clusters, cfg, 17, realization)
        assert cir.signal_taps.tolist() == taps.tolist()
        assert cir.signal.shape == signal.shape
        assert np.array_equal(bits(cir.signal), bits(signal))
        if cfg.snr_db is None:
            assert cir.along is None and along is None
            assert cir.across is None and across is None
        else:
            assert_along_matches_oracle(cir, clusters, signal, along)
            assert np.array_equal(bits(cir.across), bits(across))


def assert_along_matches_oracle(cir, clusters, signal, along):
    """|render along - oracle along| <= 1e-14 |s| + 2^-500 peak + 1 ulp of
    along, |s| the oracle's norm of its accumulated taps.  The render sums
    the squares of |s| in another order and in another factoring, so it
    may differ by a few roundings relative to |s|, and may lose pixels
    whose squares underflow, far below the strongest ray."""
    peak = max(ray.amplitude for c in clusters for ray in c.rays)
    bound = (1e-14 * oracles.scaled_norm_oracle(signal) + 2.0 ** -500 * peak
             + np.spacing(np.abs(along)))
    assert np.all(np.abs(cir.along - along) <= bound)


def opposed_rays():
    """A ray (tap, amplitude, phase, az and el offsets), alone or with a
    twin in its tap of nearly opposite phase from nearly its direction."""
    ray = st.tuples(st.integers(0, 4), st.floats(1e-3, 1.0),
                    st.floats(0.0, 2.0 * math.pi), st.floats(-120.0, 120.0),
                    st.floats(-8.0, 8.0))
    twin = st.tuples(st.floats(0.5, 1.0), st.floats(-1e-3, 1e-3),
                     st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))

    def rays(base, offset):
        tap, amp, phase, az, el = base
        if offset is None:
            return [base]
        ratio, dphase, daz, d_el = offset
        return [base, (tap, amp * ratio, phase + math.pi + dphase, az + daz,
                       el + d_el)]
    return st.builds(rays, ray, st.none() | twin)


@settings(max_examples=40, deadline=None)
@given(groups=st.lists(opposed_rays(), min_size=1, max_size=6),
       snr_db=st.sampled_from([20.0, 60.0, 300.0]),
       realization=st.integers(0, 999))
def test_along_is_the_norm_of_the_taps_plus_its_noise(groups, snr_db,
                                                      realization):
    """Over random rays, some 80-120 degrees off the beam (subnormal
    energies and taps) and some cancelling a twin in their tap, at SNRs up
    to 300 dB where along is nearly |s| alone: signal and across keep the
    oracle's bits and along is within the rounding bound of its |s|."""
    cfg = SimConfig(az_range_deg=(0.0, 120.0), el_range_deg=(-8.0, 8.0),
                    step_deg=4.0, sample_rate_ghz=2.0, n_taps=64,
                    snr_db=snr_db)
    rays = tuple(Ray(tap / 2.0, amp, phase, az, el)
                 for group in groups for tap, amp, phase, az, el in group)
    clusters = [RayCluster(kind=NLOS, center_az_deg=0.0, center_el_deg=0.0,
                           base_delay_ns=5.0, rays=rays)]
    cir = render_cir(clusters, cfg, 23, realization)
    taps, signal, along, across = oracles.render_signal_oracle(
        clusters, cfg, 23, realization)
    assert cir.signal_taps.tolist() == taps.tolist()
    assert np.array_equal(bits(cir.signal), bits(signal))
    assert np.array_equal(bits(cir.across), bits(across))
    assert_along_matches_oracle(cir, clusters, signal, along)


def test_render_with_every_tap_carrying_a_ray():
    # 64 taps at 2 GHz, one ray per tap: the signal direction spans the
    # whole record
    cfg = small_sim(n_taps=64, snr_db=20.0)
    rays = tuple(Ray(k / 2.0, 0.5, 0.1 * k, 0.0, 0.0) for k in range(64))
    cluster = RayCluster(kind=NLOS, center_az_deg=0.0, center_el_deg=0.0,
                         base_delay_ns=0.0, rays=rays)
    cir = render_cir([cluster], cfg, 7, 0)
    assert len(cir.signal_taps) == 64
    assert cir.along.shape == cir.across.shape == cfg.grid().shape
    assert np.all(cir.across > 0)
    assert np.all(np.isfinite(cir.data))
    dense = CirTensor.dense(cir.grid, cir.sample_rate_ghz, cir.data)
    np.testing.assert_allclose(compute_pas(cir).power,
                               compute_pas(dense).power,
                               rtol=1e-12, atol=0.0)


def test_noise_only_energy_follows_its_gamma_law():
    """Energy of each pixel's noise-only taps, over 20 realizations, against
    Gamma(m, noise power) by a KS test at p >= 1e-3."""
    cfg = small_sim(snr_db=30.0)
    u = []
    for realization in range(20):
        clusters, _ = generate_channel(cfg, 101, realization)
        cir = render_cir(clusters, cfg, 101, realization)
        quiet = np.ones(cfg.n_taps, dtype=bool)
        quiet[cir.signal_taps] = False
        energy = np.sum(np.abs(cir.data[:, :, quiet]) ** 2, axis=2)
        peak = max(r.amplitude for c in clusters for r in c.rays)
        noise_power = peak ** 2 * 10.0 ** (-cfg.snr_db / 10.0)
        u.extend(stats.gamma.cdf(energy.ravel() / noise_power,
                                 int(quiet.sum())))
    assert stats.kstest(u, "uniform").pvalue >= 1e-3


def test_pixel_energy_follows_its_noncentral_chi2_law():
    """Energy of every pixel of the dense view, over 20 realizations,
    against sigma^2 ncx2(2 n_taps, |s|^2 / sigma^2) with s the noiseless
    oracle render, by KS tests at p >= 1e-3: over all pixels, and over the
    pixels whose signal outweighs the noise, where the part of the noise
    along s matters most."""
    cfg = small_sim(snr_db=30.0)
    u, strong = [], []
    for realization in range(20):
        clusters, _ = generate_channel(cfg, 303, realization)
        cir = render_cir(clusters, cfg, 303, realization)
        clean = oracles.render_cir_oracle(clusters, replace(cfg, snr_db=None),
                                          303, realization)
        peak = max(r.amplitude for c in clusters for r in c.rays)
        sigma2 = peak ** 2 * 10.0 ** (-cfg.snr_db / 10.0) / 2.0
        energy = np.sum(np.abs(cir.data) ** 2, axis=2)
        nc = np.sum(np.abs(clean) ** 2, axis=2) / sigma2
        cdf = stats.ncx2.cdf(energy / sigma2, 2 * cfg.n_taps, nc)
        u.extend(cdf.ravel())
        strong.extend(cdf[nc > 2 * cfg.n_taps])
    assert len(strong) >= 100
    for sample in (u, strong):
        assert stats.kstest(sample, "uniform").pvalue >= 1e-3


def test_subnormal_signal_pixels_keep_their_energy():
    """A ray seen 80-116 degrees off its beam leaves pixels whose signal
    energy, or signal itself, is subnormal.  Their taps still carry the
    rendered energy and match the dense view."""
    cfg = SimConfig(az_range_deg=(0.0, 120.0), el_range_deg=(0.0, 2.0),
                    step_deg=1.0, sample_rate_ghz=2.0, n_taps=128,
                    snr_db=20.0)
    ray = RayCluster(kind=LOS, center_az_deg=0.3, center_el_deg=0.2,
                     base_delay_ns=10.0, rays=(Ray(0.0, 1.0, 0.4, 0.0, 0.0),))
    cir = render_cir([ray], cfg, 11, 0)
    tiny = np.finfo(float).tiny
    for value in (np.sum(np.abs(cir.signal) ** 2, axis=2),
                  np.abs(cir.signal[..., 0])):
        assert np.any((value > 0) & (value < tiny))
    dense = cir.data
    np.testing.assert_allclose(np.sum(np.abs(dense) ** 2, axis=2),
                               cir.tap_energy(), rtol=1e-12, atol=0.0)
    for i, j in np.ndindex(cfg.grid().shape):
        assert cir.pixels([i], [j])[0].tobytes() == dense[i, j].tobytes()


def test_lazy_and_eager_noise_give_one_distribution():
    """Two-sample KS tests, lazy render against the eager oracle over 40
    realizations: pooled PAS energies and each of the five features at
    p >= 1e-3.  The reference SNR, so that clusters clear the foreground
    threshold."""
    cfg = small_sim(snr_db=60.0)
    seg = SegParams(min_pixels=2, marker_min_separation=1.0)
    metric = MetricConfig(r_p_mode="covariance")
    pas = {"lazy": [], "eager": []}
    features = {"lazy": [], "eager": []}
    for realization in range(40):
        clusters, _ = generate_channel(cfg, 202, realization)
        lazy = render_cir(clusters, cfg, 202, realization)
        eager = CirTensor.dense(cfg.grid(), cfg.sample_rate_ghz,
                                oracles.render_cir_oracle(clusters, cfg, 202,
                                                          realization))
        for name, cir in (("lazy", lazy), ("eager", eager)):
            pas[name].extend(compute_pas(cir).power.ravel())
            rows, _ = extract_realization(cir, clusters, seg, metric)
            features[name].extend(fv.values() for fv in rows)
    assert stats.ks_2samp(pas["lazy"], pas["eager"]).pvalue >= 1e-3
    lazy_rows, eager_rows = (np.array(features[k]) for k in ("lazy", "eager"))
    assert len(lazy_rows) >= 50 and len(eager_rows) >= 50
    for k in range(5):
        assert stats.ks_2samp(lazy_rows[:, k], eager_rows[:, k]).pvalue >= 1e-3


@settings(max_examples=30, deadline=None)
@given(n_az=st.integers(1, 6), n_el=st.integers(1, 4),
       n_taps=st.integers(82, 160),
       snr_db=st.one_of(st.none(), st.floats(0.0, 60.0)),
       seed=st.integers(0, 2 ** 32 - 1), realization=st.integers(0, 999),
       picks=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 6)),
                      max_size=6))
def test_lazy_render_properties(n_az, n_el, n_taps, snr_db, seed, realization,
                                picks):
    cfg = SimConfig(az_range_deg=(0.0, 5.0 * n_az),
                    el_range_deg=(0.0, 5.0 * n_el), sample_rate_ghz=2.0,
                    n_taps=n_taps, snr_db=snr_db)
    clusters, _ = generate_channel(cfg, seed, realization)
    cir = render_cir(clusters, cfg, seed, realization)
    grid = cfg.grid()
    picks = [(i % grid.n_el, j % grid.n_az) for i, j in picks]
    early = [cir.pixels(*zip(p))[0] for p in picks]
    dense = cir.data
    for p, taps in zip(picks, early):
        assert taps.tobytes() == dense[p].tobytes()
        assert cir.pixels(*zip(p))[0].tobytes() == dense[p].tobytes()
    np.testing.assert_allclose(cir.tap_energy(),
                               np.sum(np.abs(dense) ** 2, axis=2),
                               rtol=1e-12, atol=0.0)
    if snr_db is None:
        assert np.array_equal(
            dense, oracles.render_cir_oracle(clusters, cfg, seed,
                                             realization))
