"""Clustered channel generator and beam-swept renderer."""

import math

import numpy as np
import pytest

from nlosid import (LOS, NLOS, ConfigError, Ray, RayCluster, RenderError,
                    SimConfig, beam_gain, generate_channel, render_cir,
                    rng_stream, simulate_realization)

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
        seed=3,
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


def test_sim_config_dict_round_trip():
    cfg = small_sim(snr_db=25.0, seed=99)
    assert SimConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError):
        SimConfig.from_dict({"n_taps": 128, "bogus": 1})


def test_short_record_rejected():
    # 64 taps at 2 GHz span 31.5 ns, less than the latest base delay
    cfg = small_sim(n_taps=64)
    with pytest.raises(ConfigError):
        generate_channel(cfg)


# ---------------------------------------------------------------------------
# channel draws


def test_generate_deterministic():
    cfg = small_sim(seed=7)
    a, la = generate_channel(cfg, 5)
    b, lb = generate_channel(cfg, 5)
    assert la == lb
    assert [c.to_dict() for c in a] == [c.to_dict() for c in b]


def test_los_flag_semantics():
    with_los, labels = generate_channel(small_sim(seed=1), 0)
    assert labels.count(LOS) == 1
    assert with_los[0].kind == LOS
    without, labels2 = generate_channel(small_sim(seed=1, los_present=False), 0)
    assert LOS not in labels2
    assert len(without) >= 1


def test_cluster_structure_invariants():
    cfg = small_sim(seed=13)
    ratios = []  # (delay offset, amplitude relative to the cluster's first ray)
    for realization in range(200):
        clusters, labels = generate_channel(cfg, realization)
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
    cfg = small_sim(seed=21, n_nlos_mean=4.0)
    counts = [sum(1 for c in generate_channel(cfg, i)[0] if c.kind == NLOS)
              for i in range(1000)]
    mean = np.mean(counts)
    assert abs(mean - 4.0) <= 0.4
    assert min(counts) >= 1


# ---------------------------------------------------------------------------
# beam pattern


def test_beam_gain_reference_points():
    assert beam_gain(0.0, 0.0, 5.0, 5.0) == pytest.approx(1.0, abs=0)
    assert beam_gain(2.5, 0.0, 5.0, 5.0) == pytest.approx(0.5, rel=1e-12)
    assert beam_gain(0.0, 2.5, 5.0, 5.0) == pytest.approx(0.5, rel=1e-12)
    assert beam_gain(2.5, 2.5, 5.0, 5.0) == pytest.approx(0.25, rel=1e-12)


def test_beam_gain_array_and_symmetry(rng):
    d = rng.uniform(-10, 10, 50)
    g = beam_gain(d, np.zeros(50), 5.0, 5.0)
    assert isinstance(g, np.ndarray)
    assert np.allclose(g, beam_gain(-d, np.zeros(50), 5.0, 5.0))
    assert np.all(g <= 1.0)
    with pytest.raises(ConfigError):
        beam_gain(1.0, 1.0, 0.0, 5.0)


# ---------------------------------------------------------------------------
# rendering


def test_render_single_ray_boresight():
    cfg = boresight_sim()
    cir = render_cir([single_ray_cluster()], cfg)
    grid = cfg.grid()
    i, j = grid.nearest_pixel(0.0, 0.0)
    taps = cir.data[i, j]
    tap_idx = int(round(10.0 * cfg.sample_rate_ghz))
    assert abs(taps[tap_idx]) == pytest.approx(1.0, rel=1e-12)
    nonzero = np.flatnonzero(np.abs(taps) > 0)
    assert list(nonzero) == [tap_idx]


def test_render_half_beamwidth_amplitude():
    cfg = boresight_sim()  # hpbw defaults to 5, columns every 2.5
    cir = render_cir([single_ray_cluster()], cfg)
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
    cir = render_cir([cluster], cfg)
    assert np.max(np.abs(cir.data)) < 1e-12


def test_render_errors_name_the_ray():
    cfg = boresight_sim()
    late = RayCluster(kind=NLOS, center_az_deg=0.0, center_el_deg=0.0,
                      base_delay_ns=60.0,
                      rays=(Ray(0.0, 0.5, 0.0, 0.0, 0.0),
                            Ray(30.0, 0.2, 0.0, 0.0, 0.0)))
    with pytest.raises(RenderError, match="cluster 0 ray 1"):
        render_cir([late], cfg)
    early = RayCluster(kind=NLOS, center_az_deg=0.0, center_el_deg=0.0,
                       base_delay_ns=5.0,
                       rays=(Ray(-9.0, 0.5, 0.0, 0.0, 0.0),))
    with pytest.raises(RenderError, match="negative delay"):
        render_cir([early], cfg)


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
        return render_cir([c1, c2], cfg)

    lo = np.sum(np.abs(channel(0.5).data) ** 2)
    hi = np.sum(np.abs(channel(0.8).data) ** 2)
    assert hi > lo


def test_noise_injection_and_seeding():
    cfg = boresight_sim(snr_db=40.0)
    cluster = single_ray_cluster()
    a = render_cir([cluster], cfg, realization=2)
    b = render_cir([cluster], cfg, realization=2)
    assert np.array_equal(a.data, b.data)
    c = render_cir([cluster], cfg, realization=3)
    assert not np.array_equal(a.data, c.data)
    # every tap picks up noise
    assert np.all(np.abs(a.data) > 0)
    # measured noise power per complex tap tracks the configured level
    quiet = a.data[:, :, np.arange(cfg.n_taps) != int(round(10.0 * 2.0))]
    measured = np.mean(np.abs(quiet) ** 2)
    assert measured == pytest.approx(10.0 ** (-40.0 / 10.0), rel=0.2)


def test_noiseless_mode_is_clean():
    cfg = boresight_sim(snr_db=None)
    cir = render_cir([single_ray_cluster()], cfg, realization=9)
    assert np.sum(np.abs(cir.data[..., 0])) == 0.0


def test_simulate_realization_deterministic():
    cfg = small_sim(seed=17, snr_db=35.0)
    _, labels_a, cir_a = simulate_realization(cfg, 4)
    _, labels_b, cir_b = simulate_realization(cfg, 4)
    assert labels_a == labels_b
    assert np.array_equal(cir_a.data, cir_b.data)
