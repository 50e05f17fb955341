"""Per-cluster identification metrics against brute-force oracles."""

import numpy as np
import pytest

from nlosid import (LOS, CirTensor, Cluster, ConfigError, CoKurtosisMatrix,
                    DegenerateInputError, FeatureVector, MetricConfig, PasMap,
                    Ray, RayCluster, SegParams, SimConfig, cluster_features,
                    co_kurtosis, compute_pas, delay_moments, eigen_ratio,
                    freq_kurtosis, render_cir, segment, time_kurtosis)

from conftest import blob_map, cluster_of, flat_grid
from oracles import (angular_moments_oracle, delay_moments_oracle,
                     eigen_ratio_oracle, kurtosis_oracle)


def random_cluster(rng):
    """A random pixel set with positive spread on a random partial grid."""
    n_el = int(rng.integers(4, 13))
    n_az = int(rng.integers(4, 17))
    g = flat_grid(n_el=n_el, n_az=n_az, step=float(rng.uniform(0.5, 5.0)),
                  az_start=float(rng.uniform(-90, 50)),
                  el_start=float(rng.uniform(-40, 20)))
    power = rng.uniform(0.1, 10.0, size=(n_el, n_az))
    while True:
        k = int(rng.integers(5, 31))
        flat = rng.choice(n_el * n_az, size=min(k, n_el * n_az),
                          replace=False)
        pixels = {(int(f) // n_az, int(f) % n_az) for f in flat}
        if len({i for i, _ in pixels}) >= 2 and len({j for _, j in pixels}) >= 2:
            break
    pas = PasMap(g, power)
    return cluster_of(pixels, pas), pas


# ---------------------------------------------------------------------------
# angular moments


def test_co_kurtosis_gaussian_quadrature_limits():
    # fine separable Gaussian: marginal kurtosis 3, normalized cross term 1
    g = flat_grid(n_el=201, n_az=201, step=1.0, az_start=-100.0,
                  el_start=-100.0)
    pas = blob_map(g, [(100, 100, 1.0, 20.0)], floor=0.0)
    cluster = cluster_of(
        ((i, j) for i in range(201) for j in range(201)), pas)
    m = co_kurtosis(cluster, pas, mode="kurtosis")
    assert m.rho11 == pytest.approx(3.0, abs=0.01)
    assert m.rho22 == pytest.approx(3.0, abs=0.01)
    assert m.rho12 == pytest.approx(1.0, abs=0.01)
    cov = co_kurtosis(cluster, pas, mode="covariance")
    assert cov.rho11 == pytest.approx(400.0, rel=0.01)   # sigma^2 = 20^2
    assert cov.rho11 == pytest.approx(cov.rho22, rel=1e-12)
    assert abs(cov.rho12) < 1e-9 * cov.rho11
    assert eigen_ratio(cov) == pytest.approx(1.0, abs=1e-6)
    # the fourth-moment matrix of a symmetric Gaussian is [[3,1],[1,3]]
    assert eigen_ratio(m) == pytest.approx(0.5, abs=0.01)


def test_co_kurtosis_matches_oracle_both_modes(rng):
    for _ in range(20):
        cluster, pas = random_cluster(rng)
        pix = sorted(cluster.pixels)
        az = [pas.grid.azimuths_deg[j] for _, j in pix]
        el = [pas.grid.elevations_deg[i] for i, _ in pix]
        w = [pas.power[p] for p in pix]
        for mode in ("kurtosis", "covariance"):
            got = co_kurtosis(cluster, pas, mode=mode)
            m11, m12, m22 = angular_moments_oracle(az, el, w, mode)
            assert got.rho11 == pytest.approx(m11, rel=1e-9)
            assert got.rho12 == pytest.approx(m12, rel=1e-9, abs=1e-12)
            assert got.rho22 == pytest.approx(m22, rel=1e-9)


def test_co_kurtosis_scaling_power_has_no_effect(rng):
    cluster, pas = random_cluster(rng)
    base = co_kurtosis(cluster, pas, mode="kurtosis")
    scaled = co_kurtosis(cluster, PasMap(pas.grid, pas.power * 5.0),
                         mode="kurtosis")
    for field in ("rho11", "rho12", "rho22"):
        assert getattr(scaled, field) == pytest.approx(
            getattr(base, field), rel=1e-12)


def test_co_kurtosis_wrap_recentering_matches_shifted_cluster():
    g = flat_grid(n_el=8, n_az=72, step=5.0, az_start=-180.0, el_start=-20.0)
    assert g.wraps_azimuth
    power = np.ones((8, 72))
    seam_cols = [68, 69, 70, 71, 0, 1, 2, 3]
    mid_cols = [32, 33, 34, 35, 36, 37, 38, 39]
    values = np.array([1.0, 2.0, 5.0, 9.0, 10.0, 6.0, 3.0, 1.5])
    for rows in (3, 4):
        for k, v in zip(seam_cols, values):
            power[rows, k] = v
        for k, v in zip(mid_cols, values):
            power[rows, k] = v
    pas = PasMap(g, power)
    seam = cluster_of([(i, j) for i in (3, 4) for j in seam_cols], pas)
    mid = cluster_of([(i, j) for i in (3, 4) for j in mid_cols], pas)
    a = co_kurtosis(seam, pas, mode="kurtosis")
    b = co_kurtosis(mid, pas, mode="kurtosis")
    for field in ("rho11", "rho12", "rho22"):
        assert getattr(a, field) == pytest.approx(getattr(b, field),
                                                  rel=1e-12)


def test_co_kurtosis_degenerate_cases():
    g = flat_grid(n_el=6, n_az=6)
    pas = PasMap(g, np.ones((6, 6)))
    with pytest.raises(DegenerateInputError):
        co_kurtosis(cluster_of([(0, 0), (1, 0)], pas), pas)
    # one azimuth column only
    with pytest.raises(DegenerateInputError):
        co_kurtosis(cluster_of([(0, 2), (1, 2), (2, 2)], pas), pas)
    with pytest.raises(ConfigError):
        co_kurtosis(cluster_of([(0, 0), (1, 1), (2, 2)], pas), pas,
                    mode="pca")


def test_co_kurtosis_single_angle_power_concentration():
    # pixels span two columns but one carries essentially all the power
    g = flat_grid(n_el=4, n_az=4)
    power = np.full((4, 4), 1e-300)
    power[1, 1] = 1.0
    power[2, 1] = 1.0
    pas = PasMap(g, power)
    with pytest.raises(DegenerateInputError):
        co_kurtosis(cluster_of([(1, 1), (2, 1), (1, 2), (2, 2)], pas), pas)


# ---------------------------------------------------------------------------
# eigenvalue ratio


def test_eigen_ratio_reference_matrices():
    assert eigen_ratio(CoKurtosisMatrix(3.0, 0.0, 3.0)) == 1.0
    assert eigen_ratio(CoKurtosisMatrix(3.0, 1.0, 3.0)) == pytest.approx(0.5)
    assert eigen_ratio(CoKurtosisMatrix(4.0, 0.0, 1.0)) == pytest.approx(0.25)
    with pytest.raises(DegenerateInputError):
        eigen_ratio(CoKurtosisMatrix(0.0, 0.0, 0.0))


def test_eigen_ratio_matches_eigvalsh(rng):
    for _ in range(100):
        a, c = rng.uniform(0.5, 5.0, 2)
        b = rng.uniform(-0.9, 0.9) * np.sqrt(a * c)
        got = eigen_ratio(CoKurtosisMatrix(a, b, c))
        lo, hi = np.linalg.eigvalsh(np.array([[a, b], [b, c]]))
        assert got == pytest.approx(lo / hi, rel=1e-12)
        want = eigen_ratio_oracle(a, b, c)
        assert got == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# magnitude kurtosis


def test_time_kurtosis_exact_sparse_value():
    # one active tap out of four, duplicated to satisfy the length floor;
    # population moments are unchanged by duplicating the sample multiset
    taps = np.array([1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0], dtype=complex)
    k = time_kurtosis(taps)
    assert k == pytest.approx(7.0 / 3.0, rel=1e-12)
    assert k == pytest.approx(kurtosis_oracle(np.abs(taps)), rel=1e-12)


def test_time_kurtosis_folded_normal_oracle(rng):
    mags = np.abs(rng.normal(size=1_000_000))
    phases = np.exp(1j * rng.uniform(0, 2 * np.pi, len(mags)))
    got = time_kurtosis(mags * phases)
    assert got == pytest.approx(kurtosis_oracle(mags), rel=1e-9)
    # folded-normal kurtosis, from the first four absolute moments
    assert got == pytest.approx(3.8692, abs=0.05)


def test_time_kurtosis_scale_and_permutation_invariant(rng):
    taps = rng.normal(size=64) + 1j * rng.normal(size=64)
    base = time_kurtosis(taps)
    assert time_kurtosis(10.0 * taps) == pytest.approx(base, rel=1e-12)
    perm = rng.permutation(64)
    assert time_kurtosis(taps[perm]) == pytest.approx(base, rel=1e-12)


def test_time_kurtosis_rejects_degenerate_slices():
    with pytest.raises(DegenerateInputError):
        time_kurtosis(np.ones(4, dtype=complex))
    with pytest.raises(DegenerateInputError):
        time_kurtosis(np.ones(32, dtype=complex))
    # constant magnitude with varying phase is still degenerate
    phases = np.exp(1j * np.linspace(0, 3, 32))
    with pytest.raises(DegenerateInputError):
        time_kurtosis(phases)


def test_freq_kurtosis_sinusoid_oracle():
    mags = np.abs(np.sin(np.linspace(0.3, 19.0, 512)))
    values = mags * np.exp(1j * np.linspace(0, 5, 512))
    # taps whose DFT is values
    taps = np.fft.ifft(values)
    assert freq_kurtosis(taps) == pytest.approx(kurtosis_oracle(mags),
                                                rel=1e-9)
    rotated = taps * (0.5 - 2.0j)
    assert freq_kurtosis(rotated) == pytest.approx(freq_kurtosis(taps),
                                                   rel=1e-12)


def test_freq_kurtosis_flat_channel_degenerate():
    taps = np.zeros(64, dtype=complex)
    taps[0] = 1.0
    with pytest.raises(DegenerateInputError):
        freq_kurtosis(taps)


# ---------------------------------------------------------------------------
# delay moments


def test_delay_moments_reference_points():
    taps = np.zeros(16, dtype=complex)
    taps[5] = 0.3
    assert delay_moments(taps, 1.0) == (5.0, 0.0)
    two = np.zeros(16, dtype=complex)
    two[1] = 0.7
    two[3] = 0.7
    assert delay_moments(two, 1.0) == (2.0, 1.0)


def test_delay_moments_use_the_sample_rate():
    # taps 3 and 7 at 4 GHz arrive at 0.75 and 1.75 ns
    taps = np.zeros(8, dtype=complex)
    taps[3] = taps[7] = 1.0
    assert delay_moments(taps, 4.0) == (1.25, 0.5)


def test_delay_moments_match_oracle(rng):
    for _ in range(25):
        n = int(rng.integers(8, 400))
        rate = float(rng.uniform(0.5, 8.0))
        taps = rng.normal(size=n) + 1j * rng.normal(size=n)
        mean, rms = delay_moments_oracle(np.abs(taps), np.arange(n) / rate)
        got_mean, got_rms = delay_moments(taps, rate)
        assert got_mean == pytest.approx(mean, rel=1e-12)
        assert got_rms == pytest.approx(rms, rel=1e-12, abs=1e-15)


def test_delay_moments_need_energy():
    with pytest.raises(DegenerateInputError):
        delay_moments(np.zeros(16, dtype=complex), 1.0)


# ---------------------------------------------------------------------------
# feature vector plumbing


def test_feature_vector_order_and_lookup():
    fv = FeatureVector(r_p=0.9, k_t=100.0, k_f=2.5, tau_mean_ns=1.5,
                       tau_rms_ns=3.5, label=LOS)
    assert np.array_equal(fv.values(), [0.9, 100.0, 2.5, 1.5, 3.5])
    assert fv.metric("tau_rms_ns") == 3.5
    with pytest.raises(ConfigError):
        fv.metric("snr")


def test_metric_config_validation():
    with pytest.raises(ConfigError):
        MetricConfig(r_p_mode="pca")
    with pytest.raises(ConfigError):
        MetricConfig.from_dict({"r_p_mode": "covariance", "bogus": 1})
    cfg = MetricConfig(r_p_mode="covariance")
    assert MetricConfig.from_dict(cfg.to_dict()) == cfg


# ---------------------------------------------------------------------------
# composed per-cluster features


def two_tap_fixture():
    """3x3 cluster; every pixel's response has equal taps at 1 and 3 ns."""
    g = flat_grid(n_el=9, n_az=9, step=1.0, az_start=-4.0, el_start=-4.0)
    data = np.zeros((9, 9, 16), dtype=complex)
    for i in range(3, 6):
        for j in range(3, 6):
            amp = 0.8 if (i, j) == (4, 4) else 0.4
            data[i, j, 1] = amp
            data[i, j, 3] = amp
    cir = CirTensor.dense(g, 1.0, data)
    pas = compute_pas(cir)
    pixels = [(i, j) for i in range(3, 6) for j in range(3, 6)]
    return cluster_of(pixels, pas, truth=LOS), cir, pas


def features_of(cluster, cir, pas, config):
    return cluster_features(cluster, pas,
                            cir.pixels(*zip(cluster.peak_pixel))[0],
                            cir.sample_rate_ghz, config)


def test_cluster_features_two_tap_composition():
    cluster, cir, pas = two_tap_fixture()
    for mode in ("kurtosis", "covariance"):
        fv = features_of(cluster, cir, pas, MetricConfig(r_p_mode=mode))
        assert fv.tau_mean_ns == pytest.approx(2.0, rel=1e-14)
        assert fv.tau_rms_ns == pytest.approx(1.0, rel=1e-14)
        assert fv.label == LOS
        assert 0.0 < fv.r_p <= 1.0
        assert fv.k_t > 0 and fv.k_f > 0


def test_cluster_features_scale_invariant():
    cluster, cir, pas = two_tap_fixture()
    base = features_of(cluster, cir, pas, MetricConfig()).values()
    for c in (1e-3, 1e3):
        scaled_cir = CirTensor.dense(cir.grid, cir.sample_rate_ghz,
                                     cir.data * c)
        scaled_pas = compute_pas(scaled_cir)
        got = features_of(cluster, scaled_cir, scaled_pas,
                          MetricConfig()).values()
        assert np.all(np.abs(got - base) <= 1e-9 * np.abs(base))


def test_cluster_features_annotates_errors():
    cluster, cir, pas = two_tap_fixture()
    silent = CirTensor.dense(cir.grid, cir.sample_rate_ghz,
                             np.zeros_like(cir.data))
    with pytest.raises(DegenerateInputError, match="cluster 1:"):
        features_of(cluster, silent, pas, MetricConfig())


def test_single_ray_beam_is_symmetric():
    cfg = SimConfig(az_range_deg=(-10.0, 10.0), el_range_deg=(-10.0, 10.0),
                    step_deg=1.0, sample_rate_ghz=2.0, n_taps=128,
                    snr_db=None)
    ray = RayCluster(kind=LOS, center_az_deg=0.0, center_el_deg=0.0,
                     base_delay_ns=12.0,
                     rays=(Ray(0.0, 1.0, 0.4, 0.0, 0.0),))
    cir = render_cir([ray], cfg, 0)
    pas = compute_pas(cir)
    clusters = segment(pas, SegParams(min_pixels=4, marker_min_separation=5.0))
    assert len(clusters) == 1
    r_p = eigen_ratio(co_kurtosis(clusters[0], pas, mode="covariance"))
    assert r_p >= 0.95
