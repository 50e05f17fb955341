"""Acceptance gate: one test per shipped criterion, run with pytest -v.

Each test states its tolerance inline and fails with the measured value,
so a verbose run reads as a pass/fail checklist for the whole package.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from nlosid import (CirTensor, ExperimentConfig, GevPair, GevParams,
                    MetricConfig, MlrModel, PasMap, SegParams, TrainSchedule,
                    ann_classify, ann_init, ann_train, cluster_features,
                    co_kurtosis, delay_moments, eigen_ratio, freq_kurtosis,
                    gev_cdf, gev_fit_mle, gev_pdf, cdf_rmse, mlr_classify,
                    mlr_train, run_experiment, segment, simulate_realization,
                    time_kurtosis)
from nlosid import classifiers
from nlosid.classifiers import _loss_and_grads
from nlosid.experiment import extract_realization
from nlosid.fileio import load_features, load_json
from nlosid.gevstats import bootstrap_split
from nlosid.metrics import METRIC_NAMES

import oracles
from conftest import (blob_map, cluster_of, flat_grid, gev_inverse_sample,
                      labelled_feature_rows, make_fv, separable_features,
                      small_sim)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture(scope="module")
def reference_run(tmp_path_factory):
    """Timed single run of the shipped reference configuration."""
    config = ExperimentConfig.from_dict(
        load_json(CONFIG_DIR / "reference.json"))
    out = tmp_path_factory.mktemp("reference_run")
    start = time.perf_counter()
    report = run_experiment(config, out)
    elapsed = time.perf_counter() - start
    return config, report, out, elapsed


def test_criterion_01_metric_moments_match_brute_force():
    """Five metrics vs independently coded fsum oracles, <=1e-9 relative,
    1000 random tap arrays of length 8..10^4 plus random angular clusters,
    all inside 10 s."""
    rng = np.random.default_rng(1001)
    start = time.perf_counter()

    lengths = np.unique(np.concatenate([
        [8, 10_000],
        np.round(10 ** rng.uniform(math.log10(8), 4, 998)).astype(int)]))
    draws = rng.choice(lengths, size=1000, replace=True)
    draws[0], draws[-1] = 8, 10_000
    worst = 0.0
    for n in draws:
        taps = rng.normal(size=int(n)) + 1j * rng.normal(size=int(n))
        mag = np.abs(taps)

        k_t = time_kurtosis(taps)
        ref = oracles.kurtosis_oracle(mag)
        worst = max(worst, abs(k_t - ref) / abs(ref))

        k_f = freq_kurtosis(taps)
        ref = oracles.kurtosis_oracle(np.abs(np.fft.fft(taps)))
        worst = max(worst, abs(k_f - ref) / abs(ref))

        mean_ref, rms_ref = oracles.delay_moments_oracle(
            mag, np.arange(len(taps)) / 2.0)
        mean, rms = delay_moments(taps, 2.0)
        worst = max(worst, abs(mean - mean_ref) / abs(mean_ref))
        worst = max(worst, abs(rms - rms_ref) / abs(rms_ref))

    for _ in range(150):
        n_el = int(rng.integers(4, 12))
        n_az = int(rng.integers(4, 16))
        grid = flat_grid(n_el, n_az, step=float(rng.uniform(0.5, 5.0)))
        pas = PasMap(grid, rng.uniform(0.1, 10.0, (n_el, n_az)))
        r0, c0 = rng.integers(0, n_el - 2), rng.integers(0, n_az - 2)
        h = int(rng.integers(3, n_el - r0 + 1))
        w = int(rng.integers(3, n_az - c0 + 1))
        pixels = {(int(r0 + i), int(c0 + j))
                  for i in range(h) for j in range(w)}
        cluster = cluster_of(pixels, pas)
        pix = sorted(pixels)
        el = np.array([grid.angles_of(*p)[0] for p in pix])
        az = np.array([grid.angles_of(*p)[1] for p in pix])
        weights = np.array([pas.power[p] for p in pix])
        for mode in ("kurtosis", "covariance"):
            matrix = co_kurtosis(cluster, pas, mode=mode)
            m11, m12, m22 = oracles.angular_moments_oracle(az, el, weights,
                                                           mode)
            for got, ref in ((matrix.rho11, m11), (matrix.rho12, m12),
                             (matrix.rho22, m22)):
                scale = max(abs(ref), abs(m11), abs(m22))
                worst = max(worst, abs(got - ref) / scale)
            r_ref = oracles.eigen_ratio_oracle(m11, m12, m22)
            worst = max(worst, abs(eigen_ratio(matrix) - r_ref)
                        / max(abs(r_ref), 1e-30))

    elapsed = time.perf_counter() - start
    assert worst <= 1e-9, f"worst relative error {worst:.3e}"
    assert elapsed < 10.0, f"took {elapsed:.1f} s"


def test_criterion_02_gev_analytic_identities():
    """pdf(mu)=e^-1/sigma and cdf(mu)=e^-1 to 1e-12 at zero shape;
    density integrates to 1 +- 1e-6 for 50 random parameter sets; central
    finite differences of the cdf reproduce the pdf to 1e-6."""
    rng = np.random.default_rng(2002)
    for _ in range(10):
        mu = float(rng.uniform(-50, 50))
        sigma = float(rng.uniform(0.1, 20))
        p = GevParams(gamma=0.0, mu=mu, sigma=sigma)
        assert abs(gev_pdf(mu, p) - math.exp(-1) / sigma) \
            <= 1e-12 * (math.exp(-1) / sigma)
        assert abs(gev_cdf(mu, p) - math.exp(-1)) <= 1e-12

    for _ in range(50):
        p = GevParams(gamma=float(rng.uniform(-0.8, 0.8)),
                      mu=float(rng.uniform(-20, 20)),
                      sigma=float(rng.uniform(0.2, 15)))
        lo, hi = p.support()
        left, _ = integrate.quad(lambda x: gev_pdf(x, p), lo, p.mu, limit=300)
        right, _ = integrate.quad(lambda x: gev_pdf(x, p), p.mu, hi,
                                  limit=300)
        assert abs(left + right - 1.0) <= 1e-6, \
            f"integral {left + right} for {p}"

    for _ in range(20):
        p = GevParams(gamma=float(rng.uniform(-0.8, 0.8)),
                      mu=float(rng.uniform(-20, 20)),
                      sigma=float(rng.uniform(0.2, 15)))
        lo, hi = p.support()
        xs = rng.uniform(max(lo, p.mu - 2 * p.sigma),
                         min(hi, p.mu + 2 * p.sigma), 10)
        h = 1e-6 * p.sigma
        for x in xs:
            if x - h <= lo or x + h >= hi:
                continue
            density = gev_pdf(x, p)
            if density < 1e-9:
                continue
            fd = (gev_cdf(x + h, p) - gev_cdf(x - h, p)) / (2 * h)
            assert abs(fd - density) / density <= 1e-6


def test_criterion_03_gev_fit_recovery():
    """2000 seeded draws from shape -0.21, location 318.9, scale 53.5:
    location and scale back within 10% relative, shape within 0.15
    absolute, cdf_rmse < 0.05, all under 5 s."""
    start = time.perf_counter()
    x = gev_inverse_sample(-0.21, 318.9, 53.5, 2000, seed=30003)
    fit = gev_fit_mle(x)
    elapsed = time.perf_counter() - start
    assert abs(fit.mu - 318.9) / 318.9 <= 0.10, f"mu {fit.mu}"
    assert abs(fit.sigma - 53.5) / 53.5 <= 0.10, f"sigma {fit.sigma}"
    assert abs(fit.gamma - (-0.21)) <= 0.15, f"gamma {fit.gamma}"
    quality = cdf_rmse(x, fit)
    assert quality < 0.05, f"cdf_rmse {quality}"
    assert elapsed < 5.0, f"took {elapsed:.1f} s"


def test_criterion_04_scale_invariance_of_features_and_decisions():
    """Scaling a seeded tensor by 1e-3, 1, 1e3 moves no feature by more
    than 1e-9 relative and flips no ratio-test or network decision."""
    sim = small_sim(snr_db=60.0)
    seg = SegParams(min_pixels=2, marker_min_separation=1.0)
    metric = MetricConfig()

    train_rows = []
    for i in range(40):
        clusters, _, cir = simulate_realization(sim, 7, i)
        rows, _ = extract_realization(cir, clusters, seg, metric)
        train_rows.extend(rows)
    mlr_model = mlr_train(train_rows)
    ann_model = ann_train(ann_init(40), train_rows,
                          TrainSchedule(max_epochs=800))

    clusters, _, cir = simulate_realization(sim, 7, 40)
    base_rows, _ = extract_realization(cir, clusters, seg, metric)
    assert len(base_rows) >= 2
    base_mlr = [mlr_classify(mlr_model, [fv]).decision[0] for fv in base_rows]
    base_ann = [ann_classify(ann_model, [fv]).decision[0] for fv in base_rows]

    for c in (1e-3, 1.0, 1e3):
        scaled = CirTensor.dense(cir.grid, cir.sample_rate_ghz, cir.data * c)
        rows, _ = extract_realization(scaled, clusters, seg, metric)
        assert len(rows) == len(base_rows)
        for fv, ref in zip(rows, base_rows):
            np.testing.assert_allclose(fv.values(), ref.values(), rtol=1e-9,
                                       atol=0.0)
        assert [mlr_classify(mlr_model, [fv]).decision[0] for fv in rows] \
            == base_mlr
        assert [ann_classify(ann_model, [fv]).decision[0] for fv in rows] \
            == base_ann


def test_criterion_05_segmentation_recovers_planted_blobs():
    """100 randomized maps of K in 1..5 Gaussian blobs at least 20 dB
    above the floor and 3x the marker separation apart: segmentation finds
    exactly K clusters with every blob peak in its own cluster."""
    rng = np.random.default_rng(5005)
    params = SegParams(min_pixels=4, marker_min_separation=5.0)
    min_dist = 3.0 * params.marker_min_separation
    grid = flat_grid(60, 60, step=1.0)
    for trial in range(100):
        k = trial % 5 + 1
        centers = []
        while len(centers) < k:
            cand = (int(rng.integers(6, 54)), int(rng.integers(6, 54)))
            if all(math.hypot(cand[0] - e, cand[1] - a) > min_dist + 0.2
                   for e, a in centers):
                centers.append(cand)
        blobs = [(e, a, float(10 ** rng.uniform(2.0, 3.0)),
                  float(rng.uniform(1.2, 2.0))) for e, a in centers]
        pas = blob_map(grid, blobs, floor=1.0)
        found = segment(pas, params)
        assert len(found) == k, f"trial {trial}: {len(found)} != {k}"
        owners = set()
        for e, a in centers:
            owner = [c.id for c in found if (e, a) in c.pixels]
            assert len(owner) == 1, f"trial {trial}: peak ({e},{a}) unclaimed"
            owners.add(owner[0])
        assert len(owners) == k, f"trial {trial}: blobs share a cluster"


def test_criterion_06_network_gradients_and_training(monkeypatch):
    """Backpropagation vs central differences (eps 1e-5) below 1e-5
    relative on random 5-sample batches; default-schedule training loss is
    non-increasing at every optimizer iteration on the separable fixture
    and ends at 100% accuracy."""
    rng = np.random.default_rng(6006)
    for trial in range(3):
        weights = ann_init(600 + trial).weights()
        x = rng.normal(size=(5, 5))
        y = np.eye(2)[rng.integers(0, 2, size=5)]
        grads = _loss_and_grads(weights, x, y)[1]
        eps = 1e-5
        worst = 0.0
        for wi, w in enumerate(weights):
            it = np.nditer(w, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                bumped = [a.copy() for a in weights]
                bumped[wi][idx] += eps
                up = _loss_and_grads(tuple(bumped), x, y)[0]
                bumped[wi][idx] -= 2 * eps
                down = _loss_and_grads(tuple(bumped), x, y)[0]
                numeric = (up - down) / (2 * eps)
                analytic = grads[wi][idx]
                worst = max(worst, abs(analytic - numeric)
                            / max(abs(analytic), abs(numeric), 1e-6))
        assert worst < 1e-5, f"gradient mismatch {worst:.3e}"

    # record the loss at every iterate the optimizer ann_train runs accepts
    losses = []
    optimizer = classifiers._lbfgs

    def recording(*args, **kwargs):
        def callback(theta, loss):
            losses.append(loss)
        return optimizer(*args, callback=callback, **kwargs)

    monkeypatch.setattr(classifiers, "_lbfgs", recording)
    feats = separable_features(n_per_class=40)
    raw = np.array([f.values() for f in feats])
    x = (raw - raw.mean(axis=0)) / raw.std(axis=0)
    y = np.array([[1.0, 0.0] if f.label == "LOS" else [0.0, 1.0]
                  for f in feats])
    init = ann_init(0)
    model = ann_train(init, feats, TrainSchedule())
    assert losses, "the optimizer reported no iterations"
    prev = _loss_and_grads(init.weights(), x, y)[0]
    for iteration, loss in enumerate(losses):
        assert loss <= prev, f"loss rose at iteration {iteration}"
        prev = loss
    assert model.training["loss"] <= min(losses)
    decisions = [ann_classify(model, [f]).decision[0] for f in feats]
    wrong = sum(1 for d, f in zip(decisions, feats) if d != f.label)
    assert wrong == 0, f"{wrong} of {len(feats)} training points missed"


def test_criterion_07_ratio_test_worked_example():
    """Published eigen-ratio distribution pair at observation 0.95: the
    singleton log ratio is 1.69 +- 0.05, agrees with a direct inline
    density evaluation, and resolves to LOS."""
    los = GevParams(gamma=-1.363, mu=0.9579, sigma=0.0574)
    nlos = GevParams(gamma=-0.6214, mu=0.5588, sigma=0.2789)
    model = MlrModel({"r_p": GevPair(los, nlos)})
    fv = make_fv(r_p=0.95)
    verdict = mlr_classify(model, [fv], metrics=["r_p"])

    def direct_density(x, g, m, s):
        z = (x - m) / s
        t = (1.0 + g * z) ** (-1.0 / g)
        return (t ** (g + 1.0)) * math.exp(-t) / s

    direct = math.log(direct_density(0.95, los.gamma, los.mu, los.sigma)
                      / direct_density(0.95, nlos.gamma, nlos.mu, nlos.sigma))
    assert abs(verdict.score[0] - 1.69) <= 0.05, f"score {verdict.score[0]}"
    assert verdict.score[0] == pytest.approx(direct, rel=1e-9)
    assert verdict.decision[0] == "LOS"


def test_criterion_08_reference_campaign_statistics(reference_run):
    """Reference campaign: LOS clusters show higher median eigen-ratio and
    time kurtosis, NLOS higher median delay statistics; joint ratio-test
    errors <= 0.20; network errors <= 0.15 and no worse than the ratio
    test on at least one error type; full run under 10 minutes."""
    _, report, out, elapsed = reference_run
    assert elapsed < 600.0, f"took {elapsed:.0f} s"

    rows = [fv for _, fv in load_features(out / "features.csv")]
    los = [fv for fv in rows if fv.label == "LOS"]
    nlos = [fv for fv in rows if fv.label == "NLOS"]
    assert len(los) >= 50 and len(nlos) >= 50

    def median(group, name):
        return float(np.median([fv.metric(name) for fv in group]))

    assert median(los, "r_p") > median(nlos, "r_p")
    assert median(los, "k_t") > median(nlos, "k_t")
    assert median(nlos, "tau_mean_ns") > median(los, "tau_mean_ns")
    assert median(nlos, "tau_rms_ns") > median(los, "tau_rms_ns")

    joint = report.error_table["joint_mlr"]
    assert joint.type_i <= 0.20, f"joint type I {joint.type_i}"
    assert joint.type_ii <= 0.20, f"joint type II {joint.type_ii}"

    ann = report.error_table["ann"]
    assert ann.type_i <= 0.15, f"network type I {ann.type_i}"
    assert ann.type_ii <= 0.15, f"network type II {ann.type_ii}"
    assert ann.type_i <= joint.type_i or ann.type_ii <= joint.type_ii


def test_criterion_09_reports_are_byte_reproducible(reference_run, tmp_path):
    """A second run of the reference configuration writes a byte-identical
    report."""
    config, _, out, _ = reference_run
    run_experiment(config, tmp_path)
    assert (tmp_path / "report.json").read_bytes() \
        == (out / "report.json").read_bytes()


def test_reference_report_bytes_are_pinned(reference_run):
    """The reference report.json, byte for byte.  Not one of the criteria:
    a change that moves these bytes edits the digest and says why."""
    out = reference_run[2]
    assert hashlib.sha256((out / "report.json").read_bytes()).hexdigest() \
        == "c43d5b6b39377e9dec365b3a7f47d60fbf97ed7dee9c6984b7cc466edb7740c4"


def test_criterion_10_measured_protocol_averages_disjoint_splits(tmp_path):
    """100-row labelled table under a 30/20/10 bootstrap: ten disjoint
    splits are evaluated and the reported tables are their average."""
    csv_path = tmp_path / "features.csv"
    from nlosid.fileio import save_features
    save_features(csv_path, labelled_feature_rows(n_realizations=50, seed=9))
    assert len(load_features(csv_path)) == 100

    from nlosid.experiment import BootstrapSpec
    config = ExperimentConfig(
        mode="measured", features_csv=str(csv_path),
        bootstrap=BootstrapSpec(n_train=30, n_test=20, repeats=10),
        schedule=TrainSchedule(max_epochs=300), seed=42)
    report = run_experiment(config, tmp_path)

    assert report.counts == {"n_samples": 50, "feature_rows": 100,
                             "repeats": 10, "skipped_repeats": 0}
    assert len(report.diagnostics["per_repeat"]) == 10

    splits = bootstrap_split(50, 30, 20, 10, seed=42)
    assert len(splits) == 10
    for train, test in splits:
        assert len(np.intersect1d(train, test)) == 0
    signatures = {tuple(train.tolist()) for train, _ in splits}
    assert len(signatures) == 10

    # each repeat scores 20 LOS and 20 NLOS rows, so every averaged rate
    # is a multiple of 1 / (20 * 10)
    for entry in report.error_table.values():
        for value in (entry.type_i, entry.type_ii):
            assert 0.0 <= value <= 1.0
            assert abs(value * 200 - round(value * 200)) < 1e-9
