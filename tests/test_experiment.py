"""End-to-end protocol orchestration: simulated and measured campaigns."""

import json
from pathlib import Path

import numpy as np
import pytest

from nlosid import (AngularGrid, CirTensor, ConfigError, DataFormatError,
                    ExperimentConfig, MetricConfig, SegParams, TrainSchedule,
                    cmd_extract, cmd_simulate, extract_realization,
                    ingest_sweeps, inputs_from_manifest, run_experiment,
                    simulate_realization)
from nlosid.experiment import (ERROR_TABLE_ROWS, BootstrapSpec,
                               _training_seed)
from nlosid.fileio import (SimulationManifest, TensorManifest, Truth,
                           load_document, load_features, load_json,
                           save_document, save_features)
from nlosid.metrics import METRIC_NAMES

from conftest import flat_grid, grid_sweeps, labelled_feature_rows, small_sim


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        mode="simulate",
        sim=small_sim(snr_db=60.0),
        seg=SegParams(min_pixels=2, marker_min_separation=1.0),
        metric=MetricConfig(),
        schedule=TrainSchedule(max_epochs=300),
        n_realizations=45, n_train=30, n_test=15, seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("tiny_run")
    report = run_experiment(tiny_config(), out)
    return report, out


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ConfigError, match="unknown mode"):
        ExperimentConfig(mode="live")
    with pytest.raises(ConfigError, match="exceeds"):
        ExperimentConfig(n_realizations=10, n_train=8, n_test=3)
    with pytest.raises(ConfigError):
        BootstrapSpec(n_train=0)


def test_config_nested_round_trip():
    cfg = tiny_config(bootstrap=BootstrapSpec(5, 4, 3), seed=99)
    assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg
    with pytest.raises(ConfigError, match="unknown ExperimentConfig"):
        ExperimentConfig.from_dict({"mode": "simulate", "threads": 4})
    bad = cfg.to_dict()
    bad["bootstrap"]["jackknife"] = True
    with pytest.raises(ConfigError, match="unknown BootstrapSpec"):
        ExperimentConfig.from_dict(bad)


def test_reference_config_names_every_field_once():
    """The shipped yardstick round-trips exactly: it sets every field and
    no field the code does not read."""
    root = Path(__file__).resolve().parent.parent
    doc = load_json(root / "configs" / "reference.json")
    echoed = ExperimentConfig.from_dict(doc).to_dict()
    assert json.loads(json.dumps(echoed)) == doc


def test_training_seed_is_keyed():
    assert _training_seed(11, 0) == _training_seed(11, 0)
    assert _training_seed(11, 0) != _training_seed(11, 1)
    assert _training_seed(11, 0) != _training_seed(12, 0)


# ---------------------------------------------------------------------------
# per-realization extraction


def test_extract_realization_labels_and_diags():
    cfg = small_sim(snr_db=60.0)
    clusters, _, cir = simulate_realization(cfg, 7, 4)
    rows, diag = extract_realization(
        cir, clusters, SegParams(min_pixels=2, marker_min_separation=1.0),
        MetricConfig())
    assert diag["n_clusters"] >= 1
    assert diag["skipped_clusters"] >= 0
    assert diag["los_recovered"] in (True, False)
    labels = [fv.label for fv in rows]
    assert set(labels) <= {"LOS", "NLOS"}
    if diag["los_recovered"]:
        assert labels.count("LOS") == 1


def test_extract_realization_unlabelled_when_no_truth():
    cfg = small_sim(snr_db=60.0)
    _, _, cir = simulate_realization(cfg, 7, 4)
    rows, diag = extract_realization(
        cir, None, SegParams(min_pixels=2, marker_min_separation=1.0),
        MetricConfig())
    assert diag["los_recovered"] is None
    assert all(fv.label is None for fv in rows)


# ---------------------------------------------------------------------------
# simulated protocol


def test_report_structure(tiny_run):
    report, _ = tiny_run
    assert report["format"] == "report"
    assert report["mode"] == "simulate"
    assert set(report) == {"format", "mode", "config", "counts", "gev_table",
                           "error_table", "diagnostics", "curves"}
    assert set(report["error_table"]) == set(ERROR_TABLE_ROWS)
    for row in ERROR_TABLE_ROWS:
        entry = report["error_table"][row]
        assert 0.0 <= entry["type_i"] <= 1.0
        assert 0.0 <= entry["type_ii"] <= 1.0
    assert set(report["gev_table"]) == set(METRIC_NAMES)
    for name in METRIC_NAMES:
        for key in ("los", "nlos"):
            cell = report["gev_table"][name][key]
            assert set(cell) == {"gamma", "mu", "sigma", "cdf_rmse"}
            assert cell["sigma"] > 0
    counts = report["counts"]
    assert counts["n_realizations"] == 45
    assert counts["feature_rows"] >= counts["train_rows"] + counts["test_rows"]
    assert len(report["diagnostics"]["per_realization"]) == 45


def test_artifacts_written(tiny_run):
    report, out = tiny_run
    for name in ("report.json", "features.csv", "mlr_model.json",
                 "ann_model.json"):
        assert (out / name).exists()
    curve_files = report["curves"]["files"]
    assert len(curve_files) == 2 * len(METRIC_NAMES)
    for rel in curve_files:
        path = out / rel
        assert path.exists()
        header = path.read_text().splitlines()[0]
        assert header == "x,fitted_pdf,fitted_cdf,empirical_pdf,empirical_cdf"


def test_feature_rows_use_leading_realizations_for_training(tiny_run):
    report, out = tiny_run
    rows = load_features(out / "features.csv")
    train = [fv for i, fv in rows if i < 30]
    test = [fv for i, fv in rows if 30 <= i < 45]
    assert len(train) == report["counts"]["train_rows"]
    assert len(test) == report["counts"]["test_rows"]
    for label in ("LOS", "NLOS"):
        assert sum(1 for fv in train if fv.label == label) >= 20


def test_report_is_byte_reproducible(tiny_run, tmp_path):
    _, out = tiny_run
    run_experiment(tiny_config(), tmp_path)
    assert (tmp_path / "report.json").read_bytes() \
        == (out / "report.json").read_bytes()


# ---------------------------------------------------------------------------
# staged pipeline


def test_cmd_simulate_writes_manifest_and_files(tmp_path):
    cfg = tiny_config(n_realizations=3, n_train=1, n_test=1)
    manifest = cmd_simulate(cfg, tmp_path)
    doc = load_json(manifest)
    assert doc["format"] == "simulation"
    assert doc["n_realizations"] == 3
    assert doc["seed"] == 11
    assert "seed" not in doc["config"]
    assert len(doc["realizations"]) == 3
    for entry in doc["realizations"]:
        for key in ("cir", "pas", "truth"):
            assert (tmp_path / entry[key]).exists()
        assert (tmp_path / entry["cir"]).with_suffix(".bin").exists()

    inputs = inputs_from_manifest(manifest)
    assert [i for i, _, _ in inputs] == [0, 1, 2]
    assert all(t is not None for _, _, t in inputs)


def test_stored_documents_round_trip_byte_for_byte(tmp_path):
    """Each document simulate writes reads back through its Record and
    writes again as the same bytes."""
    manifest = cmd_simulate(tiny_config(n_realizations=2, n_train=1,
                                        n_test=1), tmp_path / "sim")
    again = tmp_path / "again.json"
    for name, cls in (("simulation.json", SimulationManifest),
                      ("real_0000.json", TensorManifest),
                      ("truth_0000.json", Truth)):
        path = manifest.parent / name
        save_document(again, load_document(path, cls))
        assert again.read_bytes() == path.read_bytes()


def test_inputs_from_manifest_rejects_other_documents(tmp_path):
    from nlosid.fileio import save_json
    path = tmp_path / "simulation.json"
    save_json(path, {"format": "report"})
    with pytest.raises(DataFormatError, match="expected a 'simulation'"):
        inputs_from_manifest(path)


def test_staged_chain_matches_in_memory_features(tmp_path):
    cfg = tiny_config(n_realizations=3, n_train=1, n_test=1)
    manifest = cmd_simulate(cfg, tmp_path)
    rows, log = cmd_extract(inputs_from_manifest(manifest), cfg.seg,
                            cfg.metric, out_csv=tmp_path / "features.csv")
    assert (tmp_path / "features.csv").exists()
    assert len(log["realizations"]) == 3

    expected = []
    for i in range(3):
        clusters, _, cir = simulate_realization(cfg.sim, cfg.seed, i)
        feats, _ = extract_realization(cir, clusters, cfg.seg, cfg.metric)
        expected.extend((i, fv) for fv in feats)

    # tensors pass through 32-bit storage, so values match only closely
    assert len(rows) == len(expected)
    for (ia, fa), (ib, fb) in zip(rows, expected):
        assert ia == ib and fa.label == fb.label
        np.testing.assert_allclose(fa.values(), fb.values(), rtol=1e-4)


# ---------------------------------------------------------------------------
# measured-sweep ingestion


def test_ingest_round_trips_synthetic_tensor(rng):
    grid = flat_grid(3, 4, step=2.0, az_start=0.0, el_start=0.0)
    taps = rng.normal(size=(3, 4, 16)) + 1j * rng.normal(size=(3, 4, 16))
    cir = CirTensor.dense(grid, 2.0, taps)
    # DFT bin m of 16 taps at 2 GHz lies at m * 2 / 16 GHz
    sweeps = grid_sweeps(grid, np.arange(16) / 8.0, np.fft.fft(taps))
    back = ingest_sweeps(sweeps, grid, window="none")
    assert back.sample_rate_ghz == pytest.approx(2.0, rel=1e-12)
    np.testing.assert_allclose(back.data, cir.data, rtol=1e-9, atol=1e-12)


def test_ingest_checks_the_frequency_axis(rng):
    grid = flat_grid(2, 3, step=2.0)
    f = 60.0 + 0.1 * np.arange(16)
    values = rng.normal(size=(2, 3, 16)) + 1j * rng.normal(size=(2, 3, 16))
    cir = ingest_sweeps(grid_sweeps(grid, f, values), grid)
    assert cir.sample_rate_ghz == pytest.approx(16 * 0.1, rel=1e-12)
    bumpy = f.copy()
    bumpy[7] += 0.03
    for freqs, fragment in ((f[:7], "at least 8 points"),
                            (f[::-1], "strictly increasing"),
                            (bumpy, "not uniformly spaced")):
        with pytest.raises(DataFormatError, match=fragment):
            ingest_sweeps(grid_sweeps(grid, freqs, values[..., :len(freqs)]),
                          grid)
    # one direction whose values, or axis, is shorter than the rest's
    for short in ((f, values[1, 2, :15]), (f[:15], values[1, 2, :15])):
        sweeps = grid_sweeps(grid, f, values)
        sweeps[(4.0, 2.0)] = short
        with pytest.raises(DataFormatError,
                           match=r"\(az=4, el=2\) has a different"):
            ingest_sweeps(sweeps, grid)


def test_ingest_rejects_bad_geometry(rng):
    grid = flat_grid(2, 2, step=2.0)
    freqs = np.arange(16) / 8.0
    vals = rng.normal(size=16) + 0j
    full = {}
    for i in range(2):
        for j in range(2):
            el, az = grid.angles_of(i, j)
            full[(az, el)] = (freqs, vals)

    off = dict(full)
    off[(1.3, 0.0)] = off.pop((2.0, 0.0))
    with pytest.raises(DataFormatError, match="not a grid point"):
        ingest_sweeps(off, grid)

    missing = dict(full)
    del missing[(2.0, 0.0)]
    with pytest.raises(DataFormatError, match="missing grid directions"):
        ingest_sweeps(missing, grid)

    skewed = dict(full)
    skewed[(2.0, 0.0)] = (freqs + 0.01, vals)
    with pytest.raises(DataFormatError, match="different\n?.*frequency axis|frequency axis"):
        ingest_sweeps(skewed, grid)


def test_ingest_on_a_full_circle_grid():
    grid = AngularGrid.from_ranges((-180.0, 180.0), (0.0, 5.0), 5.0, 5.0)
    freqs = np.arange(16) / 8.0
    sweeps = {}
    for i, j in np.ndindex(grid.shape):
        el, az = grid.angles_of(i, j)
        sweeps[(az, el)] = (freqs, np.full(16, 1.0 + i + j, dtype=complex))
    cir = ingest_sweeps(sweeps, grid)
    assert cir.data.shape[:2] == (2, 72)
    # the 180 degree sweep is the -180 column again, and is refused
    sweeps[(180.0, 5.0)] = (freqs, np.ones(16, dtype=complex))
    with pytest.raises(DataFormatError,
                       match=r"\(az=-180, el=5\) and \(az=180, el=5\)"):
        ingest_sweeps(sweeps, grid)


def test_ingest_lists_a_sample_of_missing_directions():
    grid = flat_grid(4, 6, step=2.0)
    el0, az0 = grid.angles_of(0, 0)
    sweeps = {(az0, el0): (np.arange(16) / 8.0, np.ones(16, dtype=complex))}
    with pytest.raises(DataFormatError, match="and 15 more"):
        ingest_sweeps(sweeps, grid)


# ---------------------------------------------------------------------------
# measured protocol


@pytest.fixture(scope="module")
def measured_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("measured") / "features.csv"
    save_features(path, labelled_feature_rows(n_realizations=50, seed=3))
    return path


def measured_config(csv_path) -> ExperimentConfig:
    return ExperimentConfig(
        mode="measured", features_csv=str(csv_path),
        bootstrap=BootstrapSpec(n_train=30, n_test=20, repeats=10),
        schedule=TrainSchedule(max_epochs=200), seed=21)


def test_measured_mode_bootstraps_over_samples(measured_csv, tmp_path):
    report = run_experiment(measured_config(measured_csv), tmp_path)
    assert report["mode"] == "measured"
    assert report["counts"] == {"n_samples": 50, "feature_rows": 100,
                                "repeats": 10}
    diags = report["diagnostics"]["per_repeat"]
    assert len(diags) == 10
    for d in diags:
        assert d["train_rows"] == 60 and d["test_rows"] == 40
    assert report["curves"]["files"] == []
    assert set(report["error_table"]) == set(ERROR_TABLE_ROWS)


def test_measured_mode_is_byte_reproducible(measured_csv, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_experiment(measured_config(measured_csv), a)
    run_experiment(measured_config(measured_csv), b)
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_measured_mode_requires_feature_table(tmp_path):
    cfg = ExperimentConfig(mode="measured")
    with pytest.raises(ConfigError, match="features_csv"):
        run_experiment(cfg, tmp_path)
