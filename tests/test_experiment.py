"""End-to-end protocol orchestration: simulated and measured campaigns."""

import json
import multiprocessing
import os
import shutil
import weakref
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from nlosid import (AngularGrid, AnnModel, CirTensor, ConfigError,
                    DataFormatError, DegenerateInputError, ExperimentConfig,
                    MetricConfig, MlrModel, SegParams, TrainSchedule,
                    cmd_extract, cmd_simulate, co_kurtosis, compute_pas,
                    delay_moments, eigen_ratio, extract_realization,
                    freq_kurtosis, ingest_sweeps, inputs_from_manifest,
                    label_clusters_with_truth, run_experiment, segment,
                    simulate_realization, time_kurtosis)
from nlosid import chansim, experiment
from nlosid.cli import main as cli_main
from nlosid.experiment import (ERROR_TABLE_ROWS, BootstrapSpec, Report,
                               _over_cpus, _training_seed)
from nlosid.fileio import (SimulationManifest, TensorManifest, Truth,
                           load_cir_tensor, load_document, load_features,
                           load_json, save_cir_tensor, save_document,
                           save_features, save_json)
from nlosid.metrics import METRIC_NAMES

from conftest import (flat_grid, grid_sweeps, labelled_feature_rows,
                      make_fv, small_sim)


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
    with pytest.raises(ConfigError, match="ExperimentConfig.mode must be one "
                                          "of 'simulate', 'measured', got "
                                          "'live'"):
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


def test_extract_realization_rows_equal_the_per_cluster_path():
    """One batched peak read per realization gives the same rows, bit for
    bit, as reading each peak pixel alone and calling the scalar metric
    functions, on 20 realizations of the reference configuration."""
    config = ExperimentConfig.from_dict(load_json(
        Path(__file__).resolve().parent.parent / "configs" / "reference.json"))
    for i in range(20):
        truth, _, cir = simulate_realization(config.sim, config.seed, i)
        rows, diag = extract_realization(cir, truth, config.seg,
                                         config.metric)
        pas = compute_pas(cir)
        found, _ = label_clusters_with_truth(segment(pas, config.seg), truth,
                                             pas.grid)
        want = []
        for c in found:
            peak = cir.pixels(*zip(c.peak_pixel))[0]
            try:
                values = (eigen_ratio(co_kurtosis(c, pas,
                                                  config.metric.r_p_mode)),
                          time_kurtosis(peak), freq_kurtosis(peak),
                          *delay_moments(peak, cir.sample_rate_ghz))
            except DegenerateInputError:
                continue
            want.append((np.array(values).tobytes(), c.truth))
        assert [(fv.values().tobytes(), fv.label) for fv in rows] == want
        assert diag["skipped_clusters"] == len(found) - len(want)


def test_extract_realization_unlabelled_when_no_truth():
    cfg = small_sim(snr_db=60.0)
    _, _, cir = simulate_realization(cfg, 7, 4)
    rows, diag = extract_realization(
        cir, None, SegParams(min_pixels=2, marker_min_separation=1.0),
        MetricConfig())
    assert diag["los_recovered"] is None
    assert all(fv.label is None for fv in rows)


def test_extract_drops_each_tensor_before_the_next_loads(tmp_path,
                                                        monkeypatch):
    """cmd_extract holds one tensor at a time: when it loads the next
    tensor, every tensor it loaded before is gone."""
    save_cir_tensor(simulate_realization(small_sim(snr_db=60.0), 7, 4)[2],
                    tmp_path / "t.json")
    refs, alive = [], []

    def load_tracked(path):
        alive.append(sum(ref() is not None for ref in refs))
        cir = load_cir_tensor(path)
        refs.append(weakref.ref(cir))
        return cir

    monkeypatch.setattr(experiment, "load_cir_tensor", load_tracked)
    _, log = cmd_extract([(index, tmp_path / "t.json", None)
                          for index in range(3)],
                         SegParams(min_pixels=2, marker_min_separation=1.0),
                         MetricConfig())
    assert [d["index"] for d in log["realizations"]] == [0, 1, 2]
    assert alive == [0, 0, 0] and len(refs) == 3


# ---------------------------------------------------------------------------
# simulated protocol


def test_report_structure(tiny_run):
    report, out = tiny_run
    doc = load_json(out / "report.json")
    assert doc["format"] == "report"
    assert report.mode == doc["mode"] == "simulate"
    assert set(doc) == {"format", "mode", "config", "counts", "gev_table",
                        "error_table", "diagnostics", "curves"}
    assert set(report.error_table) == set(ERROR_TABLE_ROWS)
    for row in ERROR_TABLE_ROWS:
        entry = report.error_table[row]
        assert 0.0 <= entry.type_i <= 1.0
        assert 0.0 <= entry.type_ii <= 1.0
    assert set(report.gev_table) == set(METRIC_NAMES)
    for name in METRIC_NAMES:
        for key in ("los", "nlos"):
            cell = doc["gev_table"][name][key]
            assert set(cell) == {"gamma", "mu", "sigma", "cdf_rmse"}
            assert cell["sigma"] > 0
    counts = report.counts
    assert counts["n_realizations"] == 45
    assert counts["feature_rows"] >= counts["train_rows"] + counts["test_rows"]
    assert len(report.diagnostics["per_realization"]) == 45


def test_artifacts_written(tiny_run):
    report, out = tiny_run
    for name in ("report.json", "features.csv", "mlr_model.json",
                 "ann_model.json"):
        assert (out / name).exists()
    curve_files = report.curves["files"]
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
    assert len(train) == report.counts["train_rows"]
    assert len(test) == report.counts["test_rows"]
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
    """Each document simulate and train write reads back through its class
    and writes again as the same bytes."""
    manifest = cmd_simulate(tiny_config(n_realizations=2, n_train=1,
                                        n_test=1), tmp_path / "sim")
    save_features(tmp_path / "f.csv", labelled_feature_rows())
    assert cli_main(["--out", str(tmp_path / "models"), "train",
                     "--features", str(tmp_path / "f.csv")]) == 0
    again = tmp_path / "again.json"
    for path, cls in ((manifest, SimulationManifest),
                      (manifest.parent / "real_0000.json", TensorManifest),
                      (manifest.parent / "truth_0000.json", Truth),
                      (tmp_path / "models" / "mlr_model.json", MlrModel),
                      (tmp_path / "models" / "ann_model.json", AnnModel)):
        save_document(again, load_document(path, cls))
        assert again.read_bytes() == path.read_bytes()


def mock_cpus(monkeypatch, n_cpus) -> None:
    """Give this process an affinity set of n_cpus CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))


def simulate_on_cpus(monkeypatch, n_cpus, config, out) -> int:
    """cmd_simulate on a process whose affinity set holds n_cpus CPUs.
    Returns the exit code its error, if any, maps to."""
    mock_cpus(monkeypatch, n_cpus)
    try:
        cmd_simulate(config, out)
    except DataFormatError:
        return 3
    return 0


def test_simulate_writes_the_same_files_on_one_two_and_three_cpus(
        tmp_path, monkeypatch):
    """Four realizations in blocks of one, two and three (the last block
    partial) give one tree: a manifest, binary, power map and truth file
    per realization, the simulation manifest, and no temporary file."""
    cfg = tiny_config(n_realizations=4, n_train=1, n_test=1)
    files = []
    for n_cpus in (1, 2, 3):
        out = tmp_path / f"cpus{n_cpus}"
        assert simulate_on_cpus(monkeypatch, n_cpus, cfg, out) == 0
        files.append(sorted((p.name, p.read_bytes()) for p in out.iterdir()))
    assert len(files[0]) == 4 * 4 + 1
    assert not any(name.endswith(".part") for name, _ in files[0])
    assert files[0] == files[1] == files[2]


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
def test_this_process_writes_the_first_realization_of_each_block(
        n_cpus, tmp_path, monkeypatch):
    """On k CPUs this process itself renders and writes realizations 0, k,
    2k, ...; a span traced in this process sees those calls, and the calls
    a forked worker makes never reach this process's list."""
    calls = []

    def spy(module, name, index_of):
        real = getattr(module, name)

        def wrapper(*args):
            calls.append((name, index_of(args)))
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    spy(chansim, "render_cir", lambda args: args[3])
    for name in ("save_cir_tensor", "save_pas_json"):
        spy(experiment, name, lambda args: int(Path(args[1]).stem[-4:]))
    spy(experiment, "save_truth", lambda args: int(Path(args[0]).stem[-4:]))
    cfg = tiny_config(n_realizations=5, n_train=1, n_test=1)
    assert simulate_on_cpus(monkeypatch, n_cpus, cfg, tmp_path) == 0
    assert calls == [(name, i) for i in range(0, 5, n_cpus)
                     for name in ("render_cir", "save_cir_tensor",
                                  "save_pas_json", "save_truth")]
    assert len(list(tmp_path.iterdir())) == 4 * 5 + 1


def test_a_failing_worker_share_exits_as_on_one_cpu(tmp_path, monkeypatch,
                                                     capsys):
    """Realization 1, a worker's share on two CPUs, has a tap beyond the
    complex64 range.  simulate exits 3 with the message it gives on one
    CPU, keeps realization 0's files only, writes no manifest and no
    temporary file, and leaves no worker running."""
    real = experiment.simulate_realization

    def simulate(sim, seed, i):
        clusters, labels, cir = real(sim, seed, i)
        if i == 1:
            along = cir.along.copy()
            along[0, 0] = 1e300
            cir = replace(cir, along=along)
        return clusters, labels, cir

    monkeypatch.setattr(experiment, "simulate_realization", simulate)
    config = tmp_path / "c.json"
    save_json(config, tiny_config(n_realizations=2, n_train=1,
                                  n_test=1).to_dict())
    out = tmp_path / "out"
    seen = []
    for n_cpus in (1, 2):
        mock_cpus(monkeypatch, n_cpus)
        assert cli_main(["--config", str(config), "--out", str(out),
                         "simulate"]) == 3
        seen.append((capsys.readouterr().err,
                     sorted((p.name, p.read_bytes()) for p in out.iterdir())))
        assert multiprocessing.active_children() == []
        shutil.rmtree(out)
    assert "real_0001.json: taps exceed the complex64 range" in seen[0][0]
    assert [name for name, _ in seen[0][1]] == [
        "pas_0000.json", "real_0000.bin", "real_0000.json", "truth_0000.json"]
    assert seen[0] == seen[1]


@pytest.mark.parametrize("snr_db", [60.0, -3000.0])
def test_simulate_leaves_no_worker_running(snr_db, tmp_path, monkeypatch):
    """The pool's workers are gone when simulate returns, and when a tensor
    whose noise overflows complex64 (snr_db -3000) is refused."""
    cfg = tiny_config(sim=small_sim(snr_db=snr_db), n_realizations=2,
                      n_train=1, n_test=1)
    code = simulate_on_cpus(monkeypatch, 2, cfg, tmp_path)
    assert code == (0 if snr_db > 0 else 3)
    assert multiprocessing.active_children() == []
    if code:
        assert list(tmp_path.iterdir()) == []


def test_a_split_inside_a_pool_worker_runs_serially(monkeypatch):
    """A pool worker is daemonic and may start no pool of its own, so an
    _over_cpus nested in another runs its share in the worker itself and
    gives the serial result."""
    mock_cpus(monkeypatch, 2)
    shares = [[-1, -2, -3], [-4, -5], [-6], []]
    assert _over_cpus(partial(_over_cpus, abs), shares) \
        == [[abs(x) for x in share] for share in shares]
    assert multiprocessing.active_children() == []


def test_a_failing_realization_exits_simulate_as_on_one_cpu(
        tmp_path, monkeypatch, capsys):
    """Realizations 2 and 3 of 6 are refused.  On 1, 2 and 3 CPUs simulate
    exits 3 with realization 2's message, the lowest index, writes no
    manifest and no temporary file, leaves no worker running, and every
    realization it wrote has all four of its files."""
    real = experiment.simulate_realization

    def simulate(sim, seed, i):
        if i in (2, 3):
            raise DataFormatError(f"realization {i} refused")
        return real(sim, seed, i)

    monkeypatch.setattr(experiment, "simulate_realization", simulate)
    config = tmp_path / "c.json"
    save_json(config, tiny_config(n_realizations=6, n_train=3,
                                  n_test=3).to_dict())
    for n_cpus in (1, 2, 3):
        mock_cpus(monkeypatch, n_cpus)
        out = tmp_path / f"cpus{n_cpus}"
        assert cli_main(["--config", str(config), "--out", str(out),
                         "simulate"]) == 3
        assert capsys.readouterr().err == "error: realization 2 refused\n"
        assert multiprocessing.active_children() == []
        names = sorted(p.name for p in out.iterdir())
        written = sorted({Path(name).stem[-4:] for name in names})
        assert {"0000", "0001"} <= set(written)
        assert names == sorted(f"{stem}_{i}.{ext}" for i in written
                               for stem, ext in (("pas", "json"),
                                                 ("real", "bin"),
                                                 ("real", "json"),
                                                 ("truth", "json")))


@pytest.mark.parametrize("n_cpus", [1, 2])
def test_simulate_builds_no_entry_ahead_of_writing(n_cpus, tmp_path,
                                                   monkeypatch, capsys):
    """Every tensor of a 10,000-realization campaign is refused (snr_db
    -3000 overflows complex64).  simulate exits 3 having built at most one
    manifest entry in this process, the one of the realization it failed
    on, and leaves no file and no worker."""
    built = []
    real = experiment.Realization

    def spy(*args):
        built.append(args[0])
        return real(*args)

    monkeypatch.setattr(experiment, "Realization", spy)
    config = tmp_path / "c.json"
    save_json(config, tiny_config(sim=small_sim(snr_db=-3000.0),
                                  n_realizations=10_000).to_dict())
    out = tmp_path / "out"
    mock_cpus(monkeypatch, n_cpus)
    assert cli_main(["--config", str(config), "--out", str(out),
                     "simulate"]) == 3
    assert "complex64" in capsys.readouterr().err
    assert multiprocessing.active_children() == []
    assert list(out.iterdir()) == []
    assert built in ([], [0])


def test_experiment_writes_the_same_files_on_one_two_and_three_cpus(
        tmp_path, monkeypatch):
    """43 realizations in shares of 43, 22 + 21 and 15 + 14 + 14 give one
    tree: report.json, features.csv, both model files and the curves, byte
    for byte, with no worker left running."""
    cfg = tiny_config(n_realizations=43, n_train=28, n_test=15)
    trees = []
    for n_cpus in (1, 2, 3):
        mock_cpus(monkeypatch, n_cpus)
        out = tmp_path / f"cpus{n_cpus}"
        run_experiment(cfg, out)
        assert multiprocessing.active_children() == []
        trees.append(sorted((p.relative_to(out).as_posix(), p.read_bytes())
                            for p in out.rglob("*") if p.is_file()))
    assert [name for name, _ in trees[0]] == sorted(
        ["report.json", "features.csv", "mlr_model.json", "ann_model.json"]
        + [f"curves/{m}_{c}.csv" for m in METRIC_NAMES for c in ("los", "nlos")])
    assert trees[0] == trees[1] == trees[2]


@pytest.mark.parametrize("n_cpus", [1, 2, 3])
def test_this_process_extracts_every_kth_realization(n_cpus, tmp_path,
                                                     monkeypatch):
    """On k CPUs run_experiment itself extracts realizations 0, k, 2k, ...
    and no others; the calls a forked worker makes never reach this
    process's list, though the report counts every realization."""
    calls = []
    real = experiment.extract_realization

    def spy(cir, *args):
        calls.append(cir.realization)
        return real(cir, *args)

    monkeypatch.setattr(experiment, "extract_realization", spy)
    mock_cpus(monkeypatch, n_cpus)
    report = run_experiment(tiny_config(n_realizations=43, n_train=28,
                                        n_test=15), tmp_path)
    assert calls == list(range(0, 43, n_cpus))
    assert [d["index"] for d in report.diagnostics["per_realization"]] \
        == list(range(43))


def test_a_failing_realization_raises_as_on_one_cpu(tmp_path, monkeypatch):
    """Realizations 2 and 3 raise.  On 1, 2 and 3 CPUs run_experiment
    raises realization 2's error, the lowest index, whether this process's
    share holds it (2 CPUs) or a worker's does while this process fails
    on 3 (3 CPUs); it writes no report and leaves no worker running."""
    real = experiment.simulate_realization

    def simulate(sim, seed, i):
        if i in (2, 3):
            raise DataFormatError(f"realization {i} refused")
        return real(sim, seed, i)

    monkeypatch.setattr(experiment, "simulate_realization", simulate)
    for n_cpus in (1, 2, 3):
        mock_cpus(monkeypatch, n_cpus)
        out = tmp_path / f"cpus{n_cpus}"
        with pytest.raises(DataFormatError, match="^realization 2 refused$"):
            run_experiment(tiny_config(n_realizations=6, n_train=3,
                                       n_test=3), out)
        assert multiprocessing.active_children() == []
        assert list(out.iterdir()) == []


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
                            (bumpy, "not uniformly spaced")):
        with pytest.raises(DataFormatError, match=fragment):
            ingest_sweeps(grid_sweeps(grid, freqs, values[..., :len(freqs)]),
                          grid)
    # rows in any order give the same tensor
    table = grid_sweeps(grid, f, values)
    back = ingest_sweeps(table[::-1], grid)
    assert np.array_equal(back.pixels([1], [2]), cir.pixels([1], [2]))
    # one direction swept at a point fewer than the rest
    short = table[~((table[:, 0] == 4.0) & (table[:, 1] == 2.0)
                    & (table[:, 2] == f[-1]))]
    with pytest.raises(DataFormatError,
                       match=r"\(az=4, el=2\) has a different"):
        ingest_sweeps(short, grid)


def test_ingest_rejects_bad_geometry(rng):
    grid = flat_grid(2, 2, step=2.0)
    freqs = np.arange(16) / 8.0
    vals = rng.normal(size=16) + 0j
    full = grid_sweeps(grid, freqs, np.broadcast_to(vals, (2, 2, 16)))
    # rows 16..31 sweep (az=2, el=0)
    off = full.copy()
    off[16:32, 0] = 1.3
    with pytest.raises(DataFormatError, match="not a grid point"):
        ingest_sweeps(off, grid)

    missing = np.delete(full, np.s_[16:32], axis=0)
    with pytest.raises(DataFormatError, match="missing grid directions"):
        ingest_sweeps(missing, grid)

    skewed = full.copy()
    skewed[16:32, 2] += 0.01
    with pytest.raises(DataFormatError, match="different\n?.*frequency axis|frequency axis"):
        ingest_sweeps(skewed, grid)


def test_ingest_on_a_full_circle_grid():
    grid = AngularGrid.from_ranges((-180.0, 180.0), (0.0, 5.0), 5.0, 5.0)
    freqs = np.arange(16) / 8.0
    sweeps = []
    for i, j in np.ndindex(grid.shape):
        el, az = grid.angles_of(i, j)
        sweeps += [(az, el, f, 1.0 + i + j, 0.0) for f in freqs]
    cir = ingest_sweeps(sweeps, grid)
    assert cir.data.shape[:2] == (2, 72)
    # the 180 degree sweep is the -180 column again, and is refused
    sweeps += [(180.0, 5.0, f, 1.0, 0.0) for f in freqs]
    with pytest.raises(DataFormatError,
                       match=r"\(az=-180, el=5\) and \(az=180, el=5\)"):
        ingest_sweeps(sweeps, grid)


def test_ingest_lists_a_sample_of_missing_directions():
    grid = flat_grid(4, 6, step=2.0)
    el0, az0 = grid.angles_of(0, 0)
    sweeps = [(az0, el0, f, 1.0, 0.0) for f in np.arange(16) / 8.0]
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
    assert report.mode == "measured"
    assert report.counts == {"n_samples": 50, "feature_rows": 100,
                             "repeats": 10, "skipped_repeats": 0}
    diags = report.diagnostics["per_repeat"]
    assert len(diags) == 10
    for d in diags:
        assert d["train_rows"] == 60 and d["test_rows"] == 40
    assert report.curves["files"] == []
    assert set(report.error_table) == set(ERROR_TABLE_ROWS)


def test_measured_mode_is_byte_reproducible(measured_csv, tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    run_experiment(measured_config(measured_csv), a)
    run_experiment(measured_config(measured_csv), b)
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()


def test_loaded_reports_save_their_own_bytes(tiny_run, measured_csv,
                                            tmp_path):
    """report.json read back as a Report and saved again is the same file,
    in both modes, and the simulated one equals what run_experiment
    returned."""
    report, simulated = tiny_run
    assert load_document(simulated / "report.json", Report) == report
    measured = tmp_path / "measured"
    run_experiment(measured_config(measured_csv), measured)
    for out in (simulated, measured):
        save_document(tmp_path / "again.json",
                      load_document(out / "report.json", Report))
        assert (tmp_path / "again.json").read_bytes() \
            == (out / "report.json").read_bytes()


def test_measured_mode_requires_feature_table(tmp_path):
    cfg = ExperimentConfig(mode="measured")
    with pytest.raises(ConfigError, match="features_csv"):
        run_experiment(cfg, tmp_path)


def skewed_table(path, n_rows: int, los_every: int) -> None:
    """n_rows labelled rows, one per sample, every los_every-th one LOS."""
    rng = np.random.default_rng(4)
    rows = []
    for k in range(n_rows):
        los = k % los_every == 0
        rows.append((k, make_fv(
            r_p=float(rng.uniform(0.6, 1.0) if los else rng.uniform(0.1, 0.7)),
            k_t=float(rng.normal(300.0 if los else 180.0, 40.0)),
            k_f=float(rng.normal(2.7, 0.2)),
            tau_mean_ns=float(abs(rng.normal(2.0 if los else 6.0, 1.0))),
            tau_rms_ns=float(abs(rng.normal(4.5, 0.8))),
            label="LOS" if los else "NLOS")))
    save_features(path, rows)


def skewed_config(csv_path, n_test: int) -> ExperimentConfig:
    return ExperimentConfig(
        mode="measured", features_csv=str(csv_path), seed=1,
        bootstrap=BootstrapSpec(n_train=150, n_test=n_test, repeats=10),
        schedule=TrainSchedule(max_epochs=200))


def test_measured_mode_skips_repeats_whose_test_side_lacks_a_class(tmp_path):
    """A 25% LOS table with 5-sample test sides: some draws hold no LOS
    row.  Those repeats are skipped and counted; the rest are averaged."""
    skewed_table(tmp_path / "f.csv", 200, 4)
    report = run_experiment(skewed_config(tmp_path / "f.csv", 5),
                            tmp_path / "out")
    diags = report.diagnostics["per_repeat"]
    skipped = [d for d in diags if "skipped" in d]
    assert report.counts["skipped_repeats"] == len(skipped) == 2
    assert [d["repeat"] for d in diags] == list(range(10))
    for d in skipped:
        assert d["skipped"] == "evaluation set has no LOS row"
        assert d["test_rows"] == 5 and "network_training" not in d
    assert all("network_training" in d for d in diags if d not in skipped)
    assert set(report.error_table) == set(ERROR_TABLE_ROWS)


def test_measured_mode_with_every_repeat_skipped_exits_4(tmp_path, capsys):
    skewed_table(tmp_path / "f.csv", 200, 4)
    (tmp_path / "c.json").write_text(json.dumps(
        skewed_config(tmp_path / "f.csv", 1).to_dict()), encoding="utf-8")
    code = cli_main(["--config", str(tmp_path / "c.json"),
                     "--out", str(tmp_path / "out"), "experiment"])
    assert code == 4
    assert "all 10 bootstrap repeats were skipped" in capsys.readouterr().err
