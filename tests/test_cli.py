"""Command-line entry points and exit-code contract."""

import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nlosid
from nlosid import ann_init
from nlosid.cli import main
from nlosid.fileio import (load_cir_tensor, load_features, load_json,
                           save_features, save_json)
from nlosid.metrics import METRIC_NAMES

from conftest import (flat_grid, json_with_raw_numbers, labelled_feature_rows,
                      small_sim)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared config and data files plus one simulated campaign."""
    ws = tmp_path_factory.mktemp("cli")

    config = {
        "mode": "simulate",
        "sim": small_sim(snr_db=60.0).to_dict(),
        "seg": {"foreground_threshold_db": 10.0, "min_pixels": 2,
                "marker_min_separation": 1.0, "smoothing_radius": 1},
        "schedule": {"max_epochs": 200, "loss_tolerance": 1e-8},
        "n_realizations": 3, "n_train": 1, "n_test": 1, "seed": 11,
    }
    cfg_path = ws / "config.json"
    save_json(cfg_path, config)

    features_csv = ws / "features.csv"
    save_features(features_csv, labelled_feature_rows(n_realizations=40,
                                                      seed=3))

    sim_dir = ws / "sim"
    assert main(["--config", str(cfg_path), "--out", str(sim_dir),
                 "simulate"]) == 0
    return ws, cfg_path, features_csv, sim_dir


def test_simulate_writes_campaign(workspace):
    _, _, _, sim_dir = workspace
    manifest = load_json(sim_dir / "simulation.json")
    assert manifest["format"] == "simulation"
    assert len(manifest["realizations"]) == 3
    for entry in manifest["realizations"]:
        assert (sim_dir / entry["cir"]).exists()
        assert (sim_dir / entry["pas"]).exists()
        assert (sim_dir / entry["truth"]).exists()


def test_extract_from_manifest(workspace, tmp_path, capsys):
    _, cfg_path, _, sim_dir = workspace
    out = tmp_path / "features.csv"
    code = main(["--config", str(cfg_path), "--out", str(out), "extract",
                 "--manifest", str(sim_dir / "simulation.json")])
    assert code == 0
    assert "feature rows" in capsys.readouterr().out
    rows = load_features(out)
    assert len(rows) >= 3
    assert {r for r, _ in rows} <= {0, 1, 2}
    log = load_json(str(out) + ".log.json")
    assert log["format"] == "extraction_log"
    assert len(log["realizations"]) == 3


def test_extract_from_bare_tensors_is_unlabelled(workspace, tmp_path):
    _, cfg_path, _, sim_dir = workspace
    out = tmp_path / "features.csv"
    code = main(["--config", str(cfg_path), "--out", str(out), "extract",
                 "--cir", str(sim_dir / "real_0000.json")])
    assert code == 0
    assert all(fv.label is None for _, fv in load_features(out))


def test_fit_writes_distribution_table(workspace, tmp_path):
    _, _, features_csv, _ = workspace
    out = tmp_path / "gev_table.json"
    assert main(["--out", str(out), "fit",
                 "--features", str(features_csv)]) == 0
    doc = load_json(out)
    assert doc["format"] == "gev_table"
    assert set(doc["metrics"]) == set(METRIC_NAMES)
    for entry in doc["metrics"].values():
        assert set(entry) == {"los", "nlos"}


def test_fit_needs_enough_samples_per_class(tmp_path, capsys):
    csv = tmp_path / "thin.csv"
    save_features(csv, labelled_feature_rows(n_realizations=10, seed=1))
    assert main(["fit", "--features", str(csv)]) == 4
    assert "need at least 20" in capsys.readouterr().err


def test_train_then_classify_round_trip(workspace, tmp_path, capsys):
    _, cfg_path, features_csv, _ = workspace
    model_dir = tmp_path / "models"
    assert main(["--config", str(cfg_path), "--out", str(model_dir),
                 "train", "--features", str(features_csv)]) == 0
    assert (model_dir / "mlr_model.json").exists()
    assert (model_dir / "ann_model.json").exists()
    capsys.readouterr()

    verdicts = tmp_path / "verdicts.csv"
    code = main(["--out", str(verdicts), "classify",
                 "--features", str(features_csv),
                 "--model", str(model_dir / "mlr_model.json")])
    assert code == 0
    out = capsys.readouterr().out
    assert "type I" in out and "type II" in out
    lines = verdicts.read_text().splitlines()
    assert lines[0] == "realization,decision,score,support_violation,truth"
    assert len(lines) == 81

    code = main(["--out", str(tmp_path / "v2.csv"), "classify",
                 "--features", str(features_csv),
                 "--model", str(model_dir / "mlr_model.json"),
                 "--metrics", "r_p,k_t"])
    assert code == 0

    code = main(["--out", str(tmp_path / "v3.csv"), "classify",
                 "--features", str(features_csv),
                 "--model", str(model_dir / "ann_model.json")])
    assert code == 0


@pytest.mark.parametrize("kind", ["mlr", "ann"])
def test_classify_one_class_table_gives_no_error_rates(kind, workspace,
                                                       tmp_path, capsys):
    """A labelled table of one class is classified (exit 0); the message
    says why there are no error rates."""
    _, cfg_path, features_csv, _ = workspace
    models = tmp_path / "models"
    assert main(["--config", str(cfg_path), "--out", str(models), "train",
                 "--features", str(features_csv)]) == 0
    los_only = tmp_path / "los.csv"
    los_only.write_text(_FEATURES + "2,3,4,5,6,LOS\n")
    capsys.readouterr()
    verdicts = tmp_path / "verdicts.csv"
    assert main(["--out", str(verdicts), "classify", "--features",
                 str(los_only), "--model",
                 str(models / f"{kind}_model.json")]) == 0
    out = capsys.readouterr().out
    assert "error rates need both classes" in out and "type I" not in out
    assert len(verdicts.read_text().splitlines()) == 3


def test_classify_rejects_metric_subset_for_network(workspace, tmp_path,
                                                    capsys):
    _, cfg_path, features_csv, _ = workspace
    model_dir = tmp_path / "models"
    main(["--config", str(cfg_path), "--out", str(model_dir), "train",
          "--features", str(features_csv)])
    capsys.readouterr()
    code = main(["classify", "--features", str(features_csv),
                 "--model", str(model_dir / "ann_model.json"),
                 "--metrics", "r_p"])
    assert code == 2
    assert "ratio test" in capsys.readouterr().err


def test_classify_rejects_other_documents(workspace, tmp_path, capsys):
    _, _, features_csv, sim_dir = workspace
    code = main(["classify", "--features", str(features_csv),
                 "--model", str(sim_dir / "simulation.json")])
    assert code == 3
    assert ("simulation.json: expected a 'mlr_model' or 'ann_model' "
            "document, found 'simulation'") in capsys.readouterr().err


def test_experiment_and_report_commands(workspace, tmp_path, capsys):
    ws, _, features_csv, _ = workspace
    cfg = {
        "mode": "measured",
        "features_csv": str(features_csv),
        "bootstrap": {"n_train": 24, "n_test": 12, "repeats": 3},
        "schedule": {"max_epochs": 150, "loss_tolerance": 1e-8},
        "seed": 5,
    }
    cfg_path = tmp_path / "measured.json"
    save_json(cfg_path, cfg)
    out_dir = tmp_path / "run"
    assert main(["--config", str(cfg_path), "--out", str(out_dir),
                 "experiment"]) == 0
    assert "error rates" in capsys.readouterr().out
    assert (out_dir / "report.json").exists()

    assert main(["report", str(out_dir / "report.json")]) == 0
    text = capsys.readouterr().out
    assert "mode: measured" in text
    assert "joint_mlr" in text and "ann" in text

    assert main(["report", str(cfg_path)]) == 3


def test_seed_flag_overrides_config(workspace, tmp_path):
    _, cfg_path, _, _ = workspace
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["--config", str(cfg_path), "--out", str(a), "--seed", "77",
                 "simulate"]) == 0
    assert main(["--config", str(cfg_path), "--out", str(b), "--seed", "77",
                 "simulate"]) == 0
    assert load_json(a / "simulation.json")["seed"] == 77
    assert (a / "real_0000.bin").read_bytes() \
        == (b / "real_0000.bin").read_bytes()


def test_simulation_manifest_records_the_seed(workspace, tmp_path):
    _, cfg_path, _, sim_dir = workspace
    assert load_json(sim_dir / "simulation.json")["seed"] == 11
    assert main(["--config", str(cfg_path), "--out", str(tmp_path), "--seed",
                 "5", "simulate"]) == 0
    doc = load_json(tmp_path / "simulation.json")
    assert doc["seed"] == 5
    assert "seed" not in doc["config"]


# ---------------------------------------------------------------------------
# sweep ingestion


def write_sweep_files(tmp_path, rng):
    grid = flat_grid(3, 4, step=2.0)
    taps = rng.normal(size=(3, 4, 16)) + 1j * rng.normal(size=(3, 4, 16))
    # DFT bin m of 16 taps at 2 GHz lies at m * 2 / 16 GHz
    freqs, values = np.arange(16) / 8.0, np.fft.fft(taps)
    header = "az_deg,el_deg,freq_ghz,re,im"
    rows_a, rows_b = [], []
    for i in range(3):
        for j in range(4):
            el, az = grid.angles_of(i, j)
            target = rows_a if (i * 4 + j) % 2 == 0 else rows_b
            for f, v in zip(freqs, values[i, j]):
                target.append(",".join(repr(float(x)) for x in
                                       (az, el, f, v.real, v.imag)))
    a = tmp_path / "sweep_a.csv"
    b = tmp_path / "sweep_b.csv"
    a.write_text("\n".join([header] + rows_a) + "\n")
    b.write_text("\n".join([header] + rows_b) + "\n")
    return a, b, taps


def test_ingest_builds_tensor_from_sweeps(tmp_path, rng):
    a, b, taps = write_sweep_files(tmp_path, rng)
    out = tmp_path / "tensor.json"
    code = main(["--out", str(out), "ingest", str(a), str(b),
                 "--az", "0:6:2", "--el", "0:4:2", "--window", "none"])
    assert code == 0
    cir = load_cir_tensor(out)
    assert cir.data.shape == (3, 4, 16)
    np.testing.assert_allclose(cir.data, taps, rtol=1e-5, atol=1e-6)


def test_ingest_rejects_duplicate_directions(tmp_path, rng, capsys):
    a, b, _ = write_sweep_files(tmp_path, rng)
    code = main(["ingest", str(a), str(a),
                 "--az", "0:6:2", "--el", "0:4:2"])
    assert code == 3
    assert "sweep rows (az=0, el=0) and (az=0, el=0) are one grid " \
        "direction at 0 GHz" in capsys.readouterr().err


def test_ingest_refuses_taps_beyond_complex64(tmp_path, capsys):
    """A sweep value whose taps do not fit the float32 pairs of the tensor
    file exits 3 before either half of the tensor is written."""
    rows = ["az_deg,el_deg,freq_ghz,re,im"]
    for az in (0.0, 2.0):
        for el in (0.0, 2.0):
            for k in range(8):
                re = 1e300 if (az, el, k) == (0.0, 0.0, 3) else 1.0
                rows.append(f"{az},{el},{60.0 + 0.25 * k},{re},0.0")
    sweep = tmp_path / "sweep.csv"
    sweep.write_text("\n".join(rows) + "\n")
    out = tmp_path / "tensor.json"
    assert main(["--out", str(out), "ingest", str(sweep),
                 "--az", "0:2:2", "--el", "0:2:2"]) == 3
    assert "complex64" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "tensor.bin").exists()


def test_ingest_validates_axes(tmp_path, rng, capsys):
    a, b, _ = write_sweep_files(tmp_path, rng)
    assert main(["ingest", str(a), "--az", "0:6", "--el", "0:4:2"]) == 2
    assert "start:stop:step" in capsys.readouterr().err
    assert main(["ingest", str(a), "--az", "0:5:2", "--el", "0:4:2"]) == 2
    assert "whole number" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# cold start: no command loads scipy, and only simulate and experiment
# load multiprocessing


# A fresh process that puts a finder in front of every import of one
# top-level package (scipy unless named), imports nlosid.cli, runs each
# command line through main and prints the exit codes and the modules of
# that package it was asked for.  "refuse" makes each such import fail;
# "record" lets it load.
_GUARDED_CLI = """
import json, sys
sys.path.insert(0, sys.argv[1])
mode, commands, guarded = sys.argv[2], json.loads(sys.argv[3]), sys.argv[4]
seen = []

class Guard:
    def find_spec(self, name, path=None, target=None):
        if name == guarded or name.startswith(guarded + "."):
            seen.append(name)
            if mode == "refuse":
                raise ModuleNotFoundError(f"{name} refused", name=name)
        return None

sys.meta_path.insert(0, Guard())
from nlosid.cli import main
imported = list(seen)
codes = [main(argv) for argv in commands]
print(json.dumps({"imported": imported, "codes": codes, "seen": seen}))
"""


def run_guarded(mode: str, commands, guarded: str = "scipy") -> dict:
    src = Path(nlosid.__file__).resolve().parent.parent
    argv = json.dumps([[str(a) for a in cmd] for cmd in commands])
    done = subprocess.run([sys.executable, "-c", _GUARDED_CLI, str(src), mode,
                           argv, guarded], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_fitted_models_run_without_scipy(tmp_path, rng):
    """Importing nlosid and every command but report need numpy alone: a
    process that refuses scipy fits, trains, simulates, extracts, ingests,
    classifies with either model kind and runs an experiment.  Of these,
    only simulate and experiment need multiprocessing: a process that
    refuses it imports nlosid and runs extract, ingest, classify and
    report."""
    config = {"mode": "simulate", "sim": small_sim(snr_db=60.0).to_dict(),
              "seg": {"min_pixels": 2, "marker_min_separation": 1.0},
              "n_realizations": 6, "n_train": 3, "n_test": 3, "seed": 11}
    cfg = tmp_path / "config.json"
    save_json(cfg, config)
    campaign = tmp_path / "campaign.json"
    save_json(campaign, {**config, "schedule": {"max_epochs": 50},
                         "n_realizations": 35, "n_train": 30, "n_test": 5})
    train_csv = tmp_path / "train.csv"
    save_features(train_csv, labelled_feature_rows(n_realizations=40))
    models = tmp_path / "models"
    sim, features = tmp_path / "sim", tmp_path / "features.csv"
    a, b, _ = write_sweep_files(tmp_path, rng)
    fitting = [
        ["--out", tmp_path / "gev_table.json", "fit", "--features", train_csv],
        ["--out", models, "train", "--features", train_csv],
        ["--config", campaign, "--out", tmp_path / "run", "experiment"]]
    simulate = ["--config", cfg, "--out", sim, "simulate"]
    others = [
        ["--config", cfg, "--out", features, "extract",
         "--manifest", sim / "simulation.json"],
        ["--out", tmp_path / "tensor.json", "ingest", a, b,
         "--az", "0:6:2", "--el", "0:4:2"],
        *(["--out", tmp_path / f"{kind}.csv", "classify",
           "--features", features, "--model", models / f"{kind}_model.json"]
          for kind in ("mlr", "ann"))]
    result = run_guarded("refuse", [*fitting, simulate, *others])
    assert result == {"imported": [], "codes": [0] * 8, "seen": []}
    assert len(load_features(features)) >= 6
    assert load_json(tmp_path / "run" / "report.json")["diagnostics"][
        "network_training"]["iterations"] >= 1
    report = tmp_path / "report.json"
    save_json(report, _REPORT_DOC)
    result = run_guarded("refuse", [*others, ["report", report]],
                         "multiprocessing")
    assert result == {"imported": [], "codes": [0] * 5, "seen": []}


def test_simulate_imports_multiprocessing(tmp_path):
    """The multiprocessing guard above is not vacuous: it sees simulate load
    multiprocessing, and only once simulate has started."""
    cfg = tmp_path / "config.json"
    save_json(cfg, {"sim": small_sim().to_dict(), "n_realizations": 2,
                    "n_train": 1, "n_test": 1})
    result = run_guarded("record", [["--config", cfg, "--out", tmp_path / "s",
                                     "simulate"]], "multiprocessing")
    assert result["imported"] == [] and result["codes"] == [0]
    assert "multiprocessing" in result["seen"]


def test_experiment_imports_multiprocessing(tmp_path):
    """experiment, which extracts realizations in a pool as simulate writes
    them, loads multiprocessing too, and only once it has started."""
    cfg = tmp_path / "config.json"
    save_json(cfg, {"sim": small_sim(snr_db=60.0).to_dict(),
                    "seg": {"min_pixels": 2, "marker_min_separation": 1.0},
                    "schedule": {"max_epochs": 50},
                    "n_realizations": 35, "n_train": 30, "n_test": 5})
    result = run_guarded("record", [["--config", cfg, "--out", tmp_path / "e",
                                     "experiment"]], "multiprocessing")
    assert result["imported"] == [] and result["codes"] == [0]
    assert "multiprocessing" in result["seen"]


def test_the_scipy_guard_refuses_scipy():
    """The scipy guard above is not vacuous: scipy is installed here, and
    the child that refuses it fails an explicit import of scipy.optimize
    after running its commands."""
    assert importlib.util.find_spec("scipy.optimize") is not None
    src = Path(nlosid.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-c", _GUARDED_CLI + "import scipy.optimize\n",
         str(src), "refuse", "[]", "scipy"], capture_output=True, text=True,
        timeout=60)
    assert done.returncode == 1
    assert json.loads(done.stdout) == {"imported": [], "codes": [],
                                       "seen": []}
    assert done.stderr.rstrip().endswith(
        "ModuleNotFoundError: scipy refused"), done.stderr


# ---------------------------------------------------------------------------
# exit codes


_GRID = {"az_start_deg": 0.0, "az_step_deg": 1.0, "n_az": "x",
         "el_start_deg": 0.0, "el_step_deg": 1.0, "n_el": 2}
_GEV = {"gamma": 0.0, "mu": 0.0, "sigma": 1.0}
_FEATURES = ",".join(METRIC_NAMES) + ",label\n1,2,3,4,5,LOS\n"
# 40 LOS and 40 NLOS rows, enough to train on
_LABELLED = ",".join(METRIC_NAMES) + ",label\n" + "".join(
    ",".join(map(repr, fv.values().tolist())) + f",{fv.label}\n"
    for _, fv in labelled_feature_rows(n_realizations=40))


def _labelled_with(r_p: str) -> str:
    """_LABELLED with the first row's r_p field replaced."""
    header, first, rest = _LABELLED.split("\n", 2)
    return "\n".join([header, r_p + first[first.index(","):], rest])


_EXPERIMENT = ["--config", "c.json", "experiment"]
_EXTRACT = ["extract", "--cir", "t.json"]
# a 1x1-pixel, 16-tap tensor manifest and its data file
_TENSOR = {"format": "cir_tensor", "dtype": "c64le",
           "grid": {**_GRID, "n_az": 1, "n_el": 1}, "sample_rate_ghz": 2.0,
           "n_taps": 16, "data_file": "t.bin"}
_TENSOR_FILES = {"t.json": _TENSOR, "t.bin": bytes(16 * 8)}
_CLASSIFY = ["classify", "--features", "f.csv", "--model", "m.json"]
_SIMULATE = ["--config", "c.json", "simulate"]
# 8-point sweeps of a 2x2 grid, the (0, 0) direction's first row repeated
_SWEEP_REPEATED_ROW = "\n".join(
    ["az_deg,el_deg,freq_ghz,re,im", "0,0,60.0,1,0"]
    + [f"{az},{el},{60.0 + 0.25 * k},1,0"
       for az in (0, 2) for el in (0, 2) for k in range(8)]) + "\n"


_INGEST = ["ingest", "x.csv", "--az", "0:2:2", "--el", "0:2:2"]


def _sweep_band(start: float, step: float) -> str:
    """8-point sweeps of the 2x2 grid of _INGEST at start + k step GHz."""
    return "\n".join(["az_deg,el_deg,freq_ghz,re,im"]
                     + [f"{az},{el},{start + k * step!r},1,0"
                        for az in (0, 2) for el in (0, 2)
                        for k in range(8)]) + "\n"
_EXTRACT_MANIFEST = ["extract", "--manifest", "s.json"]
_REPORT = ["report", "r.json"]
# a minimal valid report: the default config, empty tables
_REPORT_DOC = {"format": "report", "mode": "simulate", "config": {},
               "counts": {}, "gev_table": {}, "error_table": {},
               "diagnostics": {}, "curves": {}}


def _truth_files(**centre):
    """A one-cluster truth file, its manifest and tensor."""
    cluster = {"kind": "LOS", "center_az_deg": 0.0, "center_el_deg": 0.0,
               "base_delay_ns": 1.0, "rays": [], **centre}
    return {**_TENSOR_FILES,
            "s.json": {"format": "simulation", "realizations": [
                {"index": 0, "cir": "t.json", "truth": "u.json"}]},
            "u.json": {"format": "truth", "clusters": [cluster]}}


def _small_run(**sections):
    """A 4-realization config on the small grid, with sections merged in."""
    config = {"sim": small_sim().to_dict(), "n_realizations": 4,
              "n_train": 2, "n_test": 2}
    for name, fields in sections.items():
        config[name] = {**config.get(name, {}), **fields}
    return {"c.json": config}


def _report_files(**changes):
    """The minimal report with fields replaced, or dropped where None."""
    doc = {**_REPORT_DOC, **changes}
    return {"r.json": {k: v for k, v in doc.items() if v is not None}}


def _mlr_files(tables):
    return {"m.json": {"format": "mlr_model", "tables": tables},
            "f.csv": _FEATURES}


def _ann_files(**changes):
    return {"m.json": {"format": "ann_model", **ann_init(0).to_dict(),
                       **changes},
            "f.csv": _FEATURES}


# files to write (JSON documents, or raw text or bytes), the arguments, the
# exit code, and a fragment the error line must carry
MALFORMED_INPUTS = {
    "seg_field_type": ({"c.json": {"seg": {"min_pixels": "2"}}},
                       _EXPERIMENT, 2, "SegParams"),
    "sim_not_object": ({"c.json": {"sim": 5}}, _EXPERIMENT, 2, "SimConfig"),
    "schedule_null": ({"c.json": {"schedule": {"max_epochs": None}}},
                      _EXPERIMENT, 2, "TrainSchedule"),
    "sim_range_type": ({"c.json": {"sim": {"az_range_deg": ["a", 1]}}},
                       _EXPERIMENT, 2, "SimConfig"),
    "manifest_entry_without_cir": (
        {"s.json": {"format": "simulation", "realizations": [{"index": 0}]}},
        ["extract", "--manifest", "s.json"], 3, "'cir'"),
    "manifest_index_not_int": (
        {"s.json": {"format": "simulation",
                    "realizations": [{"index": "x", "cir": "t.json"}]}},
        ["extract", "--manifest", "s.json"], 3,
        "s.json: Realization.index must be an integer"),
    "tensor_grid_type": (
        {"t.json": {"format": "cir_tensor", "dtype": "c64le", "grid": _GRID,
                    "sample_rate_ghz": 2.0, "n_taps": 16,
                    "data_file": "t.bin"}},
        _EXTRACT, 3, "AngularGrid.n_az must be an integer"),
    "top_level_list": ({"c.json": [1, 2]}, _EXPERIMENT, 3, "top level"),
    "mlr_gamma_type": (
        {"m.json": {"format": "mlr_model", "tables": {
            "r_p": {"los": {**_GEV, "gamma": "a"}, "nlos": _GEV}}},
         "f.csv": _FEATURES},
        ["classify", "--features", "f.csv", "--model", "m.json"], 3,
        "m.json: GevParams.gamma must be a real number, got 'a'"),
    "missing_config": ({}, ["--config", "nope.json", "experiment"], 3,
                       "nope.json"),
    "seed_not_int": ({"c.json": {"seed": "x"}}, _EXPERIMENT, 2,
                     "ExperimentConfig.seed"),
    "seed_bool": ({"c.json": {"sim": {"seed": True}}}, _EXPERIMENT, 2,
                  "unknown SimConfig fields"),
    "realizations_not_int": (
        {"c.json": {"n_realizations": 3.5, "n_train": 1, "n_test": 1}},
        _EXPERIMENT, 2, "n_realizations"),
    "negative_seed": ({}, ["--seed", "-1", "simulate"], 2, "non-negative"),
    "max_epochs_not_int": ({"c.json": {"schedule": {"max_epochs": 10.5}}},
                           _EXPERIMENT, 2, "TrainSchedule.max_epochs"),
    "features_csv_not_str": (
        {"c.json": {"mode": "measured", "features_csv": 5}}, _EXPERIMENT, 2,
        "features_csv"),
    "truth_clusters_not_list": (
        {**_TENSOR_FILES,
         "s.json": {"format": "simulation", "realizations": [
             {"index": 0, "cir": "t.json", "truth": "u.json"}]},
         "u.json": {"format": "truth", "clusters": 5}},
        ["extract", "--manifest", "s.json"], 3,
        "u.json: Truth.clusters must be a list"),
    "truth_kind_unknown": (
        {**_TENSOR_FILES,
         "s.json": {"format": "simulation", "realizations": [
             {"index": 0, "cir": "t.json", "truth": "u.json"}]},
         "u.json": {"format": "truth", "clusters": [
             {"kind": "X", "center_az_deg": 0.0, "center_el_deg": 0.0,
              "base_delay_ns": 1.0, "rays": []}]}},
        ["extract", "--manifest", "s.json"], 3,
        "u.json: RayCluster.kind must be one of 'LOS', 'NLOS', got 'X'"),
    "tensor_no_azimuths": (
        {"t.json": {**_TENSOR, "grid": {**_TENSOR["grid"], "n_az": 0}}},
        _EXTRACT, 3, "t.json: AngularGrid.n_az must be positive, got 0"),
    "tensor_negative_rate": (
        {**_TENSOR_FILES, "t.json": {**_TENSOR, "sample_rate_ghz": -1.0}},
        _EXTRACT, 3, "sample rate must be positive"),
    "tensor_azimuths_overflow": (
        {"t.json": json_with_raw_numbers(
            {**_TENSOR, "grid": {**_TENSOR["grid"], "n_az": "@inf"}})},
        _EXTRACT, 3, "AngularGrid.n_az must be an integer"),
    "tensor_rate_overflow": (
        {**_TENSOR_FILES, "t.json": {**_TENSOR, "sample_rate_ghz": 10 ** 399}},
        _EXTRACT, 3, "t.json: TensorManifest.sample_rate_ghz must be finite, "
        "got an integer too large for a float"),
    "sim_range_overflow": (
        {"c.json": json_with_raw_numbers(
            {"sim": {"az_range_deg": [0, "@inf"]}})},
        ["--config", "c.json", "simulate"], 2, "SimConfig"),
    "sim_seed_removed": ({"c.json": {"sim": {"seed": 0}}}, _EXPERIMENT, 2,
                         "unknown SimConfig fields"),
    "gate_taps_removed": ({"c.json": {"metric": {"gate_taps": False}}},
                          _EXPERIMENT, 2, "unknown MetricConfig fields"),
    "learning_rate_removed": (
        {"c.json": {"schedule": {"learning_rate": 0.05}}}, _EXPERIMENT, 2,
        "unknown TrainSchedule fields"),
    "snr_overflow": ({"c.json": {"sim": {"snr_db": -3100}}},
                     ["--config", "c.json", "simulate"], 2, "snr_db"),
    "aggregation_removed": (
        {"c.json": {"metric": {"aggregation": "peak"}}}, _EXPERIMENT, 2,
        "unknown MetricConfig fields"),
    "config_not_utf8": ({"c.json": b"\xff\xfe{}"}, _EXPERIMENT, 3, "c.json"),
    "tensor_step_nan": (
        {**_TENSOR_FILES, "t.json": {
            **_TENSOR, "grid": {**_TENSOR["grid"], "az_step_deg": math.nan}}},
        _EXTRACT, 3, "t.json: AngularGrid.az_step_deg must be finite, got nan"),
    "tensor_step_huge": (
        {**_TENSOR_FILES, "t.json": {
            **_TENSOR, "grid": {**_TENSOR["grid"], "az_step_deg": 1e308}}},
        _EXTRACT, 3, "steps in (0, 360]"),
    "sim_step_nan": ({"c.json": {"sim": {"step_deg": math.nan}}},
                     ["--config", "c.json", "simulate"], 2,
                     "SimConfig.step_deg must be finite, got nan"),
    "ingest_axis_infinite": (
        {}, ["ingest", "x.csv", "--az", "0:inf:2", "--el", "0:4:2"], 2,
        "--az values must be finite"),
    "ingest_az_step_count_overflows": (
        {}, ["ingest", "x.csv", "--az", "0:2:1e-320", "--el", "0:4:2"], 2,
        "azimuth range (0.0, 2.0) spans inf steps of 1e-320 degrees; the "
        "count must be finite"),
    "ingest_el_step_count_overflows": (
        {}, ["ingest", "x.csv", "--az", "0:2:2", "--el=0:1:1e-320"], 2,
        "elevation range (0.0, 1.0) spans inf steps of 1e-320 degrees"),
    "ingest_el_span_over_step_overflows": (
        {}, ["ingest", "x.csv", "--az", "0:2:2", "--el=0:1e300:1e-300"], 2,
        "elevation range (0.0, 1e+300) spans inf steps"),
    "sim_azimuth_past_one_turn": (
        {"c.json": {"sim": {"az_range_deg": [-180, 185]}}},
        ["--config", "c.json", "simulate"], 2, "under one turn"),
    "ingest_azimuth_past_one_turn": (
        {}, ["ingest", "x.csv", "--az=-180:185:5", "--el", "0:4:2"], 2,
        "under one turn"),
    "tensor_azimuth_past_one_turn": (
        {**_TENSOR_FILES, "t.json": {**_TENSOR, "grid": {
            **_TENSOR["grid"], "n_az": 74, "az_step_deg": 5.0}}},
        _EXTRACT, 3, "under one turn"),
    "mlr_sigma_negative": (
        _mlr_files({"r_p": {"los": {**_GEV, "sigma": -1.0}, "nlos": _GEV}}),
        _CLASSIFY, 3, "GevParams.sigma must be positive, got -1.0"),
    "mlr_metric_unknown": (
        _mlr_files({"x": {"los": _GEV, "nlos": _GEV}}), _CLASSIFY, 3,
        "unknown metrics in model"),
    "mlr_tables_empty": (_mlr_files({}), _CLASSIFY, 3,
                         "model carries no metrics"),
    "mlr_gamma_nan_string": (
        _mlr_files({"r_p": {"los": {**_GEV, "gamma": "nan"}, "nlos": _GEV}}),
        _CLASSIFY, 3, "GevParams.gamma must be a real number"),
    "ann_iw_shape": (_ann_files(iw=[[0.0] * 4] * 10), _CLASSIFY, 3,
                     "iw has shape (10, 4)"),
    "ann_b1_scalar": (_ann_files(b1=0.5), _CLASSIFY, 3,
                      "b1 has shape ()"),
    "ann_weights_non_finite": (
        _ann_files(b3=["nan", "inf"]), _CLASSIFY, 3,
        "m.json: AnnModel.b3 must be an array of real numbers, got 'nan'"),
    "ann_unknown_array": (_ann_files(lw99=[1]), _CLASSIFY, 3,
                          "m.json: unknown AnnModel fields: ['lw99']"),
    "ann_feature_scale_zero": (
        _ann_files(feature_scales=[1.0, 1.0, 0.0, 1.0, 1.0]), _CLASSIFY, 3,
        "m.json: AnnModel.feature_scales must be positive, got 0.0"),
    "ann_output_not_finite": (
        # the features 2 and 5 standardized to inf, weighted 1 and -1
        _ann_files(iw=[[0.0, 1.0, 0.0, 0.0, -1.0]] * 10,
                   feature_scales=[1.0, 1e-308, 1.0, 1.0, 1e-308]),
        _CLASSIFY, 4,
        "m.json: network output is not finite"),
    "mlr_metric_missing": (
        _mlr_files({"r_p": {"los": _GEV, "nlos": _GEV}}), _CLASSIFY, 3,
        "m.json: model has no tables for"),
    "mlr_metrics_empty": (
        _mlr_files({name: {"los": _GEV, "nlos": _GEV}
                    for name in METRIC_NAMES}),
        _CLASSIFY + ["--metrics", ""], 2, "error: metric subset is empty"),
    "ann_metrics_empty": (
        _ann_files(), _CLASSIFY + ["--metrics", ""], 2,
        "error: --metrics only applies to the ratio test"),
    "truth_field_names_file": (
        {**_TENSOR_FILES,
         "s.json": {"format": "simulation", "realizations": [
             {"index": 0, "cir": "t.json", "truth": "u.json"}]},
         "u.json": {"format": "truth", "clusters": [
             {"kind": "LOS", "center_az_deg": "x", "center_el_deg": 0.0,
              "base_delay_ns": 1.0, "rays": []}]}},
        ["extract", "--manifest", "s.json"], 3,
        "u.json: RayCluster.center_az_deg must be a real number"),
    "tensor_grid_names_file": (
        {**_TENSOR_FILES, "t.json": {
            **_TENSOR, "grid": {**_TENSOR["grid"], "n_az": 1.5}}},
        _EXTRACT, 3, "t.json: AngularGrid.n_az must be an integer"),
    "mlr_error_names_file": (
        _mlr_files({"r_p": {"los": {**_GEV, "sigma": -1.0}, "nlos": _GEV}}),
        _CLASSIFY, 3, "m.json: GevParams.sigma must be positive"),
    "sim_los_present_not_bool": (
        {"c.json": {"sim": {"los_present": "no"}}}, _EXPERIMENT, 2,
        "SimConfig.los_present must be a boolean"),
    "sim_snr_not_number": ({"c.json": {"sim": {"snr_db": "x"}}},
                           _EXPERIMENT, 2,
                           "SimConfig.snr_db must be a real number"),
    "tensor_taps_fraction": (
        {**_TENSOR_FILES, "t.json": {**_TENSOR, "n_taps": 16.9}}, _EXTRACT,
        3, "t.json: TensorManifest.n_taps must be an integer"),
    "tensor_taps_string": (
        {**_TENSOR_FILES, "t.json": {**_TENSOR, "n_taps": "16"}}, _EXTRACT,
        3, "t.json: TensorManifest.n_taps must be an integer"),
    "manifest_index_fraction": (
        {**_TENSOR_FILES, "s.json": {"format": "simulation", "realizations": [
            {"index": 2.7, "cir": "t.json"}]}},
        ["extract", "--manifest", "s.json"], 3,
        "s.json: Realization.index must be an integer"),
    "tensor_data_file_empty": (
        {**_TENSOR_FILES, "t.json": {**_TENSOR, "data_file": ""}}, _EXTRACT,
        3, "t.json: data_file must be a bare file name"),
    "tensor_data_file_in_subdirectory": (
        {**_TENSOR_FILES, "t.json": {**_TENSOR, "data_file": "d/t.bin"}},
        _EXTRACT, 3, "t.json: data_file must be a bare file name"),
    "tensor_rate_infinite": (
        {**_TENSOR_FILES, "t.json": {**_TENSOR, "sample_rate_ghz": math.inf}},
        _EXTRACT, 3,
        "t.json: TensorManifest.sample_rate_ghz must be finite, got inf"),
    "tensor_rate_nan": (
        {**_TENSOR_FILES, "t.json": {**_TENSOR, "sample_rate_ghz": math.nan}},
        _EXTRACT, 3,
        "t.json: TensorManifest.sample_rate_ghz must be finite, got nan"),
    "sim_rate_nan": ({"c.json": {"sim": {"sample_rate_ghz": math.nan}}},
                     _SIMULATE, 2,
                     "SimConfig.sample_rate_ghz must be finite, got nan"),
    "sim_rate_infinite": ({"c.json": {"sim": {"sample_rate_ghz": math.inf}}},
                          _SIMULATE, 2,
                          "SimConfig.sample_rate_ghz must be finite, got inf"),
    "sim_range_strings": (
        {"c.json": {"sim": {"az_range_deg": ["-60", "60"]}}}, _SIMULATE, 2,
        "SimConfig.az_range_deg must be a [start, stop] pair of real"),
    "sim_range_bool": (
        {"c.json": {"sim": {"el_range_deg": [True, 46]}}}, _SIMULATE, 2,
        "SimConfig.el_range_deg must be a [start, stop] pair of real"),
    "ingest_frequency_repeated": (
        {"x.csv": _SWEEP_REPEATED_ROW},
        ["ingest", "x.csv", "--az", "0:2:2", "--el", "0:2:2"], 3,
        "sweep rows (az=0, el=0) and (az=0, el=0) are one grid direction at "
        "60 GHz"),
    "ingest_band_of_subnormal_width": (
        {"x.csv": _sweep_band(0.0, 5e-324)}, _INGEST, 3,
        "frequency axis 0 to 3.45846e-323 GHz in 8 points: sample rate must "
        "be positive and finite, with a finite tap spacing 1 / rate, got "
        "4e-323"),
    "ingest_band_rate_overflow": (
        {"x.csv": _sweep_band(-1e308, 2.5e307)}, _INGEST, 3,
        "frequency axis -1e+308 to 7.5e+307 GHz in 8 points: sample rate "
        "must be positive and finite, with a finite tap spacing 1 / rate, "
        "got inf"),
    "tensor_rate_subnormal": (
        {**_TENSOR_FILES, "t.json": {**_TENSOR, "sample_rate_ghz": 1e-320}},
        _EXTRACT, 3, "t.json: TensorManifest.sample_rate_ghz: sample rate "
        "must be positive and finite, with a finite tap spacing 1 / rate, "
        "got 1e-320"),
    "ingest_azimuth_nan": (
        {"x.csv": _SWEEP_REPEATED_ROW.replace("\n0,0,60.0,", "\nnan,0,60.0,",
                                              1)},
        _INGEST, 3, "x.csv: line 2 (byte 29): not a finite number: 'nan'"),
    "ingest_elevation_infinite": (
        {"x.csv": _SWEEP_REPEATED_ROW.replace("\n2,2,60.5,", "\n2,Infinity,"
                                              "60.5,", 1)},
        _INGEST, 3, "x.csv: line 29 (byte 393): not a finite number: "
                    "'Infinity'"),
    "truth_centre_nan": (
        _truth_files(center_az_deg=math.nan), _EXTRACT_MANIFEST, 3,
        "u.json: RayCluster.center_az_deg must be finite, got nan"),
    "truth_centre_infinite": (
        _truth_files(center_el_deg=math.inf), _EXTRACT_MANIFEST, 3,
        "u.json: RayCluster.center_el_deg must be finite, got inf"),
    "sim_nlos_mean_nan": ({"c.json": {"sim": {"n_nlos_mean": math.nan}}},
                          _SIMULATE, 2,
                          "SimConfig.n_nlos_mean must be finite, got nan"),
    "sim_beamwidth_nan": ({"c.json": {"sim": {"hpbw_el_deg": math.nan}}},
                          _SIMULATE, 2,
                          "SimConfig.hpbw_el_deg must be finite, got nan"),
    "sim_decay_nan": ({"c.json": {"sim": {"decay_ns": math.nan}}}, _SIMULATE,
                      2, "SimConfig.decay_ns must be finite, got nan"),
    "sim_jitter_nan": ({"c.json": {"sim": {"angular_jitter_deg": math.nan}}},
                       _SIMULATE, 2, "SimConfig.angular_jitter_deg must be "
                                     "finite, got nan"),
    "seg_threshold_nan": (
        {"c.json": {"seg": {"foreground_threshold_db": math.nan}}},
        _EXPERIMENT, 2,
        "SegParams.foreground_threshold_db must be finite, got nan"),
    "seg_separation_nan": (
        {"c.json": {"seg": {"marker_min_separation": math.nan}}},
        _EXPERIMENT, 2,
        "SegParams.marker_min_separation must be finite, got nan"),
    "schedule_tolerance_nan": (
        {"c.json": {"schedule": {"loss_tolerance": math.nan}}}, _EXPERIMENT,
        2, "TrainSchedule.loss_tolerance must be finite, got nan"),
    "mlr_tables_list": (_mlr_files([]), _CLASSIFY, 3,
                        "m.json: MlrModel.tables must be an object, got list"),
    "mlr_entry_number": (_mlr_files({"r_p": 5}), _CLASSIFY, 3,
                         "m.json: GevPair must be an object, got int"),
    "mlr_entry_without_nlos": (
        _mlr_files({"r_p": {"los": _GEV}}), _CLASSIFY, 3,
        "m.json: bad GevPair: GevPair.__init__() missing 1 required "
        "positional argument: 'nlos'"),
    "sim_nlos_mean_infinite": (
        {"c.json": {"sim": {"n_nlos_mean": math.inf}}}, _SIMULATE, 2,
        "SimConfig.n_nlos_mean must be finite, got inf"),
    "sim_nlos_mean_past_poisson_limit": (
        {"c.json": {"sim": {"n_nlos_mean": 1e19}}}, _SIMULATE, 2,
        "SimConfig.n_nlos_mean must be at least 1 and at most the grid's "
        "2016 beam directions, got 1e+19"),
    **{f"sim_{name}_infinite": (
        {"c.json": {"sim": {name: math.inf}}}, _SIMULATE, 2,
        f"SimConfig.{name} must be finite, got inf")
       for name in ("hpbw_az_deg", "hpbw_el_deg", "decay_ns",
                    "ray_gap_mean_ns", "angular_jitter_deg")},
    "sim_el_range_too_large": (
        {"c.json": {"sim": {"el_range_deg": [-30, 1e308]}}}, _SIMULATE, 2,
        "SimConfig.el_range_deg at step_deg 5.0 is too large"),
    "sim_n_taps_too_large": (
        {"c.json": {"sim": {"n_taps": 2 ** 70}}}, _SIMULATE, 2,
        "SimConfig.n_taps is too large"),
    "report_gev_entry_number": (
        _report_files(gev_table={"r_p": 5}), _REPORT, 3,
        "r.json: FitPair must be an object, got int"),
    "report_counts_list": (_report_files(counts=[1]), _REPORT, 3,
                           "r.json: Report.counts must be an object, got [1]"),
    "report_type_i_string": (
        _report_files(error_table={"ann": {"type_i": "0.1", "type_ii": 0.0}}),
        _REPORT, 3,
        "r.json: ErrorRates.type_i must be a real number, got '0.1'"),
    "report_without_error_table": (
        _report_files(error_table=None), _REPORT, 3,
        "r.json: bad Report: Report.__init__() missing 1 required "
        "positional argument: 'error_table'"),
    "report_mode_mismatch": (
        _report_files(mode="measured"), _REPORT, 3,
        "r.json: Report.mode 'measured' differs from config.mode 'simulate'"),
    "report_unknown_metric": (
        _report_files(gev_table={"bogus": {
            side: {"gamma": 0.0, "mu": 0.0, "sigma": 1.0, "cdf_rmse": 0.0}
            for side in ("los", "nlos")}}), _REPORT, 3,
        "r.json: Report.gev_table has unknown rows ['bogus']"),
    "report_unknown_rule": (
        _report_files(error_table={"bogus": {"type_i": 0.1, "type_ii": 0.0}}),
        _REPORT, 3, "r.json: Report.error_table has unknown rows ['bogus']"),
    "sim_nlos_mean_past_the_grid": (
        _small_run(sim={"n_nlos_mean": 326}), _SIMULATE, 2,
        "SimConfig.n_nlos_mean must be at least 1 and at most the grid's "
        "325 beam directions, got 326"),
    "seg_threshold_infinite": (
        _small_run(seg={"foreground_threshold_db": math.inf}), _EXPERIMENT,
        2, "SegParams.foreground_threshold_db must be finite, got inf"),
    "seg_separation_infinite": (
        _small_run(seg={"marker_min_separation": math.inf}), _EXPERIMENT, 2,
        "SegParams.marker_min_separation must be finite, got inf"),
    "schedule_tolerance_infinite": (
        {"c.json": {"mode": "measured", "features_csv": "f.csv",
                    "schedule": {"loss_tolerance": math.inf},
                    "bootstrap": {"n_train": 60, "n_test": 20, "repeats": 1}},
         "f.csv": _LABELLED}, _EXPERIMENT, 2,
        "TrainSchedule.loss_tolerance must be finite, got inf"),
    "ann_weights_numeric_strings": (
        _ann_files(b3=["0.1", "-0.2"]), _CLASSIFY, 3,
        "m.json: AnnModel.b3 must be an array of real numbers, got '0.1'"),
    "ann_weights_nan": (
        _ann_files(b3=[math.nan, 0.0]), _CLASSIFY, 3,
        "m.json: AnnModel.b3 must be finite, got nan"),
    "report_type_i_nan": (
        _report_files(error_table={"ann": {"type_i": math.nan,
                                           "type_ii": 0.0}}), _REPORT, 3,
        "r.json: ErrorRates.type_i must be finite, got nan"),
    "truth_amplitude_nan": (
        _truth_files(rays=[{"delay_offset_ns": 0.0, "amplitude": math.nan,
                            "phase_rad": 0.0, "az_offset_deg": 0.0,
                            "el_offset_deg": 0.0}]), _EXTRACT_MANIFEST, 3,
        "u.json: Ray.amplitude must be finite, got nan"),
    "truth_amplitude_past_the_float_range": (
        _truth_files(rays=[{"delay_offset_ns": 0.0, "amplitude": 10 ** 400,
                            "phase_rad": 0.0, "az_offset_deg": 0.0,
                            "el_offset_deg": 0.0}]), _EXTRACT_MANIFEST, 3,
        "u.json: Ray.amplitude must be finite, got an integer too large for "
        "a float"),
    "features_nan_ratio_test": (
        _mlr_files({name: {"los": _GEV, "nlos": _GEV}
                    for name in METRIC_NAMES})
        | {"f.csv": _FEATURES.replace("1,2,3,", "1,nan,3,")}, _CLASSIFY, 3,
        "f.csv: line 2 (byte 41): not a finite number: 'nan'"),
    "features_infinite_network": (
        _ann_files() | {"f.csv": _FEATURES.replace("4,5,", "4,inf,")},
        _CLASSIFY, 3, "f.csv: line 2 (byte 41): not a finite number: 'inf'"),
    "features_nan_train": (
        {"f.csv": _labelled_with("nan")},
        ["train", "--features", "f.csv"], 3,
        "f.csv: line 2 (byte 41): not a finite number: 'nan'"),
    "features_infinite_fit": (
        {"f.csv": _labelled_with("-Infinity")},
        ["fit", "--features", "f.csv"], 3,
        "f.csv: line 2 (byte 41): not a finite number: '-Infinity'"),
    "ingest_el_axis_too_large": (
        {"x.csv": "az_deg,el_deg,freq_ghz,re,im\n" + "".join(
            f"0,0,{60.0 + 0.25 * k},1,0\n" for k in range(8))},
        ["ingest", "x.csv", "--az", "0:2:2", "--el=-30:1e308:5"], 3,
        "sweeps missing grid directions: (az=0, el=-30), (az=2, el=-30)"),
}


def test_the_minimal_report_prints(tmp_path, monkeypatch, capsys):
    """The report cases above each break one field of a report that
    prints."""
    monkeypatch.chdir(tmp_path)
    save_json(tmp_path / "r.json", _REPORT_DOC)
    assert main(_REPORT) == 0
    assert capsys.readouterr().out.startswith("mode: simulate\ncounts: \n")


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_cleanly(case, tmp_path, monkeypatch, capsys):
    files, argv, expected_code, fragment = MALFORMED_INPUTS[case]
    monkeypatch.chdir(tmp_path)
    for name, content in files.items():
        if isinstance(content, bytes):
            (tmp_path / name).write_bytes(content)
        elif isinstance(content, str):
            (tmp_path / name).write_text(content)
        else:
            save_json(tmp_path / name, content)
    assert main(argv) == expected_code
    out, err = capsys.readouterr()
    assert err.startswith("error: ")
    assert fragment in err
    assert out == ""      # refused before anything is printed


def test_negative_zero_jitter_simulates_as_zero(tmp_path):
    """numpy refuses a scale of -0.0, so the config stores 0.0 for it."""
    files = []
    for jitter in (-0.0, 0.0):
        cfg = tmp_path / f"c{jitter}.json"
        sim = {**small_sim().to_dict(), "angular_jitter_deg": jitter}
        save_json(cfg, {"sim": sim, "n_realizations": 2, "n_train": 1,
                        "n_test": 1})
        assert ("-0.0" in cfg.read_text()) == (str(jitter) == "-0.0")
        out = tmp_path / f"sim{jitter}"
        assert main(["--config", str(cfg), "--out", str(out), "simulate"]) == 0
        files.append(sorted((p.name, p.read_bytes()) for p in out.iterdir()))
        assert math.copysign(1.0, load_json(out / "simulation.json")
                             ["config"]["angular_jitter_deg"]) == 1.0
    assert files[0] == files[1]


def test_bad_config_exits_with_config_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    save_json(cfg, {"mode": "simulate", "warp_factor": 9})
    code = main(["--config", str(cfg), "--out", str(tmp_path / "x"),
                 "simulate"])
    assert code == 2
    assert "unknown ExperimentConfig" in capsys.readouterr().err


def test_malformed_json_exits_with_format_error(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    code = main(["--config", str(cfg), "simulate"])
    assert code == 3
    assert "invalid JSON" in capsys.readouterr().err
