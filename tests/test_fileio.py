"""Serialization round trips and format diagnostics."""

import json

import numpy as np
import pytest

from nlosid import (AngularGrid, CirTensor, DataFormatError, GevParams,
                    MlrModel, PasMap, ann_init, ann_train, mlr_classify,
                    simulate_realization)
from nlosid.fileio import (ann_model_from_dict, ann_model_to_dict,
                           load_ann_model, load_cir_tensor, load_features,
                           load_json, load_mlr_model, load_sweep_csv,
                           load_truth, save_ann_model, save_cir_tensor,
                           save_features, save_json, save_mlr_model,
                           save_pas_json, save_truth, save_verdicts)
from nlosid.metrics import METRIC_NAMES

from conftest import flat_grid, make_fv, separable_features, small_sim


# ---------------------------------------------------------------------------
# json plumbing


def test_save_json_is_byte_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_json(a, {"z": 1, "a": [1.5, 2.25], "m": {"y": 0, "x": 1}})
    save_json(b, {"m": {"x": 1, "y": 0}, "a": [1.5, 2.25], "z": 1})
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes().endswith(b"\n")


def test_load_json_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{\n  "a": 1,\n  "b": }\n')
    with pytest.raises(DataFormatError, match=r"line 3 column 8 \(byte 19\)"):
        load_json(p)


# ---------------------------------------------------------------------------
# impulse-response tensors


def test_cir_tensor_round_trip_quantizes_once(tmp_path):
    cir = simulate_realization(small_sim(snr_db=50.0), 0)[2]
    path = tmp_path / "real_0000.json"
    save_cir_tensor(cir, path)
    assert (tmp_path / "real_0000.bin").exists()
    back = load_cir_tensor(path)
    assert back.grid == cir.grid
    assert back.sample_rate_ghz == cir.sample_rate_ghz
    # storage is 32-bit pairs: close on first pass, exact thereafter
    assert np.allclose(back.data, cir.data, rtol=1e-6, atol=1e-12)
    save_cir_tensor(back, path)
    again = load_cir_tensor(path)
    assert np.array_equal(again.data, back.data)


def test_cir_tensor_manifest_diagnostics(tmp_path):
    cir = simulate_realization(small_sim(), 1)[2]
    path = tmp_path / "t.json"
    save_cir_tensor(cir, path)

    doc = load_json(path)
    doc["format"] = "power_map"
    save_json(path, doc)
    with pytest.raises(DataFormatError, match="expected a 'cir_tensor'"):
        load_cir_tensor(path)

    save_cir_tensor(cir, path)
    doc = load_json(path)
    doc["dtype"] = "c128be"
    save_json(path, doc)
    with pytest.raises(DataFormatError, match="unsupported dtype"):
        load_cir_tensor(path)

    save_cir_tensor(cir, path)
    blob = (tmp_path / "t.bin").read_bytes()
    (tmp_path / "t.bin").write_bytes(blob[:-8])
    with pytest.raises(DataFormatError, match="bytes"):
        load_cir_tensor(path)
    (tmp_path / "t.bin").unlink()
    with pytest.raises(DataFormatError, match="missing"):
        load_cir_tensor(path)


# ---------------------------------------------------------------------------
# power maps


def test_pas_json_round_trip_is_exact(tmp_path):
    grid = flat_grid(4, 6, step=2.5, az_start=-10.0, el_start=3.0)
    pas = PasMap(grid, np.linspace(0.0, 7.25, 24).reshape(4, 6))
    path = tmp_path / "pas.json"
    save_pas_json(pas, path)
    doc = load_json(path)
    assert doc["format"] == "pas_map" and doc["unit"] == "linear"
    assert AngularGrid.from_dict(doc["grid"]) == grid
    assert np.array_equal(np.array(doc["power"]), pas.power)


# ---------------------------------------------------------------------------
# frequency sweeps


def test_sweep_csv_groups_and_sorts(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text(
        "az_deg,el_deg,freq_ghz,re,im\n"
        "10.0,0.0,60.2,1.0,-1.0\n"
        "10.0,0.0,60.0,0.5,0.25\n"
        "-5.0,2.0,60.0,0.0,1.0\n"
        "10.0,0.0,60.1,2.0,0.0\n")
    sweeps = load_sweep_csv(path)
    assert set(sweeps) == {(10.0, 0.0), (-5.0, 2.0)}
    freqs, values = sweeps[(10.0, 0.0)]
    assert np.array_equal(freqs, [60.0, 60.1, 60.2])
    assert np.array_equal(values, [0.5 + 0.25j, 2.0 + 0.0j, 1.0 - 1.0j])


def test_sweep_csv_diagnostics(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_text("az,el,f,re,im\n")
    with pytest.raises(DataFormatError, match="header must be"):
        load_sweep_csv(path)
    path.write_text("az_deg,el_deg,freq_ghz,re,im\n1.0,2.0,60.0,0.1\n")
    with pytest.raises(DataFormatError, match="line 2.*expected 5 fields"):
        load_sweep_csv(path)
    path.write_text("az_deg,el_deg,freq_ghz,re,im\n1.0,2.0,sixty,0.1,0.2\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_sweep_csv(path)
    path.write_text("")
    with pytest.raises(DataFormatError, match="empty"):
        load_sweep_csv(path)


# ---------------------------------------------------------------------------
# feature datasets


def test_features_round_trip_with_realizations(tmp_path):
    rows = [(i // 2, fv) for i, fv in
            enumerate(separable_features(n_per_class=3))]
    path = tmp_path / "features.csv"
    save_features(path, rows)
    header = path.read_text().splitlines()[0]
    assert header == "realization," + ",".join(METRIC_NAMES) + ",label"
    back = load_features(path)
    assert len(back) == len(rows)
    for (r0, f0), (r1, f1) in zip(rows, back):
        assert r0 == r1
        assert f0.label == f1.label
        assert np.array_equal(f0.values(), f1.values())


def test_features_round_trip_without_realizations(tmp_path):
    rows = [(None, make_fv(r_p=0.5, label=None))]
    path = tmp_path / "features.csv"
    save_features(path, rows)
    assert path.read_text().splitlines()[0].startswith("r_p,")
    back = load_features(path)
    assert back[0][0] is None
    assert back[0][1].label is None


def test_features_diagnostics(tmp_path):
    path = tmp_path / "f.csv"
    path.write_text("r_p,k_t\n")
    with pytest.raises(DataFormatError, match="header must be"):
        load_features(path)
    good_header = ",".join(METRIC_NAMES) + ",label"
    path.write_text(good_header + "\n1.0,2.0,3.0\n")
    with pytest.raises(DataFormatError, match="line 2.*expected 6 fields"):
        load_features(path)
    path.write_text(good_header + "\n1.0,2.0,3.0,4.0,abc,LOS\n")
    with pytest.raises(DataFormatError, match="line 2"):
        load_features(path)


# ---------------------------------------------------------------------------
# ground truth


def test_truth_round_trip(tmp_path):
    from nlosid import generate_channel
    clusters = generate_channel(small_sim(), 0)[0]
    path = tmp_path / "truth.json"
    save_truth(path, clusters)
    back = load_truth(path)
    assert len(back) == len(clusters)
    for a, b in zip(clusters, back):
        assert a.kind == b.kind
        assert a.center_az_deg == b.center_az_deg
        assert a.base_delay_ns == b.base_delay_ns
        assert [r.amplitude for r in a.rays] == [r.amplitude for r in b.rays]


# ---------------------------------------------------------------------------
# models


def test_mlr_model_round_trip_preserves_decisions(tmp_path):
    model = MlrModel({
        "r_p": (GevParams(-1.363, 0.9579, 0.0574),
                GevParams(-0.6214, 0.5588, 0.2789)),
        "k_t": (GevParams(-0.2142, 318.9, 53.49),
                GevParams(-0.0658, 177.6, 46.93)),
    })
    path = tmp_path / "mlr.json"
    save_mlr_model(path, model)
    back = load_mlr_model(path)
    assert back.tables == model.tables
    fv = make_fv(r_p=0.95, k_t=290.0)
    a = mlr_classify(model, fv, metrics=["r_p", "k_t"])
    b = mlr_classify(back, fv, metrics=["r_p", "k_t"])
    assert a == b

    doc = load_json(path)
    doc["format"] = "ann_model"
    save_json(path, doc)
    with pytest.raises(DataFormatError, match="expected a 'mlr_model'"):
        load_mlr_model(path)


def test_ann_model_round_trip_is_bit_faithful(tmp_path):
    model = ann_train(ann_init(4), separable_features(n_per_class=10))
    path = tmp_path / "ann.json"
    save_ann_model(path, model)
    back = load_ann_model(path)
    for a, b in zip(model.weights(), back.weights()):
        assert np.array_equal(a, b)
    assert np.array_equal(model.feature_means, back.feature_means)
    assert np.array_equal(model.feature_scales, back.feature_scales)

    doc = ann_model_to_dict(model)
    del doc["lw21"]
    with pytest.raises(DataFormatError, match="missing field"):
        ann_model_from_dict(doc)


# ---------------------------------------------------------------------------
# verdicts


def test_save_verdicts_layout(tmp_path):
    from nlosid import Verdict
    path = tmp_path / "verdicts.csv"
    save_verdicts(path, [
        (0, Verdict("LOS", 1.25), "LOS"),
        (None, Verdict("NLOS", -float("inf"), support_violation=True), None),
    ])
    lines = path.read_text().splitlines()
    assert lines[0] == "realization,decision,score,support_violation,truth"
    assert lines[1] == "0,LOS,1.25,0,LOS"
    assert lines[2] == ",NLOS,-inf,1,"
