"""Serialization round trips and format diagnostics."""

import json
import re
import shutil
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from nlosid import (AngularGrid, AnnModel, CirTensor, DataFormatError,
                    ExperimentConfig, GevPair, GevParams, MlrModel, PasMap,
                    SimConfig, ann_init, ann_train, compute_pas,
                    ingest_sweeps, inputs_from_manifest, Verdicts,
                    mlr_classify, simulate_realization)
from nlosid.experiment import _write_curves
from nlosid.fileio import (load_cir_tensor, load_document, load_features,
                           load_json, load_sweep_csv, load_truth,
                           save_cir_tensor, save_document, save_features,
                           save_json, save_pas_json, save_truth,
                           save_verdicts)
from nlosid.classifiers import ANN_ARRAYS
from nlosid.metrics import METRIC_NAMES

import oracles
from conftest import (RAW_NUMBERS, flat_grid, json_with_raw_numbers, make_fv,
                      separable_features, small_sim)


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


def test_json_offsets_count_bytes(tmp_path):
    """After a two-byte character the offset is the refused byte's place
    in the file, not its character index."""
    p = tmp_path / "bad.json"
    p.write_bytes('{"\u00e9": 1,\n "b": }'.encode())
    with pytest.raises(DataFormatError, match=r"line 2 column 7 \(byte 16\)"):
        load_json(p)
    assert p.read_bytes()[16:17] == b"}"


# ---------------------------------------------------------------------------
# impulse-response tensors


def test_cir_tensor_round_trip_quantizes_once(tmp_path):
    cir = simulate_realization(small_sim(snr_db=50.0), 7, 0)[2]
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
    cir = simulate_realization(small_sim(), 7, 1)[2]
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
    with pytest.raises(DataFormatError, match="TensorManifest.dtype must be "
                                              "one of 'c64le', got 'c128be'"):
        load_cir_tensor(path)

    save_cir_tensor(cir, path)
    blob = (tmp_path / "t.bin").read_bytes()
    (tmp_path / "t.bin").write_bytes(blob[:-8])
    with pytest.raises(DataFormatError, match="bytes"):
        load_cir_tensor(path)
    (tmp_path / "t.bin").unlink()
    with pytest.raises(DataFormatError, match="missing"):
        load_cir_tensor(path)


def test_overflow_mid_file_leaves_no_tensor_files(tmp_path, monkeypatch):
    """A rendered tensor whose fourth elevation row overflows complex64 is
    refused after three rows were written, and leaves neither the binary,
    nor its temporary file, nor the manifest."""
    cir = simulate_realization(small_sim(snr_db=40.0), 7, 0)[2]
    rows_read = []
    real_pixels = CirTensor.pixels

    def pixels(self, el_idx, az_idx):
        out = real_pixels(self, el_idx, az_idx)
        rows_read.append(int(el_idx[0]))
        if el_idx[0] == 3:
            out[1, 5] = 1e300
        return out

    monkeypatch.setattr(CirTensor, "pixels", pixels)
    with pytest.raises(DataFormatError, match="complex64"):
        save_cir_tensor(cir, tmp_path / "t.json")
    assert rows_read == [0, 1, 2, 3]
    assert list(tmp_path.iterdir()) == []


def rendered_tensor(n_el, n_az, n_taps, snr_db, seed) -> CirTensor:
    """A rendered tensor on an n_el x n_az grid: the render of a grid with
    at least two directions on each axis, cut to its leading rows and
    columns, noise included."""
    cfg = SimConfig(az_range_deg=(0.0, 10.0 * max(n_az - 1, 1)),
                    el_range_deg=(0.0, 10.0 * max(n_el - 1, 1)),
                    step_deg=10.0, hpbw_az_deg=10.0, hpbw_el_deg=10.0,
                    sample_rate_ghz=1.0, n_taps=n_taps, snr_db=snr_db)
    cir = simulate_realization(cfg, seed, 0)[2]
    noise = ({} if cir.along is None else
             {"along": cir.along[:n_el, :n_az],
              "across": cir.across[:n_el, :n_az]})
    return replace(cir, grid=replace(cir.grid, n_el=n_el, n_az=n_az),
                   rays=replace(cir.rays, amp_el=cir.rays.amp_el[:, :n_el],
                                amp_az=cir.rays.amp_az[:, :n_az]), **noise)


def dense_tensor(n_el, n_az, n_taps, seed) -> CirTensor:
    """A dense complex128 tensor with magnitudes over 60 decades, and some
    zero taps."""
    rng = np.random.default_rng(seed)
    shape = (n_el, n_az, n_taps)
    values = ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
              * 10.0 ** rng.uniform(-30.0, 30.0, shape))
    values[rng.random(shape) < 0.1] = 0.0
    return CirTensor.dense(AngularGrid(0.0, 10.0, n_az, 0.0, 10.0, n_el),
                           2.0, values)


@settings(max_examples=60, deadline=None)
@given(n_el=st.integers(1, 4), n_az=st.integers(1, 6),
       n_taps=st.integers(64, 128),
       kind=st.sampled_from(["noiseless", "noisy", "dense"]),
       seed=st.integers(0, 2**32 - 1))
def test_streamed_tensor_files_match_the_whole_array_oracles(
        n_el, n_az, n_taps, kind, seed, tmp_path_factory):
    """The row-streamed binary equals the whole-array writer's bytes, and
    the complex64 tensor loaded from it reads (pixels in any order with
    repeats, tap_energy, data and compute_pas) bit for bit as the tensor
    promoted whole to complex128, with complex128 and float64 results."""
    if kind == "dense":
        cir = dense_tensor(n_el, n_az, n_taps, seed)
    else:
        cir = rendered_tensor(n_el, n_az, n_taps,
                              None if kind == "noiseless" else 30.0, seed)
    path = tmp_path_factory.mktemp("tensor") / "t.json"
    save_cir_tensor(cir, path)
    oracle_bin = path.with_name("oracle.bin")
    oracles.save_cir_tensor_oracle(cir, oracle_bin)
    assert path.with_suffix(".bin").read_bytes() == oracle_bin.read_bytes()

    want = oracles.load_cir_tensor_oracle(path).data
    want_energy = np.sum(np.abs(want) ** 2, axis=-1)
    got = load_cir_tensor(path)
    assert got.stored.dtype == np.complex64
    rng = np.random.default_rng(seed)
    el_idx = rng.integers(0, n_el, 3 * n_el * n_az)
    az_idx = rng.integers(0, n_az, 3 * n_el * n_az)
    for value, expected in (
            (got.pixels(el_idx, az_idx), want[el_idx, az_idx]),
            (got.tap_energy(), want_energy),
            (got.data, want),
            (compute_pas(got).power, want_energy * got.tap_spacing_ns)):
        assert value.dtype == expected.dtype
        assert value.dtype in (np.complex128, np.float64)
        assert value.shape == expected.shape
        assert value.tobytes() == expected.tobytes()


def traced_peak(fn, *args):
    """fn(*args) and the peak of the memory traced while it ran; numpy
    reports its array buffers to tracemalloc."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tensor_files_pass_through_memory_one_row_at_a_time(tmp_path):
    """On one reference realization (28 x 72 x 512 taps, 16.5 MB dense at
    complex128): saving peaks below a quarter of the dense size and caches
    no dense view, loading below 1.25 times the file, and the power map of
    the loaded tensor below 2 MB."""
    config = ExperimentConfig.from_dict(load_json(
        Path(__file__).resolve().parent.parent / "configs" / "reference.json"))
    cir = simulate_realization(config.sim, config.seed, 0)[2]
    dense_bytes = 16 * cir.grid.n_el * cir.grid.n_az * cir.n_taps
    path = tmp_path / "real_0000.json"
    _, peak = traced_peak(save_cir_tensor, cir, path)
    assert peak < dense_bytes / 4
    assert "data" not in vars(cir)
    loaded, peak = traced_peak(load_cir_tensor, path)
    assert peak < 1.25 * path.with_suffix(".bin").stat().st_size
    _, peak = traced_peak(compute_pas, loaded)
    assert peak < 2e6


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
    """Sweep files read as one table in file and line order, which
    ingest_sweeps groups by direction and sorts by frequency, whichever
    file holds a direction's rows; the taps are the old reader's bits, a
    -0.0 real part included."""
    grid = flat_grid(1, 2, step=2.0)
    # (az=0, el=0) is swept at -0.0 + 0j, which inverts to signed zeros
    rows = [(az, 0.0, 60.0 + 0.25 * k, (k - 3.0) * az or -0.0,
             (1.0 - k) * az + 0.0)
            for k in range(8) for az in (2.0, 0.0)][::-1]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for path, part in zip(paths, (rows[:5], rows[5:])):
        path.write_text("az_deg,el_deg,freq_ghz,re,im\n" + "".join(
            ",".join(map(repr, row)) + "\n" for row in part))
    table = load_sweep_csv(*paths)
    assert table.shape == (16, 5)
    assert table.tobytes() == np.array(rows).tobytes()
    cir = ingest_sweeps(table, grid, window="none")
    for j, az in enumerate((0.0, 2.0)):
        values = np.array([complex(*row[3:]) for row in rows[::-1]
                           if row[0] == az])
        assert cir.pixels([0], [j])[0].tobytes() \
            == np.fft.ifft(values).tobytes()


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


def test_features_with_and_without_realizations_are_refused(tmp_path):
    """A row without a realization among rows with one would read back as
    realization 0; the mix is refused and nothing is written."""
    fv = make_fv(r_p=0.5, label="LOS")
    with pytest.raises(DataFormatError, match=r"rows\[0\] has no realization"):
        save_features(tmp_path / "f.csv", [(None, fv), (7, fv)])
    assert not (tmp_path / "f.csv").exists()


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
    clusters = generate_channel(small_sim(), 7, 0)[0]
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


def _load_model(path):
    return load_document(path, MlrModel, AnnModel)


def test_mlr_model_round_trip_preserves_decisions(tmp_path):
    model = MlrModel({
        "r_p": GevPair(GevParams(-1.363, 0.9579, 0.0574),
                       GevParams(-0.6214, 0.5588, 0.2789)),
        "k_t": GevPair(GevParams(-0.2142, 318.9, 53.49),
                       GevParams(-0.0658, 177.6, 46.93)),
    })
    path = tmp_path / "mlr.json"
    save_document(path, model)
    back = _load_model(path)
    assert back.tables == model.tables
    fv = make_fv(r_p=0.95, k_t=290.0)
    a = mlr_classify(model, [fv], metrics=["r_p", "k_t"])
    b = mlr_classify(back, [fv], metrics=["r_p", "k_t"])
    for column in ("decision", "score", "support_violation"):
        assert np.array_equal(getattr(a, column), getattr(b, column))

    doc = load_json(path)
    doc["format"] = "gev_table"
    save_json(path, doc)
    with pytest.raises(DataFormatError, match="expected a 'mlr_model' or "
                                              "'ann_model' document"):
        _load_model(path)


def test_ann_model_round_trip_is_bit_faithful(tmp_path):
    model = ann_train(ann_init(4), separable_features(n_per_class=10))
    path = tmp_path / "ann.json"
    save_document(path, model)
    back = _load_model(path)
    for a, b in zip(model.weights(), back.weights()):
        assert np.array_equal(a, b)
    assert np.array_equal(model.feature_means, back.feature_means)
    assert np.array_equal(model.feature_scales, back.feature_scales)
    assert back.training == model.training and "stop" in back.training

    doc = model.to_dict()
    del doc["lw21"]
    with pytest.raises(DataFormatError, match="missing 1 required positional "
                                              "argument: 'lw21'"):
        AnnModel.from_dict(doc)


@pytest.mark.parametrize("changes, fragment", [
    pytest.param({"b1": [10 ** 400] * 10}, "AnnModel.b1 must be finite, got "
                 "an integer too large for a float", id="changes0"),
    pytest.param({"iw": "x"}, "AnnModel.iw must be an array of real numbers",
                 id="changes1"),
    pytest.param({"lw32": [[0.0] * 10] * 3}, "lw32 has shape (3, 10), "
                 "expected (2, 10)", id="changes2"),
    pytest.param({"feature_scales": [[1.0]] * 5}, "feature_scales has shape "
                 "(5, 1), expected (5,)", id="changes3")])
def test_bad_network_arrays_are_data_format_errors(changes, fragment):
    doc = {**ann_init(0).to_dict(), **changes}
    with pytest.raises(DataFormatError, match=re.escape(fragment)):
        AnnModel.from_dict(doc)


# ---------------------------------------------------------------------------
# verdicts


def test_save_verdicts_layout(tmp_path):
    path = tmp_path / "verdicts.csv"
    save_verdicts(path, [0, None], Verdicts(
        np.array(["LOS", "NLOS"]), np.array([1.25, -np.inf]),
        np.array([False, True])), ["LOS", None])
    lines = path.read_text().splitlines()
    assert lines[0] == "realization,decision,score,support_violation,truth"
    assert lines[1] == "0,LOS,1.25,0,LOS"
    assert lines[2] == ",NLOS,-inf,1,"


# ---------------------------------------------------------------------------
# the one CSV row loop and the one writer against the readers and writers
# they replaced (tests/oracles.py)

_PAD = st.sampled_from(["", " ", "  ", "\t", " \t "])
_BLANK = st.sampled_from(["", " ", "\t", "  \t "])
_FLOATS = st.one_of(st.floats(), st.just(-0.0), st.floats(-1e-300, 1e-300))
# the number fields of a table that loads; the rest are refused
_NUMBER_TEXT = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["-0.0", "0", "1e308", "-1e-320", "1_0", ".5", "5."]))
_NON_FINITE_TEXT = st.sampled_from(["nan", "NaN", "inf", "-inf", "Infinity",
                                    "-Infinity", "1e400", "-1e999"])
_FINITE_TEXT = st.one_of(
    st.floats(-720.0, 720.0).map(repr),
    st.sampled_from(["-0.0", "0", "0.0", "-180", "180.0", "45", "1e-320"]))


@st.composite
def _tables(draw, header, row, numbers):
    """(text, index of the corrupted data line or None, corruption kind):
    rows drawn by row in shuffled order, padded, with blank and
    whitespace-only lines mixed in, "\n" or "\r\n" line ends, and
    optionally one corrupted line: a wrong field count, a field that is not
    a number, or one of the number columns numbers made non-finite."""
    rows = [[draw(_PAD) + cell + draw(_PAD) for cell in r]
            for r in draw(st.lists(row, max_size=8).flatmap(st.permutations))]
    kind = draw(st.sampled_from((None, "count", "number", "finite")))
    bad = None
    if kind is not None:
        fields = [draw(_PAD) + cell + draw(_PAD) for cell in draw(row)]
        if kind == "count":
            fields = draw(st.sampled_from(
                [fields[:-1], fields + ["1"], fields[:1], [""] * 9]))
        elif kind == "number":
            k = draw(st.integers(0, len(fields) - 2))
            fields[k] = draw(st.sampled_from(["abc", "", "0x10", "1e", "--1",
                                              "2.5.1"]))
        else:
            k = draw(st.sampled_from(numbers))
            fields[k] = draw(_PAD) + draw(_NON_FINITE_TEXT)
        bad = draw(st.integers(0, len(rows)))
        rows.insert(bad, fields)
    lines = [",".join(r) for r in rows]
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(_BLANK))
    if bad is not None:   # its index among the lines that are not blank
        bad = [i for i, line in enumerate(lines) if line.strip()].index(
            lines.index(",".join(rows[bad])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    tail = draw(st.sampled_from(["", end, end + end]))
    return end.join([header] + lines) + tail, bad, kind


def _feature_row(with_realization):
    label = st.sampled_from(["LOS", "NLOS", "", "x y", "los"])
    cells = st.tuples(*[_NUMBER_TEXT] * 5, label).map(list)
    if with_realization:
        cells = st.tuples(st.integers(-5, 10 ** 20).map(str), cells).map(
            lambda rc: [rc[0], *rc[1]])
    return cells


_FEATURE_TABLES = st.booleans().flatmap(lambda with_realization: _tables(
    ("realization," if with_realization else "") + ",".join(METRIC_NAMES)
    + ",label", _feature_row(with_realization),
    range(int(with_realization), int(with_realization) + 5)))
_SWEEP_TABLES = _tables(
    "az_deg,el_deg,freq_ghz,re,im",
    st.tuples(st.sampled_from(["0", "-0.0", "0.0", "5", "-180", "180.0"]),
              st.sampled_from(["-0.0", "0", "45", "90.0"]), _FINITE_TEXT,
              _NUMBER_TEXT, _NUMBER_TEXT).map(list),
    range(5))


def _write_table(tmp_path_factory, text) -> Path:
    path = tmp_path_factory.getbasetemp() / "table_oracle" / "table.csv"
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(text.encode())
    return path


def _check_refusal(path, load, oracle, bad, kind):
    """A corrupted line is refused where the oracle placed it: the same
    message, or for a non-finite number (which the oracle let through)
    the oracle's line and byte."""
    with pytest.raises(DataFormatError) as refused:
        load(path)
    where = oracles.read_csv_oracle(path)[1][bad][0]
    if kind == "finite":
        oracle(path)
        assert str(refused.value).startswith(where + ": ")
        assert "not a finite number" in str(refused.value)
    else:
        with pytest.raises(DataFormatError) as expected:
            oracle(path)
        assert str(refused.value) == str(expected.value)
        assert str(refused.value).startswith(where + ": ")


@settings(max_examples=300, deadline=None)
@given(table=_FEATURE_TABLES)
def test_feature_tables_load_as_the_old_reader_did(table, tmp_path_factory):
    text, bad, kind = table
    path = _write_table(tmp_path_factory, text)
    if kind is not None:
        _check_refusal(path, load_features, oracles.load_features_oracle,
                       bad, kind)
        return
    got, want = load_features(path), oracles.load_features_oracle(path)
    assert len(got) == len(want)
    for (r0, f0), (r1, f1) in zip(got, want):
        assert r0 == r1 and type(r0) is type(r1)
        assert f0.label == f1.label
        assert f0.values().tobytes() == f1.values().tobytes()


@settings(max_examples=300, deadline=None)
@given(table=_SWEEP_TABLES)
def test_sweep_tables_load_as_the_old_reader_did(table, tmp_path_factory):
    text, bad, kind = table
    path = _write_table(tmp_path_factory, text)
    if kind is not None:
        _check_refusal(path, load_sweep_csv, oracles.load_sweep_csv_oracle,
                       bad, kind)
        return
    got, want = load_sweep_csv(path), oracles.load_sweep_csv_oracle(path)
    assert got.dtype == np.float64 and got.shape[1:] == (5,)
    # grouped as the old reader grouped them: key order, and the sign of a
    # zero angle, as well as each direction's sorted rows
    grouped = {}
    for az, el, *point in got.tolist():
        grouped.setdefault((az, el), []).append(point)
    keys = sorted(grouped)
    assert [tuple(map(repr, k)) for k in keys] \
        == [tuple(map(repr, k)) for k in want]
    for key, (f1, v1) in zip(keys, want.values()):
        f0, re0, im0 = np.array(sorted(grouped[key])).T
        assert f0.tobytes() == f1.tobytes()
        assert re0.tobytes() == v1.real.tobytes()
        assert im0.tobytes() == v1.imag.tobytes()


@pytest.mark.parametrize("end, label", [("\n", "LOS"), ("\r\n", "LOS"),
                                        ("\n", "L\u00d6S")])
def test_refused_csv_lines_are_named_by_their_byte_offset(end, label,
                                                          tmp_path):
    """The offset counts the bytes as stored: both bytes of a CRLF end and
    every byte of a multibyte character on an earlier line."""
    bad = "1,2,x,4,5,LOS"
    raw = end.join([",".join(METRIC_NAMES) + ",label",
                    f"1,2,3,4,5,{label}", "", bad, ""]).encode()
    (tmp_path / "f.csv").write_bytes(raw)
    with pytest.raises(DataFormatError, match=r"line 4 \(byte \d+\)") as e:
        load_features(tmp_path / "f.csv")
    offset = int(re.search(r"byte (\d+)", str(e.value))[1])
    assert raw[offset:].startswith(bad.encode())


_FEATURE_VECTORS = st.builds(
    make_fv, r_p=_FLOATS, k_t=_FLOATS, k_f=_FLOATS, tau_mean_ns=_FLOATS,
    tau_rms_ns=_FLOATS,
    label=st.one_of(st.sampled_from([None, "LOS", "NLOS", ""]),
                    st.text(max_size=4)))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.one_of(st.none(), st.integers(0, 10 ** 6),
                                         st.booleans()), _FEATURE_VECTORS),
                     max_size=6))
def test_save_features_writes_the_old_bytes(rows, tmp_path_factory):
    """Rows all with or all without a realization give the old writer's
    bytes; a mix, which it wrote with realization 0, is refused naming the
    first row without one."""
    d = tmp_path_factory.getbasetemp() / "writer_oracle"
    d.mkdir(exist_ok=True)
    bare = [k for k, (r, _) in enumerate(rows) if r is None]
    if 0 < len(bare) < len(rows):
        with pytest.raises(DataFormatError,
                           match=rf"rows\[{bare[0]}\] has no realization"):
            save_features(d / "new.csv", rows)
        return
    save_features(d / "new.csv", rows)
    oracles.save_features_oracle(d / "old.csv", rows)
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


@settings(max_examples=200, deadline=None)
@given(columns=st.integers(0, 6).flatmap(lambda n: st.tuples(*(
    st.lists(element, min_size=n, max_size=n) for element in (
        st.one_of(st.none(), st.integers(0, 10 ** 6)),
        st.sampled_from(["LOS", "NLOS"]), _FLOATS, st.booleans(),
        st.sampled_from([None, "LOS", "NLOS"]))))))
def test_save_verdicts_writes_the_old_bytes(columns, tmp_path_factory):
    """The columns, written at once, give the bytes of the per-row
    writer."""
    realizations, decision, score, violation, truths = columns
    d = tmp_path_factory.getbasetemp() / "writer_oracle"
    d.mkdir(exist_ok=True)
    save_verdicts(d / "new.csv", realizations, Verdicts(
        np.array(decision, dtype=str), np.array(score, dtype=float),
        np.array(violation, dtype=bool)), truths)
    oracles.save_verdicts_oracle(d / "old.csv", [
        (r, SimpleNamespace(decision=dec, score=s, support_violation=v), t)
        for r, dec, s, v, t in zip(*columns)])
    assert (d / "new.csv").read_bytes() == (d / "old.csv").read_bytes()


_GEV_PARAMS = st.builds(GevParams, st.floats(-0.9, 0.9) | st.just(0.0),
                        st.floats(-10.0, 10.0), st.floats(0.01, 10.0))
_METRIC_VALUES = st.lists(
    st.floats(-1e3, 1e3) | st.sampled_from([0.0, -0.0, 1.0]),
    min_size=1, max_size=12)


def _curves_outcome(write, out_dir: Path, rows: list, model):
    """What a curve writer returned, or the type and message it raised."""
    try:
        return write(out_dir, rows, model)
    except Exception as exc:
        return type(exc), str(exc)


# values a few units in the last place apart make histogram bins too narrow
# for a finite density, or too narrow to split at all (numpy's "Too many
# bins"), in the old writer and the new alike: both must fail the same way
@pytest.mark.filterwarnings("ignore:overflow encountered in divide")
@settings(max_examples=40, deadline=None)
@given(samples=st.tuples(*[st.tuples(_METRIC_VALUES, _METRIC_VALUES)] * 5),
       params=st.tuples(*[st.tuples(_GEV_PARAMS, _GEV_PARAMS)] * 5))
@example(samples=(([0.0], [0.0]),) * 4 + (([0.0], [0.0, 5e-324]),),
         params=((GevParams(0.0, 0.0, 1.0),) * 2,) * 5)
def test_curve_files_are_the_old_bytes(samples, params, tmp_path_factory):
    rows = []
    for label, side in (("LOS", 0), ("NLOS", 1)):
        columns = [s[side] for s in samples]
        for k in range(max(map(len, columns))):
            rows.append(make_fv(*(c[k % len(c)] for c in columns),
                                label=label))
    model = MlrModel({name: GevPair(*pair)
                      for name, pair in zip(METRIC_NAMES, params)})
    base = tmp_path_factory.getbasetemp() / "curve_oracle"
    for side in ("new", "old"):
        shutil.rmtree(base / side, ignore_errors=True)
        (base / side).mkdir(parents=True)
    assert _curves_outcome(_write_curves, base / "new", rows, model) \
        == _curves_outcome(oracles.write_curves_oracle, base / "old", rows,
                           model)
    names = sorted(p.name for p in (base / "old" / "curves").iterdir())
    assert names == sorted(p.name for p in (base / "new" / "curves").iterdir())
    for name in names:
        assert (base / "new" / "curves" / name).read_bytes() \
            == (base / "old" / "curves" / name).read_bytes()


# ---------------------------------------------------------------------------
# parsers never fail with anything but DataFormatError

_FEATURE_HEADERS = (",".join(METRIC_NAMES) + ",label",
                    "realization," + ",".join(METRIC_NAMES) + ",label")
_SWEEP_HEADER = "az_deg,el_deg,freq_ghz,re,im"
_CELLS = st.one_of(
    st.sampled_from(["", "0", "-1", "2.5", "1e400", "nan", "inf", "LOS",
                     "NLOS", " 3 ", "x"]),
    st.integers(1, 400).map(lambda k: "9" * k),
    st.text(max_size=4))
_CSV_TEXT = st.one_of(
    st.binary(max_size=200),
    st.builds(lambda header, rows, tail: (
                  "\n".join([header] + rows) + "\n").encode() + tail,
              st.sampled_from(_FEATURE_HEADERS + (_SWEEP_HEADER,)),
              st.lists(st.lists(_CELLS, max_size=8).map(",".join),
                       max_size=4),
              st.binary(max_size=4)))

_SCALARS = st.one_of(
    st.sampled_from([0, 1, -1, 0.5, *RAW_NUMBERS, None, True, ""]),
    st.integers(-400, 400).map(lambda k: (10 ** abs(k) - 1) * (k > 0 or -1)),
    st.floats(), st.text(max_size=3))
_VALUES = st.recursive(_SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=3),
    st.dictionaries(st.text(max_size=3), inner, max_size=3)), max_leaves=6)
_DROP = object()


def _mutated(**fields):
    """Objects with the given fields drawn from their strategies, then up
    to two fields replaced by arbitrary JSON values or removed."""
    def apply(args):
        doc, changes = args
        return {k: v for k, v in {**doc, **changes}.items() if v is not _DROP}
    return st.tuples(
        st.fixed_dictionaries(fields),
        st.dictionaries(st.sampled_from(sorted(fields)),
                        st.one_of(st.just(_DROP), _VALUES), max_size=2)
    ).map(apply)


_GRIDS = _mutated(az_start_deg=st.just(0.0), az_step_deg=st.just(1.0),
                  n_az=st.sampled_from([1, 2, 4]), el_start_deg=st.just(0.0),
                  el_step_deg=st.just(1.0), n_el=st.sampled_from([1, 2]))
_TENSOR_DOCS = _mutated(
    format=st.just("cir_tensor"), dtype=st.just("c64le"), grid=_GRIDS,
    sample_rate_ghz=st.just(2.0), n_taps=st.sampled_from([0, 4, 8, 16]),
    data_file=st.sampled_from(["t.bin", "empty.bin", "missing.bin", "..",
                               "", "a/b"]))
_RAYS = _mutated(**{k: st.just(1.0) for k in (
    "delay_offset_ns", "amplitude", "phase_rad", "az_offset_deg",
    "el_offset_deg")})
_CLUSTERS = _mutated(kind=st.sampled_from(["LOS", "NLOS", "X"]),
                     center_az_deg=st.just(0.0), center_el_deg=st.just(0.0),
                     base_delay_ns=st.just(1.0),
                     rays=st.lists(_RAYS, max_size=2))
_TRUTH_DOCS = _mutated(format=st.just("truth"),
                       clusters=st.lists(_CLUSTERS, max_size=3))
_REALIZATION_DOCS = _mutated(index=st.sampled_from([0, 3]),
                             cir=st.just("t.json"), pas=st.none(),
                             truth=st.just("u.json"))
_SIMULATION_DOCS = _mutated(
    format=st.just("simulation"),
    realizations=st.lists(_REALIZATION_DOCS, max_size=2),
    config=st.just(small_sim().to_dict()), seed=st.just(1),
    n_realizations=st.just(2))
_GEVS = _mutated(gamma=st.just(0.0), mu=st.just(0.0), sigma=st.just(1.0))
_MLR_DOCS = _mutated(
    format=st.just("mlr_model"),
    tables=st.dictionaries(st.sampled_from(["r_p", "k_t", "x"]),
                           _mutated(los=_GEVS, nlos=_GEVS), max_size=2))
_ANN_DOCS = _mutated(format=st.just("ann_model"), **{
    name: st.just(np.zeros(shape).tolist())
    for name, shape in ANN_ARRAYS.items()})


_PARSERS = {"table.csv": (load_features, load_sweep_csv),
            "t.json": (load_cir_tensor, load_truth, _load_model,
                       inputs_from_manifest)}
_INPUTS = st.one_of(
    _CSV_TEXT.map(lambda data: ("table.csv", data)),
    st.one_of(_TENSOR_DOCS, _TRUTH_DOCS, _SIMULATION_DOCS, _MLR_DOCS,
              _ANN_DOCS).map(
        lambda doc: ("t.json", json_with_raw_numbers(doc).encode())))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_INPUTS)
def test_parsers_raise_only_data_format_errors(case, tmp_path_factory):
    """Feature and sweep tables from arbitrary bytes, tensor and simulation
    manifests, truth files and model documents from arbitrary JSON objects:
    every rejection is a DataFormatError, which the command line maps to
    exit 3."""
    name, data = case
    d = tmp_path_factory.getbasetemp() / "parser_fuzz"
    d.mkdir(exist_ok=True)
    (d / "t.bin").write_bytes(bytes(16 * 8))
    (d / "empty.bin").write_bytes(b"")
    (d / name).write_bytes(data)
    for parse in _PARSERS[name]:
        try:
            parse(d / name)
        except DataFormatError:
            pass
