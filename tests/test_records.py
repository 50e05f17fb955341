"""The shared Record base: JSON round trips and field types of every stored
dataclass."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlosid import (LOS, NLOS, AngularGrid, AnnModel, ConfigError,
                    DataFormatError, ExperimentConfig, GevPair, GevParams,
                    MetricConfig, MlrModel, Ray, RayCluster, SegParams,
                    SimConfig, TrainSchedule, ann_init)
from nlosid.classifiers import ANN_ARRAYS
from nlosid.errors import Record
from nlosid.experiment import (ERROR_TABLE_ROWS, BootstrapSpec, ErrorRates,
                               FitPair, GevFit, Report)
from nlosid.fileio import (Realization, SimulationManifest, TensorManifest,
                           Truth)
from nlosid.metrics import METRIC_NAMES


def _real(lo: int, hi: int):
    """Numbers in [lo, hi], integers among them, for fields typed float."""
    return st.one_of(st.integers(lo, hi),
                     st.floats(lo, hi, allow_subnormal=False))


_RAYS = st.builds(Ray, *[_real(-10, 10)] * 5)
_GRIDS = st.builds(
    AngularGrid, az_start_deg=_real(-180, 180), az_step_deg=_real(1, 10),
    n_az=st.integers(1, 36), el_start_deg=_real(-90, 90),
    el_step_deg=_real(1, 10), n_el=st.integers(1, 36))
_CLUSTERS = st.builds(RayCluster, st.sampled_from([LOS, NLOS]),
                      _real(-180, 180), _real(-90, 90), _real(0, 40),
                      st.lists(_RAYS, max_size=3).map(tuple))
_NAMES = st.sampled_from(["real_0000.json", "t.json", "sub/truth_7.json"])
_REALIZATIONS = st.builds(Realization, st.integers(0, 10**6), _NAMES,
                          st.none() | _NAMES, st.none() | _NAMES)
_SIMS = st.builds(
    SimConfig, az_range_deg=st.sampled_from([(-60, 60), (-180.0, 180.0)]),
    step_deg=st.sampled_from([5, 2.5]), hpbw_az_deg=_real(1, 20),
    n_taps=st.integers(64, 4096), snr_db=st.none() | _real(-100, 100),
    n_nlos_mean=_real(1, 8), decay_ns=_real(1, 10),
    angular_jitter_deg=_real(0, 5), los_present=st.booleans())
_SEGS = st.builds(SegParams, foreground_threshold_db=_real(1, 30),
                  min_pixels=st.integers(1, 9),
                  marker_min_separation=_real(0, 9),
                  smoothing_radius=st.integers(0, 3))
_GEVS = st.builds(GevParams, gamma=_real(-2, 2), mu=_real(-100, 100),
                  sigma=_real(1, 100))
_PAIRS = st.builds(GevPair, _GEVS, _GEVS)
_FITS = st.builds(GevFit, gamma=_real(-2, 2), mu=_real(-100, 100),
                  sigma=_real(1, 100), cdf_rmse=_real(0, 1))
_FIT_PAIRS = st.builds(FitPair, _FITS, _FITS)
_RATES = st.builds(ErrorRates, _real(0, 1), _real(0, 1))
_CONFIGS = st.builds(
    ExperimentConfig, mode=st.sampled_from(["simulate", "measured"]),
    sim=_SIMS, seg=_SEGS, n_realizations=st.integers(2, 500),
    n_train=st.just(1), n_test=st.just(1), seed=st.integers(0, 2**64),
    features_csv=st.none() | st.just("table.csv"))
# JSON objects that come back equal from JSON text
_OBJECTS = st.dictionaries(st.text(max_size=8), st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8), max_size=4)
RECORDS = {
    AngularGrid: _GRIDS,
    Ray: _RAYS,
    RayCluster: _CLUSTERS,
    GevParams: _GEVS,
    GevPair: _PAIRS,
    MlrModel: st.builds(MlrModel, st.dictionaries(
        st.sampled_from(METRIC_NAMES), _PAIRS, min_size=1)),
    SimConfig: _SIMS,
    SegParams: _SEGS,
    MetricConfig: st.builds(
        MetricConfig, r_p_mode=st.sampled_from(["kurtosis", "covariance"])),
    TrainSchedule: st.builds(TrainSchedule, max_epochs=st.integers(1, 10**6),
                             loss_tolerance=_real(0, 1)),
    BootstrapSpec: st.builds(BootstrapSpec, *[st.integers(1, 50)] * 3),
    ExperimentConfig: _CONFIGS,
    GevFit: _FITS,
    FitPair: _FIT_PAIRS,
    ErrorRates: _RATES,
    # a report's mode is its config's
    Report: st.builds(
        lambda config, **fields: Report(config.mode, config, **fields),
        _CONFIGS, counts=_OBJECTS,
        gev_table=st.dictionaries(st.sampled_from(METRIC_NAMES), _FIT_PAIRS),
        error_table=st.dictionaries(st.sampled_from(ERROR_TABLE_ROWS),
                                    _RATES),
        diagnostics=_OBJECTS, curves=_OBJECTS),
    AnnModel: st.builds(AnnModel, **{
        name: st.lists(_real(-10, 10), min_size=math.prod(shape),
                       max_size=math.prod(shape)).map(
            lambda cells, shape=shape: np.reshape(cells, shape))
        for name, shape in ANN_ARRAYS.items()},
        training=st.none() | _OBJECTS),
    TensorManifest: st.builds(
        TensorManifest, _GRIDS, _real(1, 10), st.integers(0, 4096),
        st.just("c64le"), st.sampled_from(["t.bin", "real_0001.bin"])),
    Truth: st.builds(Truth, st.lists(_CLUSTERS, max_size=3).map(tuple)),
    Realization: _REALIZATIONS,
    SimulationManifest: st.builds(
        SimulationManifest, st.lists(_REALIZATIONS, max_size=3).map(tuple),
        st.none() | _SIMS, st.none() | st.integers(0, 2**64),
        st.none() | st.integers(1, 500)),
}


def _subclasses(cls) -> set:
    return {c for sub in cls.__subclasses__()
            for c in {sub, *_subclasses(sub)}}


def test_every_record_class_is_covered():
    assert set(RECORDS) == _subclasses(Record)


@settings(max_examples=200, deadline=None)
@given(record=st.one_of(*RECORDS.values()))
def test_records_round_trip_through_json(record):
    """from_dict inverts to_dict through JSON text, and every scalar field
    holds its annotated type (the strategies give some float fields
    integers)."""
    text = json.dumps(record.to_dict())
    back = type(record).from_dict(json.loads(text))
    assert json.dumps(back.to_dict()) == text
    if type(record).__dataclass_params__.eq:   # not AnnModel's arrays
        assert back == record
    for r in [record, *getattr(record, "rays", ())]:
        for field in dataclasses.fields(r):
            value = getattr(r, field.name)
            if field.type in (bool, int, float, str):
                assert type(value) is field.type
            elif field.type == tuple[float, float]:
                assert type(value) is tuple and set(map(type, value)) \
                    == {float}
            elif field.type is np.ndarray:
                assert value.dtype == np.float64


@pytest.mark.parametrize("cls, error", [(SegParams, ConfigError),
                                        (GevParams, DataFormatError)])
def test_records_refuse_bools_and_non_numbers(cls, error):
    good = {"foreground_threshold_db": 10.0, "min_pixels": 2} \
        if cls is SegParams else {"gamma": 0.0, "mu": 0.0, "sigma": 1.0}
    for name in good:
        for bad in (True, "1", None, [1.0]):
            with pytest.raises(error, match=f"{cls.__name__}.{name} must"):
                cls.from_dict({**good, name: bad})


@pytest.mark.parametrize("cls, doc, message", [
    (SimConfig, {"los_present": "no"}, "los_present must be a boolean"),
    (SimConfig, {"los_present": 0}, "los_present must be a boolean"),
    (SimConfig, {"snr_db": "x"}, "snr_db must be a real number or null"),
    (MetricConfig, {"r_p_mode": 5}, "r_p_mode must be a string, got 5"),
    (ExperimentConfig, {"features_csv": 5},
     "features_csv must be a string or null"),
    (ExperimentConfig, {"mode": None}, "mode must be a string, got None"),
    (Realization, {"index": 0, "cir": "t.json", "truth": 1},
     "truth must be a string or null"),
    (SimulationManifest, {"seed": True}, "seed must be an integer or null"),
])
def test_records_type_bools_strings_and_optional_fields(cls, doc, message):
    with pytest.raises(cls.error, match=f"{cls.__name__}.{message}"):
        cls.from_dict(doc)


_RAY = {"delay_offset_ns": 0.0, "amplitude": 1.0, "phase_rad": 0.0,
        "az_offset_deg": 0.0, "el_offset_deg": 0.0}


@pytest.mark.parametrize("cls, doc, message", [
    (Ray, {**_RAY, "amplitude": math.nan}, "Ray.amplitude must be finite, "
                                           "got nan"),
    (Ray, {**_RAY, "phase_rad": -math.inf}, "Ray.phase_rad must be finite, "
                                            "got -inf"),
    (SimConfig, {"snr_db": math.nan}, "SimConfig.snr_db must be finite, "
                                      "got nan"),
    (SimConfig, {"az_range_deg": [0, math.inf]},
     "SimConfig.az_range_deg must be finite, got inf"),
    (SimConfig, {"el_range_deg": [0, 10, 20]},
     r"SimConfig.el_range_deg must be a \[start, stop\] pair of real "
     r"numbers, got \[0, 10, 20\]"),
    (SimConfig, {"el_range_deg": 5}, "SimConfig.el_range_deg must be a"),
    (AnnModel, {"b1": [True] * 10}, "AnnModel.b1 must be an array of real "
                                    "numbers, got True"),
    (AnnModel, {"b1": [None] * 10}, "AnnModel.b1 must be an array of real "
                                    "numbers, got None"),
    (AnnModel, {"iw": [[0.0] * 5] * 9 + [[0.0] * 4]},
     r"AnnModel.iw must be an array of real numbers, got \[0.0, 0.0"),
    (AnnModel, {"lw21": [[0.0] * 10] * 9 + [[0.0] * 9 + [math.inf]]},
     "AnnModel.lw21 must be finite, got inf"),
])
def test_records_refuse_non_finite_numbers(cls, doc, message):
    """Float fields, [start, stop] pairs and arrays take finite real
    numbers only, and the refusal names the field."""
    base = ann_init(0).to_dict() if cls is AnnModel else {}
    with pytest.raises(cls.error, match=message):
        cls.from_dict({**base, **doc})


def test_arrays_are_checked_and_copied_in_memory_too():
    with pytest.raises(DataFormatError, match="AnnModel.iw must be finite"):
        dataclasses.replace(ann_init(0), iw=np.full((10, 5), np.nan))
    weights = np.ones((10, 5), dtype=int)
    model = dataclasses.replace(ann_init(0), iw=weights)
    assert model.iw.dtype == np.float64 and model.iw is not weights
    assert SimConfig(az_range_deg=[-60, 60]).az_range_deg == (-60.0, 60.0)


def test_optional_fields_take_null():
    assert SimConfig.from_dict({"snr_db": None}).snr_db is None
    assert SimulationManifest.from_dict(
        {"config": None, "seed": None}) == SimulationManifest()
    assert Realization.from_dict({"index": 3, "cir": "c.json",
                                  "pas": None}).pas is None


def test_config_errors_inside_data_records_are_data_errors():
    """A manifest's SimConfig is data: its faults exit as format errors."""
    with pytest.raises(DataFormatError,
                       match="bad SimulationManifest: n_taps must be at"):
        SimulationManifest.from_dict({"config": {"n_taps": 8}})


def test_data_records_raise_data_format_errors():
    with pytest.raises(DataFormatError, match="bad GevParams: scale"):
        GevParams.from_dict({"gamma": 0.0, "mu": 0.0, "sigma": -1.0})
    with pytest.raises(DataFormatError, match="RayCluster must be an object"):
        RayCluster.from_dict([])
    with pytest.raises(DataFormatError, match="rays must be a list"):
        RayCluster.from_dict({"kind": LOS, "center_az_deg": 0.0,
                              "center_el_deg": 0.0, "base_delay_ns": 1.0,
                              "rays": 5})
    with pytest.raises(DataFormatError, match="Ray.amplitude must be finite, "
                                              "got an integer too large"):
        Ray.from_dict({"delay_offset_ns": 0.0, "amplitude": 10 ** 400,
                       "phase_rad": 0.0, "az_offset_deg": 0.0,
                       "el_offset_deg": 0.0})
    with pytest.raises(DataFormatError, match="bad AngularGrid: .*missing"):
        AngularGrid.from_dict({"n_az": 2})

