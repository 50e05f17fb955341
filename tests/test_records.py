"""The shared Record base: JSON round trips and field types of every stored
dataclass."""

import dataclasses
import json

import pytest
from hypothesis import given, settings, strategies as st

from nlosid import (LOS, NLOS, AngularGrid, ConfigError, DataFormatError,
                    ExperimentConfig, GevParams, MetricConfig, Ray,
                    RayCluster, SegParams, SimConfig, TrainSchedule)
from nlosid.errors import Record
from nlosid.experiment import BootstrapSpec


def _real(lo: int, hi: int):
    """Numbers in [lo, hi], integers among them, for fields typed float."""
    return st.one_of(st.integers(lo, hi),
                     st.floats(lo, hi, allow_subnormal=False))


_RAYS = st.builds(Ray, *[_real(-10, 10)] * 5)
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
RECORDS = {
    AngularGrid: st.builds(
        AngularGrid, az_start_deg=_real(-180, 180), az_step_deg=_real(1, 10),
        n_az=st.integers(1, 36), el_start_deg=_real(-90, 90),
        el_step_deg=_real(1, 10), n_el=st.integers(1, 36)),
    Ray: _RAYS,
    RayCluster: st.builds(RayCluster, st.sampled_from([LOS, NLOS]),
                          _real(-180, 180), _real(-90, 90), _real(0, 40),
                          st.lists(_RAYS, max_size=3).map(tuple)),
    GevParams: st.builds(GevParams, gamma=_real(-2, 2), mu=_real(-100, 100),
                         sigma=_real(1, 100)),
    SimConfig: _SIMS,
    SegParams: _SEGS,
    MetricConfig: st.builds(
        MetricConfig, r_p_mode=st.sampled_from(["kurtosis", "covariance"])),
    TrainSchedule: st.builds(TrainSchedule, max_epochs=st.integers(1, 10**6),
                             loss_tolerance=_real(0, 1)),
    BootstrapSpec: st.builds(BootstrapSpec, *[st.integers(1, 50)] * 3),
    ExperimentConfig: st.builds(
        ExperimentConfig, mode=st.sampled_from(["simulate", "measured"]),
        sim=_SIMS, seg=_SEGS, n_realizations=st.integers(2, 500),
        n_train=st.just(1), n_test=st.just(1), seed=st.integers(0, 2**64),
        features_csv=st.none() | st.just("table.csv")),
}


def _subclasses(cls) -> set:
    return {c for sub in cls.__subclasses__()
            for c in {sub, *_subclasses(sub)}}


def test_every_record_class_is_covered():
    assert set(RECORDS) == _subclasses(Record)


@settings(max_examples=200, deadline=None)
@given(record=st.one_of(*RECORDS.values()))
def test_records_round_trip_through_json(record):
    """from_dict inverts to_dict through JSON text, and every field typed
    float holds a float (the strategies give some of them integers)."""
    text = json.dumps(record.to_dict())
    assert type(record).from_dict(json.loads(text)) == record
    for r in [record, *getattr(record, "rays", ())]:
        for field in dataclasses.fields(r):
            if field.type in (int, float):
                assert type(getattr(r, field.name)) is field.type


@pytest.mark.parametrize("cls, error", [(SegParams, ConfigError),
                                        (GevParams, DataFormatError)])
def test_records_refuse_bools_and_non_numbers(cls, error):
    good = {"foreground_threshold_db": 10.0, "min_pixels": 2} \
        if cls is SegParams else {"gamma": 0.0, "mu": 0.0, "sigma": 1.0}
    for name in good:
        for bad in (True, "1", None, [1.0]):
            with pytest.raises(error, match=f"{cls.__name__}.{name} must"):
                cls.from_dict({**good, name: bad})


def test_data_records_raise_data_format_errors():
    with pytest.raises(DataFormatError, match="bad GevParams: scale"):
        GevParams.from_dict({"gamma": 0.0, "mu": 0.0, "sigma": -1.0})
    with pytest.raises(DataFormatError, match="RayCluster must be an object"):
        RayCluster.from_dict([])
    with pytest.raises(DataFormatError, match="rays must be a list"):
        RayCluster.from_dict({"kind": LOS, "center_az_deg": 0.0,
                              "center_el_deg": 0.0, "base_delay_ns": 1.0,
                              "rays": 5})
    with pytest.raises(DataFormatError, match="bad Ray: int too large"):
        Ray.from_dict({"delay_offset_ns": 0.0, "amplitude": 10 ** 400,
                       "phase_rad": 0.0, "az_offset_deg": 0.0,
                       "el_offset_deg": 0.0})
    with pytest.raises(DataFormatError, match="bad AngularGrid: .*missing"):
        AngularGrid.from_dict({"n_az": 2})
