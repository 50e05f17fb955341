"""Likelihood-ratio test and feed-forward network classifiers."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

from nlosid import (LOS, NLOS, AnnModel, ConfigError, DataFormatError,
                    EvaluationError, GevPair, GevParams, MlrModel,
                    TrainSchedule,
                    TrainingError, ann_classify, ann_init, ann_train,
                    error_rates, gev_pdf, mlr_classify, mlr_train, softmax)
from nlosid.classifiers import (LOG_DENSITY_FLOOR, _loss_and_grads,
                                _forward_batch)
from nlosid.metrics import METRIC_NAMES

import oracles
from conftest import make_fv, separable_features


def same_params_model() -> MlrModel:
    """Both hypotheses identical for every metric: all ratios are zero.

    Gumbel shape keeps the support unbounded for any test point."""
    p = GevParams(gamma=0.0, mu=1.0, sigma=0.5)
    return MlrModel({name: GevPair(p, p) for name in METRIC_NAMES})


def zero_model(b3=(0.0, 0.0)) -> AnnModel:
    return AnnModel(iw=np.zeros((10, 5)), b1=np.zeros(10),
                    lw21=np.zeros((10, 10)), b2=np.zeros(10),
                    lw32=np.zeros((2, 10)), b3=np.array(b3, dtype=float),
                    feature_means=np.zeros(5), feature_scales=np.ones(5))


# ---------------------------------------------------------------------------
# likelihood-ratio test


def test_identical_hypotheses_score_zero_resolves_los():
    v = mlr_classify(same_params_model(), [make_fv()])
    assert v.score[0] == 0.0
    assert v.decision[0] == LOS
    assert not v.support_violation[0]


def test_joint_score_is_sum_of_singletons():
    los = {"r_p": GevParams(-1.363, 0.9579, 0.0574),
           "k_t": GevParams(-0.2142, 318.9, 53.49),
           "k_f": GevParams(-0.0813, 2.689, 0.1759),
           "tau_mean_ns": GevParams(0.3242, 1.493, 0.7359),
           "tau_rms_ns": GevParams(-0.0417, 4.514, 0.5047)}
    nlos = {"r_p": GevParams(-0.6214, 0.5588, 0.2789),
            "k_t": GevParams(-0.0658, 177.6, 46.93),
            "k_f": GevParams(0.0806, 2.369, 0.1848),
            "tau_mean_ns": GevParams(-0.1822, 6.673, 3.388),
            "tau_rms_ns": GevParams(0.0483, 5.590, 1.195)}
    model = MlrModel({n: GevPair(los[n], nlos[n]) for n in METRIC_NAMES})
    fv = make_fv(r_p=0.8, k_t=250.0, k_f=2.5, tau_mean_ns=3.0, tau_rms_ns=5.0)
    joint = mlr_classify(model, [fv])
    parts = [mlr_classify(model, [fv], metrics=[n]).score[0]
             for n in METRIC_NAMES]
    assert joint.score[0] == sum(parts)


def test_score_monotone_in_likelihood_ratio():
    model = MlrModel({"r_p": GevPair(GevParams(-0.5, 0.9, 0.05),
                                     GevParams(-0.5, 0.5, 0.2))})
    rows = [make_fv(r_p=x) for x in (0.5, 0.7, 0.85, 0.92)]
    scores = mlr_classify(model, rows, metrics=["r_p"]).score.tolist()
    assert scores == sorted(scores)
    assert mlr_classify(model, [make_fv(r_p=0.92), make_fv(r_p=0.45)],
                        metrics=["r_p"]).decision.tolist() == [LOS, NLOS]


def test_one_sided_support_violation_uses_floor():
    # LOS density vanishes above 1.0; the NLOS edge sits near 1.0076
    model = MlrModel({"r_p": GevPair(GevParams(-1.0, 0.95, 0.05),
                                     GevParams(-0.6214, 0.5588, 0.2789))})
    x = 1.005
    assert gev_pdf(x, model.params("r_p", LOS)) == 0.0
    f_nlos = gev_pdf(x, model.params("r_p", NLOS))
    assert f_nlos > 0.0
    v = mlr_classify(model, [make_fv(r_p=x)], metrics=["r_p"])
    assert v.support_violation[0]
    assert v.score[0] == pytest.approx(LOG_DENSITY_FLOOR - math.log(f_nlos))
    assert v.decision[0] == NLOS


def test_point_outside_both_supports_is_nlos():
    pair = GevPair(GevParams(-1.0, 0.9, 0.05), GevParams(-1.0, 0.5, 0.1))
    gumbel = GevParams(0.0, 300.0, 50.0)
    model = MlrModel({"r_p": pair, "k_t": GevPair(gumbel, gumbel)})
    v = mlr_classify(model, [make_fv(r_p=5.0)], metrics=["r_p", "k_t"])
    assert v.decision[0] == NLOS
    assert v.score[0] == -math.inf
    assert v.support_violation[0]


def test_metric_subset_validation():
    model = same_params_model()
    with pytest.raises(ConfigError):
        mlr_classify(model, [make_fv()], metrics=["r_p", "bogus"])
    with pytest.raises(ConfigError):
        mlr_classify(model, [make_fv()], metrics=[])
    # the model, not the request, lacks the metric
    gumbel = GevParams(0.0, 1.0, 1.0)
    small = MlrModel({"r_p": GevPair(gumbel, gumbel)})
    with pytest.raises(DataFormatError, match="no tables for"):
        mlr_classify(small, [make_fv()], metrics=["k_t"])


def test_subset_order_does_not_change_score():
    model = same_params_model()
    fv = make_fv()
    a = mlr_classify(model, [fv], metrics=["k_f", "r_p"])
    b = mlr_classify(model, [fv], metrics=["r_p", "k_f"])
    assert a.score[0] == b.score[0]


def test_mlr_train_class_floor():
    feats = separable_features(n_per_class=40)
    los = [f for f in feats if f.label == LOS]
    nlos = [f for f in feats if f.label == NLOS]
    with pytest.raises(TrainingError, match="class NLOS has 19"):
        mlr_train(los + nlos[:19])
    model = mlr_train(feats)
    assert set(model.tables) == set(METRIC_NAMES)


def test_mlr_train_separates_engineered_classes():
    feats = separable_features(n_per_class=60)
    model = mlr_train(feats)
    verdicts = mlr_classify(model, feats, metrics=["r_p"])
    assert verdicts.decision.tolist() == [f.label for f in feats]


_gev = st.builds(GevParams,
                 gamma=st.one_of(st.just(0.0), st.floats(-0.9, 0.9)),
                 mu=st.floats(-2.0, 2.0), sigma=st.floats(0.05, 3.0))


# without the explain phase, which traces every line and takes minutes to
# report a failure here
_PHASES = (Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink)


@settings(max_examples=60, deadline=None, phases=_PHASES)
@given(pairs=st.lists(st.tuples(_gev, _gev, st.booleans()),
                      min_size=5, max_size=5),
       subset=st.one_of(st.none(), st.sets(st.sampled_from(METRIC_NAMES),
                                           min_size=1)),
       all_tied=st.booleans(),
       values=st.lists(st.lists(st.floats(-12.0, 12.0), min_size=5,
                                max_size=5), max_size=12))
def test_ratio_test_table_matches_rows(pairs, subset, all_tied, values):
    # a tied pair makes that metric's ratio exactly zero
    model = MlrModel({name: GevPair(los, los if tied or all_tied else nlos)
                      for name, (los, nlos, tied) in zip(METRIC_NAMES, pairs)})
    rows = [make_fv(*v) for v in values]
    names = [n for n in METRIC_NAMES if subset is None or n in subset]
    table = mlr_classify(model, rows, metrics=subset)
    assert table.decision.shape == table.score.shape \
        == table.support_violation.shape == (len(rows),)
    for i, fv in enumerate(rows):
        score, violation = oracles.ratio_score_oracle(model, fv, names,
                                                      LOG_DENSITY_FLOOR)
        row = mlr_classify(model, [fv], metrics=subset)
        assert table.decision[i] == row.decision[0] \
            == (LOS if score >= 0.0 else NLOS)
        assert table.support_violation[i] == row.support_violation[0] \
            == violation
        if math.isinf(score):
            assert table.score[i] == score
        else:
            assert table.score[i] == pytest.approx(score, rel=1e-12, abs=0.0)


@settings(max_examples=40, deadline=None, phases=_PHASES)
@given(seed=st.integers(0, 2 ** 32 - 1), zero=st.booleans(),
       values=st.lists(st.lists(st.floats(-50.0, 50.0), min_size=5,
                                max_size=5), max_size=12))
def test_network_table_matches_rows(seed, zero, values):
    # the zero network ties every row at 0.5, which keeps LOS
    model = zero_model() if zero else ann_init(seed)
    rows = [make_fv(*v) for v in values]
    table = ann_classify(model, rows)
    assert table.decision.shape == table.score.shape \
        == table.support_violation.shape == (len(rows),)
    assert not table.support_violation.any()
    for i, fv in enumerate(rows):
        score = oracles.network_score_oracle(model, fv)
        assert table.decision[i] == ann_classify(model, [fv]).decision[0]
        assert table.decision[i] == (LOS if score >= 0.5 else NLOS)
        assert table.score[i] == pytest.approx(score, rel=1e-12, abs=0.0)


def test_model_validation():
    with pytest.raises(ConfigError):
        MlrModel({})
    with pytest.raises(ConfigError):
        gumbel = GevParams(0.0, 0.0, 1.0)
        MlrModel({"nope": GevPair(gumbel, gumbel)})


# ---------------------------------------------------------------------------
# network forward pass


def test_zero_network_outputs_half():
    model = zero_model()
    x = (make_fv().values() - model.feature_means) / model.feature_scales
    a1, a2, a3 = _forward_batch(model.weights(), x[None, :])
    assert np.array_equal(a3, [[0.5, 0.5]])
    assert np.all(a1 == 0.0) and np.all(a2 == 0.0)
    # a tie keeps the line-of-sight hypothesis
    v = ann_classify(zero_model(), [make_fv()])
    assert v.decision[0] == LOS and v.score[0] == 0.5


@pytest.mark.filterwarnings("error")
def test_overflowed_network_sums_saturate_without_a_warning():
    """An input weight of 1e308 overflows the first layer's sum; tanh
    saturates it, so the score stays finite."""
    iw = ann_init(0).iw.copy()
    iw[3][4] = 1e308
    score, = ann_classify(replace(ann_init(0), iw=iw), [make_fv()]).score
    assert 0.0 < score < 1.0


@pytest.mark.filterwarnings("error")
def test_a_non_finite_network_output_is_refused():
    """Scales of 1e-308 standardize k_t and tau_rms_ns to inf, and an input
    row weighting them 1 and -1 sums inf - inf, a NaN that tanh and softmax
    pass on: no verdict is given."""
    model = ann_init(0)
    iw = model.iw.copy()
    iw[3][1], iw[3][4] = 1.0, -1.0
    scales = np.array([1.0, 1e-308, 1.0, 1.0, 1e-308])
    with pytest.raises(EvaluationError, match="network output is not finite"):
        ann_classify(replace(model, iw=iw, feature_scales=scales),
                     [make_fv()])


def test_softmax_rows_normalized(rng):
    z = rng.normal(0, 50, (1000, 2))
    s = softmax(z)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(s > 0)
    # invariant to a per-row shift
    assert np.allclose(softmax(z + 123.0), s, atol=1e-12)


def test_output_bias_pins_probabilities():
    model = zero_model(b3=(math.log(0.9), math.log(0.1)))
    v = ann_classify(model, [make_fv()])
    assert v.score[0] == pytest.approx(0.9, abs=1e-12)
    assert v.decision[0] == LOS
    flipped = zero_model(b3=(math.log(0.1), math.log(0.9)))
    v = ann_classify(flipped, [make_fv()])
    assert v.score[0] == pytest.approx(0.1, abs=1e-12)
    assert v.decision[0] == NLOS


def test_model_shape_validation():
    with pytest.raises(ConfigError, match="iw"):
        AnnModel(iw=np.zeros((5, 10)), b1=np.zeros(10),
                 lw21=np.zeros((10, 10)), b2=np.zeros(10),
                 lw32=np.zeros((2, 10)), b3=np.zeros(2),
                 feature_means=np.zeros(5), feature_scales=np.ones(5))


def test_init_is_seeded_and_bounded():
    a = ann_init(3)
    b = ann_init(3)
    c = ann_init(4)
    assert np.array_equal(a.iw, b.iw) and np.array_equal(a.lw32, b.lw32)
    assert not np.array_equal(a.iw, c.iw)
    assert np.all(np.abs(a.iw) <= math.sqrt(6.0 / 15))
    assert np.all(np.abs(a.lw21) <= math.sqrt(6.0 / 20))
    assert np.all(np.abs(a.lw32) <= math.sqrt(6.0 / 12))
    assert np.all(a.b1 == 0) and np.all(a.b2 == 0) and np.all(a.b3 == 0)


# ---------------------------------------------------------------------------
# network training


def test_gradients_match_finite_differences(rng):
    model = ann_init(11)
    weights = model.weights()
    x = rng.normal(0, 1, (5, 5))
    y = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
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
            rel = abs(analytic - numeric) / max(abs(analytic),
                                                abs(numeric), 1e-6)
            worst = max(worst, rel)
    assert worst < 1e-5


def test_training_reaches_perfect_accuracy_on_separable_data():
    feats = separable_features(n_per_class=40)
    model = ann_train(ann_init(0), feats,
                      TrainSchedule(max_epochs=2000))
    verdicts = ann_classify(model, feats)
    assert verdicts.decision.tolist() == [f.label for f in feats]


def test_training_loss_never_increases_on_best_weights():
    feats = separable_features(n_per_class=30)
    init = ann_init(2)
    raw = np.array([f.values() for f in feats])
    x = (raw - raw.mean(axis=0)) / raw.std(axis=0)
    y = np.array([[1.0, 0.0] if f.label == LOS else [0.0, 1.0]
                  for f in feats])
    trained = ann_train(init, feats, TrainSchedule(max_epochs=300))
    xs = (raw - trained.feature_means) / trained.feature_scales
    assert _loss_and_grads(trained.weights(), xs, y)[0] <= _loss_and_grads(
        init.weights(), x, y)[0] + 1e-12


def test_standardization_reflects_the_data():
    feats = separable_features(n_per_class=10)
    out = ann_train(ann_init(6), feats, TrainSchedule(max_epochs=50))
    raw = np.array([f.values() for f in feats])
    assert np.allclose(out.feature_means, raw.mean(axis=0))
    assert np.allclose(out.feature_scales, raw.std(axis=0))


def test_training_is_deterministic():
    feats = separable_features(n_per_class=15)
    a = ann_train(ann_init(9), feats, TrainSchedule(max_epochs=120))
    b = ann_train(ann_init(9), feats, TrainSchedule(max_epochs=120))
    for wa, wb in zip(a.weights(), b.weights()):
        assert np.array_equal(wa, wb)


def test_consistent_feature_rescaling_keeps_decisions():
    # standardization absorbs any affine change applied to one raw metric
    feats = separable_features(n_per_class=25)
    scaled = [make_fv(r_p=f.metric("r_p"), k_t=4.0 * f.metric("k_t"),
                      k_f=f.metric("k_f"),
                      tau_mean_ns=f.metric("tau_mean_ns"),
                      tau_rms_ns=f.metric("tau_rms_ns"), label=f.label)
              for f in feats]
    base = ann_train(ann_init(1), feats, TrainSchedule(max_epochs=400))
    moved = ann_train(ann_init(1), scaled, TrainSchedule(max_epochs=400))
    assert ann_classify(base, feats).score == pytest.approx(
        ann_classify(moved, scaled).score, abs=1e-9)


def test_non_finite_training_loss_raises():
    """A network holds finite weights only, so the loss is broken through
    features whose standardization overflows."""
    huge = [replace(f, r_p=1e308) for f in separable_features(n_per_class=5)]
    with pytest.raises(TrainingError, match="training loss became nan"), \
            np.errstate(over="ignore", invalid="ignore"):
        ann_train(ann_init(0), huge)


def test_ann_train_class_floor():
    feats = separable_features(n_per_class=5)
    los_only = [f for f in feats if f.label == LOS]
    with pytest.raises(TrainingError, match="at least 2 samples per class"):
        ann_train(ann_init(0), los_only + [f for f in feats
                                           if f.label == NLOS][:1])


def test_schedule_validation_and_round_trip():
    with pytest.raises(ConfigError):
        TrainSchedule(max_epochs=0)
    with pytest.raises(ConfigError):
        TrainSchedule(loss_tolerance=-1e-9)
    s = TrainSchedule(max_epochs=10, loss_tolerance=1e-6)
    assert TrainSchedule.from_dict(s.to_dict()) == s
    with pytest.raises(ConfigError, match="unknown TrainSchedule fields"):
        TrainSchedule.from_dict({"learning_rate": 0.1})


# ---------------------------------------------------------------------------
# evaluation


def test_error_rates_reference_points():
    truths = [LOS] * 10 + [NLOS] * 10
    assert error_rates(truths, truths) == (0.0, 0.0)
    flipped = [NLOS] * 10 + [LOS] * 10
    assert error_rates(flipped, truths) == (1.0, 1.0)
    decisions = list(truths)
    decisions[0] = NLOS                       # one missed LOS
    decisions[10] = decisions[11] = decisions[12] = LOS
    assert error_rates(decisions, truths) == (0.1, 0.3)


_label = st.sampled_from([LOS, NLOS])


@settings(max_examples=100, deadline=None, phases=_PHASES)
@given(pairs=st.lists(st.tuples(_label, _label), max_size=40),
       extra=st.lists(_label, min_size=1, max_size=3))
def test_error_rates_equal_a_per_row_count(pairs, extra):
    decisions = np.array([d for d, _ in pairs], dtype=str)
    truths = np.array([t for _, t in pairs], dtype=str)
    n_los = sum(1 for _, t in pairs if t == LOS)
    n_nlos = len(pairs) - n_los
    if n_los and n_nlos:
        assert error_rates(decisions, truths) == (
            sum(1 for d, t in pairs if t == LOS and d == NLOS) / n_los,
            sum(1 for d, t in pairs if t == NLOS and d == LOS) / n_nlos)
    else:
        with pytest.raises(EvaluationError, match="both classes"):
            error_rates(decisions, truths)
    with pytest.raises(EvaluationError, match="decisions against"):
        error_rates(np.append(decisions, extra), truths)


def test_error_rates_validation():
    with pytest.raises(EvaluationError):
        error_rates([LOS], [LOS, NLOS])
    with pytest.raises(EvaluationError):
        error_rates([LOS, LOS], [LOS, LOS])
