"""Likelihood-ratio test and feed-forward network classifiers."""

import math

import numpy as np
import pytest

from nlosid import (LOS, NLOS, AnnModel, ConfigError, EvaluationError,
                    GevParams, MlrModel, TrainSchedule, TrainingError,
                    ann_classify, ann_forward, ann_init, ann_train,
                    error_rates, gev_pdf, mlr_classify, mlr_train, softmax)
from nlosid.classifiers import (LOG_DENSITY_FLOOR, _batch_grads, _batch_loss,
                                _forward_batch)
from nlosid.metrics import METRIC_NAMES

from conftest import make_fv, separable_features


def same_params_model() -> MlrModel:
    """Both hypotheses identical for every metric: all ratios are zero.

    Gumbel shape keeps the support unbounded for any test point."""
    p = GevParams(gamma=0.0, mu=1.0, sigma=0.5)
    return MlrModel({name: (p, p) for name in METRIC_NAMES})


def zero_model(b3=(0.0, 0.0)) -> AnnModel:
    return AnnModel(iw=np.zeros((10, 5)), b1=np.zeros(10),
                    lw21=np.zeros((10, 10)), b2=np.zeros(10),
                    lw32=np.zeros((2, 10)), b3=np.array(b3, dtype=float),
                    feature_means=np.zeros(5), feature_scales=np.ones(5))


# ---------------------------------------------------------------------------
# likelihood-ratio test


def test_identical_hypotheses_score_zero_resolves_los():
    v = mlr_classify(same_params_model(), make_fv())
    assert v.score == 0.0
    assert v.decision == LOS
    assert not v.support_violation


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
    model = MlrModel({n: (los[n], nlos[n]) for n in METRIC_NAMES})
    fv = make_fv(r_p=0.8, k_t=250.0, k_f=2.5, tau_mean_ns=3.0, tau_rms_ns=5.0)
    joint = mlr_classify(model, fv)
    parts = [mlr_classify(model, fv, metrics=[n]).score
             for n in METRIC_NAMES]
    assert joint.score == sum(parts)


def test_score_monotone_in_likelihood_ratio():
    model = MlrModel({"r_p": (GevParams(-0.5, 0.9, 0.05),
                              GevParams(-0.5, 0.5, 0.2))})
    scores = [mlr_classify(model, make_fv(r_p=x), metrics=["r_p"]).score
              for x in (0.5, 0.7, 0.85, 0.92)]
    assert scores == sorted(scores)
    assert mlr_classify(model, make_fv(r_p=0.92), metrics=["r_p"]).decision == LOS
    assert mlr_classify(model, make_fv(r_p=0.45), metrics=["r_p"]).decision == NLOS


def test_one_sided_support_violation_uses_floor():
    # LOS density vanishes above 1.0; the NLOS edge sits near 1.0076
    model = MlrModel({"r_p": (GevParams(-1.0, 0.95, 0.05),
                              GevParams(-0.6214, 0.5588, 0.2789))})
    x = 1.005
    assert gev_pdf(x, model.params("r_p", LOS)) == 0.0
    f_nlos = gev_pdf(x, model.params("r_p", NLOS))
    assert f_nlos > 0.0
    v = mlr_classify(model, make_fv(r_p=x), metrics=["r_p"])
    assert v.support_violation
    assert v.score == pytest.approx(LOG_DENSITY_FLOOR - math.log(f_nlos))
    assert v.decision == NLOS


def test_point_outside_both_supports_is_nlos():
    pair = (GevParams(-1.0, 0.9, 0.05), GevParams(-1.0, 0.5, 0.1))
    model = MlrModel({"r_p": pair, "k_t": (GevParams(0.0, 300.0, 50.0),) * 2})
    v = mlr_classify(model, make_fv(r_p=5.0), metrics=["r_p", "k_t"])
    assert v.decision == NLOS
    assert v.score == -math.inf
    assert v.support_violation


def test_metric_subset_validation():
    model = same_params_model()
    with pytest.raises(ConfigError):
        mlr_classify(model, make_fv(), metrics=["r_p", "bogus"])
    with pytest.raises(ConfigError):
        mlr_classify(model, make_fv(), metrics=[])
    small = MlrModel({"r_p": (GevParams(0.0, 1.0, 1.0),) * 2})
    with pytest.raises(ConfigError):
        mlr_classify(small, make_fv(), metrics=["k_t"])


def test_subset_order_does_not_change_score():
    model = same_params_model()
    fv = make_fv()
    a = mlr_classify(model, fv, metrics=["k_f", "r_p"])
    b = mlr_classify(model, fv, metrics=["r_p", "k_f"])
    assert a.score == b.score


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
    verdicts = [mlr_classify(model, f, metrics=["r_p"]) for f in feats]
    wrong = sum(1 for v, f in zip(verdicts, feats) if v.decision != f.label)
    assert wrong == 0


def test_model_validation():
    with pytest.raises(ConfigError):
        MlrModel({})
    with pytest.raises(ConfigError):
        MlrModel({"nope": (GevParams(0.0, 0.0, 1.0),) * 2})


# ---------------------------------------------------------------------------
# network forward pass


def test_zero_network_outputs_half():
    a3, (a1, a2) = ann_forward(zero_model(), make_fv())
    assert np.array_equal(a3, [0.5, 0.5])
    assert np.all(a1 == 0.0) and np.all(a2 == 0.0)
    # a tie keeps the line-of-sight hypothesis
    v = ann_classify(zero_model(), make_fv())
    assert v.decision == LOS and v.score == 0.5


def test_softmax_rows_normalized(rng):
    z = rng.normal(0, 50, (1000, 2))
    s = softmax(z)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(s > 0)
    # invariant to a per-row shift
    assert np.allclose(softmax(z + 123.0), s, atol=1e-12)


def test_output_bias_pins_probabilities():
    model = zero_model(b3=(math.log(0.9), math.log(0.1)))
    v = ann_classify(model, make_fv())
    assert v.score == pytest.approx(0.9, abs=1e-12)
    assert v.decision == LOS
    flipped = zero_model(b3=(math.log(0.1), math.log(0.9)))
    v = ann_classify(flipped, make_fv())
    assert v.score == pytest.approx(0.1, abs=1e-12)
    assert v.decision == NLOS


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
    grads = _batch_grads(weights, x, y)
    eps = 1e-5
    worst = 0.0
    for wi, w in enumerate(weights):
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            bumped = [a.copy() for a in weights]
            bumped[wi][idx] += eps
            up = _batch_loss(tuple(bumped), x, y)
            bumped[wi][idx] -= 2 * eps
            down = _batch_loss(tuple(bumped), x, y)
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
    verdicts = [ann_classify(model, f) for f in feats]
    assert all(v.decision == f.label for v, f in zip(verdicts, feats))


def test_training_loss_never_increases_on_best_weights():
    feats = separable_features(n_per_class=30)
    init = ann_init(2)
    raw = np.array([f.values() for f in feats])
    x = (raw - raw.mean(axis=0)) / raw.std(axis=0)
    y = np.array([[1.0, 0.0] if f.label == LOS else [0.0, 1.0]
                  for f in feats])
    trained = ann_train(init, feats, TrainSchedule(max_epochs=300))
    xs = (raw - trained.feature_means) / trained.feature_scales
    assert _batch_loss(trained.weights(), xs, y) <= _batch_loss(
        init.weights(), x, y) + 1e-12


def test_zero_learning_rate_keeps_weights():
    feats = separable_features(n_per_class=10)
    init = ann_init(6)
    out = ann_train(init, feats, TrainSchedule(learning_rate=0.0,
                                               max_epochs=50))
    for a, b in zip(init.weights(), out.weights()):
        assert np.array_equal(a, b)
    # standardization reflects the data even when no step is taken
    raw = np.array([f.values() for f in feats])
    assert np.allclose(out.feature_means, raw.mean(axis=0))


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
    for f, g in zip(feats, scaled):
        assert ann_classify(base, f).score == pytest.approx(
            ann_classify(moved, g).score, abs=1e-9)


def test_ann_train_class_floor():
    feats = separable_features(n_per_class=5)
    los_only = [f for f in feats if f.label == LOS]
    with pytest.raises(TrainingError, match="at least 2 samples per class"):
        ann_train(ann_init(0), los_only + [f for f in feats
                                           if f.label == NLOS][:1])


def test_schedule_validation_and_round_trip():
    with pytest.raises(ConfigError):
        TrainSchedule(learning_rate=-0.1)
    with pytest.raises(ConfigError):
        TrainSchedule(max_epochs=0)
    with pytest.raises(ConfigError):
        TrainSchedule(loss_tolerance=-1e-9)
    s = TrainSchedule(learning_rate=0.01, max_epochs=10, loss_tolerance=1e-6)
    assert TrainSchedule.from_dict(s.to_dict()) == s
    with pytest.raises(ConfigError):
        TrainSchedule.from_dict({"learning_rate": 0.1, "momentum": 0.9})


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


def test_error_rates_accept_verdicts():
    from nlosid import Verdict
    truths = [LOS, LOS, NLOS, NLOS]
    verdicts = [Verdict(LOS, 1.0), Verdict(NLOS, -1.0),
                Verdict(NLOS, -2.0), Verdict(LOS, 0.5)]
    assert error_rates(verdicts, truths) == (0.5, 0.5)


def test_error_rates_validation():
    with pytest.raises(EvaluationError):
        error_rates([LOS], [LOS, NLOS])
    with pytest.raises(EvaluationError):
        error_rates([LOS, LOS], [LOS, LOS])
