"""LOS/NLOS decision rules over the five cluster metrics.

Two classifiers return the same Verdicts arrays:

  * a maximum-likelihood-ratio test that sums, over any subset of the
    metrics, the log ratio of fitted LOS to NLOS densities; LOS wins at a
    non-negative sum; and
  * a small feed-forward network (5 inputs, two 10-unit hidden layers
    with tanh-sigmoid activations, 2 softmax outputs); its score is the
    LOS output probability and LOS wins at 0.5 or above.

Either way a tied score keeps the line-of-sight hypothesis.
"""

import math
from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .chansim import LOS, NLOS
from .errors import (NON_NEGATIVE, POSITIVE, ConfigError, DataFormatError,
                     EvaluationError, Record, TrainingError)
from .gevstats import GevParams, gev_fit_mle, gev_pdf
from .metrics import METRIC_NAMES

# log density assigned to a metric value outside one fitted support; keeps
# scores finite and ordered while still dominating any in-support term
LOG_DENSITY_FLOOR = -745.0

N_INPUT = 5
N_HIDDEN = 10
N_OUTPUT = 2

# the arrays an AnnModel holds, with their shapes
ANN_ARRAYS = {
    "iw": (N_HIDDEN, N_INPUT), "b1": (N_HIDDEN,),
    "lw21": (N_HIDDEN, N_HIDDEN), "b2": (N_HIDDEN,),
    "lw32": (N_OUTPUT, N_HIDDEN), "b3": (N_OUTPUT,),
    "feature_means": (N_INPUT,), "feature_scales": (N_INPUT,),
}


@dataclass(frozen=True, eq=False)
class Verdicts:
    """One classification of n feature rows, as (n,) arrays in row order."""

    decision: np.ndarray           # LOS or NLOS
    score: np.ndarray              # log-likelihood ratio, or LOS probability
    support_violation: np.ndarray  # always False for the network


@dataclass(frozen=True)
class TrainSchedule(Record):
    max_epochs: Annotated[int, POSITIVE] = 5000   # L-BFGS-B iteration cap
    loss_tolerance: Annotated[float, NON_NEGATIVE] = 1e-8   # L-BFGS-B ftol


# ---------------------------------------------------------------------------
# maximum-likelihood-ratio test


@dataclass(frozen=True)
class GevPair(Record):
    """The fitted LOS and NLOS distributions of one metric."""

    error = DataFormatError

    los: GevParams
    nlos: GevParams


@dataclass(frozen=True)
class MlrModel(Record):
    """Fitted GEV parameter pair per metric."""

    FORMAT = "mlr_model"
    error = DataFormatError

    tables: dict[str, GevPair]

    def __post_init__(self):
        unknown = set(self.tables) - set(METRIC_NAMES)
        if unknown:
            raise ConfigError(f"unknown metrics in model: {sorted(unknown)}")
        if not self.tables:
            raise ConfigError("model carries no metrics")

    def params(self, metric: str, label: str) -> GevParams:
        pair = self.tables[metric]
        return pair.los if label == LOS else pair.nlos


def _table(features) -> np.ndarray:
    """(n, 5) metric array of a sequence of feature vectors."""
    return np.array([f.values() for f in features]).reshape(-1, N_INPUT)


def labelled_table(features) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 5) metric table of a labelled feature list and its (n,) LOS
    mask, both in row order; a row labelled neither LOS nor NLOS is
    refused."""
    labels = [f.label for f in features]
    stray = len(labels) - labels.count(LOS) - labels.count(NLOS)
    if stray:
        raise TrainingError(f"{stray} feature vectors carry no usable label")
    return _table(features), np.array(labels) == LOS


def mlr_train(features: list) -> MlrModel:
    """Fit per-class GEV distributions to every metric of a labelled
    feature set."""
    x, is_los = labelled_table(features)
    classes = ((LOS, is_los), (NLOS, ~is_los))
    for label, rows in classes:
        if rows.sum() < 20:
            raise TrainingError(
                f"class {label} has {rows.sum()} samples; need at least 20 "
                f"to fit its distributions")
    tables = {}
    for j, name in enumerate(METRIC_NAMES):
        pair = []
        for label, rows in classes:
            try:
                pair.append(gev_fit_mle(x[rows, j]))
            except Exception as exc:
                raise TrainingError(
                    f"fitting metric {name}, class {label}: {exc}") from exc
        tables[name] = GevPair(*pair)
    return MlrModel(tables)


def _validated_subset(metrics) -> tuple:
    if metrics is None:
        return METRIC_NAMES
    subset = tuple(metrics)
    unknown = set(subset) - set(METRIC_NAMES)
    if unknown:
        raise ConfigError(f"unknown metrics requested: {sorted(unknown)}")
    if not subset:
        raise ConfigError("metric subset is empty")
    # canonical order keeps scores independent of caller ordering
    return tuple(n for n in METRIC_NAMES if n in subset)


def mlr_classify(model: MlrModel, features, metrics=None) -> Verdicts:
    """Sum of per-metric log density ratios; LOS wins at a non-negative sum.

    features is a sequence of FeatureVectors, scored as whole columns: one
    density evaluation per metric and class.

    A metric value outside one class's support contributes the floored log
    density for that side and raises the support_violation flag.  A value
    outside both supports is unlike either hypothesis, which resolves to an
    NLOS verdict with score -inf.
    """
    names = _validated_subset(metrics)
    missing = set(names) - set(model.tables)
    if missing:
        raise DataFormatError(f"model has no tables for: {sorted(missing)}")
    x = _table(features)
    score = np.zeros(len(x))
    violation = np.zeros(len(x), dtype=bool)
    unlike_both = np.zeros(len(x), dtype=bool)
    for name in names:
        column = x[:, METRIC_NAMES.index(name)]
        f_los = gev_pdf(column, model.params(name, LOS))
        f_nlos = gev_pdf(column, model.params(name, NLOS))
        los_zero, nlos_zero = f_los == 0.0, f_nlos == 0.0
        unlike_both |= los_zero & nlos_zero
        violation |= los_zero | nlos_zero
        with np.errstate(divide="ignore"):
            score += (np.where(los_zero, LOG_DENSITY_FLOOR, np.log(f_los))
                      - np.where(nlos_zero, LOG_DENSITY_FLOOR, np.log(f_nlos)))
    score[unlike_both] = -math.inf
    return Verdicts(np.where(score >= 0.0, LOS, NLOS), score, violation)


# ---------------------------------------------------------------------------
# feed-forward network


@dataclass(frozen=True, eq=False)
class AnnModel(Record):
    """Weights, biases, and the feature standardization learned with them,
    and how ann_train stopped."""

    FORMAT = "ann_model"
    error = DataFormatError

    iw: np.ndarray             # (10, 5) input weights
    b1: np.ndarray             # (10,)
    lw21: np.ndarray           # (10, 10) hidden-to-hidden
    b2: np.ndarray             # (10,)
    lw32: np.ndarray           # (2, 10) hidden-to-output
    b3: np.ndarray             # (2,)
    feature_means: np.ndarray  # (5,)
    feature_scales: Annotated[np.ndarray, POSITIVE]  # (5,)
    training: dict | None = None

    def __post_init__(self):
        super().__post_init__()
        for name, shape in ANN_ARRAYS.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ConfigError(
                    f"{name} has shape {arr.shape}, expected {shape}")

    def weights(self) -> tuple:
        return (self.iw, self.b1, self.lw21, self.b2, self.lw32, self.b3)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized against overflow."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def ann_init(seed: int) -> AnnModel:
    """Fresh network with uniform weights in +-sqrt(6 / (fan_in + fan_out)),
    zero biases, and identity feature standardization."""
    rng = np.random.default_rng(seed)

    def draw(n_out, n_in):
        limit = math.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-limit, limit, (n_out, n_in))

    return AnnModel(
        iw=draw(N_HIDDEN, N_INPUT), b1=np.zeros(N_HIDDEN),
        lw21=draw(N_HIDDEN, N_HIDDEN), b2=np.zeros(N_HIDDEN),
        lw32=draw(N_OUTPUT, N_HIDDEN), b3=np.zeros(N_OUTPUT),
        feature_means=np.zeros(N_INPUT), feature_scales=np.ones(N_INPUT),
    )


def _forward_batch(weights: tuple, x: np.ndarray):
    iw, b1, lw21, b2, lw32, b3 = weights
    a1 = np.tanh(x @ iw.T + b1)
    a2 = np.tanh(a1 @ lw21.T + b2)
    a3 = softmax(a2 @ lw32.T + b3)
    return a1, a2, a3


def _loss_and_grads(weights: tuple, x: np.ndarray, y: np.ndarray):
    """Mean squared error of the softmax outputs and its gradient with
    respect to every weight, from one forward pass."""
    iw, b1, lw21, b2, lw32, b3 = weights
    a1, a2, a3 = _forward_batch(weights, x)
    miss = a3 - y
    loss = float(np.mean(np.sum(miss ** 2, axis=1)))
    d_a3 = 2.0 * miss / len(x)
    # softmax jacobian: dz = a * (da - sum_k a_k da_k)
    d_z3 = a3 * (d_a3 - np.sum(a3 * d_a3, axis=1, keepdims=True))
    d_z2 = (d_z3 @ lw32) * (1.0 - a2 ** 2)
    d_z1 = (d_z2 @ lw21) * (1.0 - a1 ** 2)
    return loss, (d_z1.T @ x, d_z1.sum(axis=0), d_z2.T @ a1,
                  d_z2.sum(axis=0), d_z3.T @ a2, d_z3.sum(axis=0))


def _flatten(arrays) -> np.ndarray:
    return np.concatenate([a.ravel() for a in arrays])


def _unflatten(flat: np.ndarray, shapes) -> tuple:
    """Consecutive views of a flat buffer with the given shapes."""
    cuts = np.cumsum([math.prod(shape) for shape in shapes])[:-1]
    return tuple(v.reshape(shape)
                 for v, shape in zip(np.split(flat, cuts), shapes))


def _standardize(values: np.ndarray):
    means = values.mean(axis=0)
    scales = values.std(axis=0)
    scales = np.where(scales > 0.0, scales, 1.0)
    return (values - means) / scales, means, scales


def ann_train(model: AnnModel, features: list,
              schedule: TrainSchedule = TrainSchedule()) -> AnnModel:
    """L-BFGS-B on the mean squared error of the softmax outputs against
    one-hot targets (LOS -> [1, 0]).

    Features are standardized to zero mean and unit deviation computed from
    this training set; the statistics are stored on the returned model.
    max_epochs caps the optimizer's iterations and loss_tolerance is its
    ftol.  The lowest-loss weights seen are returned, so the final training
    loss never exceeds the initial one.  The returned model's training
    field holds the iteration count, whether a tolerance was met, the
    optimizer's stop message and that loss.
    """
    raw, is_los = labelled_table(features)
    n_los = int(is_los.sum())
    if n_los < 2 or len(is_los) - n_los < 2:
        raise TrainingError(
            f"need at least 2 samples per class, got {n_los} LOS "
            f"and {len(is_los) - n_los} NLOS")
    x, means, scales = _standardize(raw)
    y = np.column_stack((is_los, ~is_los)).astype(float)

    # the optimizer works on one flat vector of every weight
    shapes = [w.shape for w in model.weights()]
    best = {"loss": math.inf}

    def loss_and_grad(theta):
        loss, grads = _loss_and_grads(_unflatten(theta, shapes), x, y)
        if not math.isfinite(loss):
            raise TrainingError(f"training loss became {loss}")
        if loss < best["loss"]:
            best.update(loss=loss, theta=theta.copy())
        return loss, _flatten(grads)

    from scipy.optimize import minimize     # imported at first fit

    result = minimize(loss_and_grad, _flatten(model.weights()), jac=True,
                      method="L-BFGS-B",
                      options={"maxiter": schedule.max_epochs,
                               "ftol": schedule.loss_tolerance})
    training = {"iterations": int(result.nit),
                "converged": bool(result.success),
                "stop": str(result.message), "loss": best["loss"]}
    return AnnModel(*_unflatten(best["theta"], shapes), feature_means=means,
                    feature_scales=scales, training=training)


def ann_classify(model: AnnModel, features) -> Verdicts:
    """LOS exactly when the LOS output probability is at least 0.5, so a
    tied output keeps the line-of-sight hypothesis.

    features is a sequence of FeatureVectors, scored in one batched forward
    pass."""
    x = _table(features)
    with np.errstate(all="ignore"):   # tanh saturates inf; NaN is refused
        a3 = _forward_batch(model.weights(), (x - model.feature_means)
                            / model.feature_scales)[2]
    if not np.isfinite(a3).all():
        raise EvaluationError("network output is not finite")
    return Verdicts(np.where(a3[:, 0] >= 0.5, LOS, NLOS), a3[:, 0],
                    np.zeros(len(x), dtype=bool))


def error_rates(decisions, truths) -> tuple[float, float]:
    """(type I, type II) rates of decided labels against true labels.

    Type I is the fraction of true-LOS cases decided NLOS; type II the
    fraction of true-NLOS cases decided LOS.
    """
    decisions, truths = np.asarray(decisions), np.asarray(truths)
    if len(decisions) != len(truths):
        raise EvaluationError(
            f"{len(decisions)} decisions against {len(truths)} truths")
    los, nlos = truths == LOS, truths == NLOS
    n_los, n_nlos = int(los.sum()), int(nlos.sum())
    if n_los == 0 or n_nlos == 0:
        raise EvaluationError(
            "both classes must appear in the evaluation set; got "
            f"{n_los} LOS and {n_nlos} NLOS")
    return (int((los & (decisions == NLOS)).sum()) / n_los,
            int((nlos & (decisions == LOS)).sum()) / n_nlos)
