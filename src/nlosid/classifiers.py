"""LOS/NLOS decision rules over the five cluster metrics.

Two classifiers share the Verdict container:

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

import numpy as np

from .chansim import LOS, NLOS
from .errors import ConfigError, ConfigSection, EvaluationError, TrainingError
from .gevstats import GevParams, gev_fit_mle, gev_pdf
from .metrics import METRIC_NAMES, FeatureVector

# log density assigned to a metric value outside one fitted support; keeps
# scores finite and ordered while still dominating any in-support term
LOG_DENSITY_FLOOR = -745.0

N_INPUT = 5
N_HIDDEN = 10
N_OUTPUT = 2


@dataclass(frozen=True)
class Verdict:
    decision: str              # LOS or NLOS
    score: float               # log-likelihood ratio, or LOS output probability
    support_violation: bool = False


@dataclass(frozen=True)
class TrainSchedule(ConfigSection):
    learning_rate: float = 0.05
    max_epochs: int = 5000
    loss_tolerance: float = 1e-8   # stop once loss improves by less than this

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ConfigError("learning_rate must be non-negative")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be positive")
        if self.loss_tolerance < 0:
            raise ConfigError("loss_tolerance must be non-negative")


# ---------------------------------------------------------------------------
# maximum-likelihood-ratio test


@dataclass(frozen=True)
class MlrModel:
    """Fitted GEV parameter pair (LOS, NLOS) per metric."""

    tables: dict

    def __post_init__(self):
        unknown = set(self.tables) - set(METRIC_NAMES)
        if unknown:
            raise ConfigError(f"unknown metrics in model: {sorted(unknown)}")
        if not self.tables:
            raise ConfigError("model carries no metrics")

    def params(self, metric: str, label: str) -> GevParams:
        pair = self.tables[metric]
        return pair[0] if label == LOS else pair[1]


def _split_by_label(features: list) -> tuple[list, list]:
    los = [f for f in features if f.label == LOS]
    nlos = [f for f in features if f.label == NLOS]
    stray = len(features) - len(los) - len(nlos)
    if stray:
        raise TrainingError(f"{stray} feature vectors carry no usable label")
    return los, nlos


def mlr_train(features: list) -> MlrModel:
    """Fit per-class GEV distributions to every metric of a labelled
    feature set."""
    los, nlos = _split_by_label(features)
    for label, group in ((LOS, los), (NLOS, nlos)):
        if len(group) < 20:
            raise TrainingError(
                f"class {label} has {len(group)} samples; need at least 20 "
                f"to fit its distributions")
    tables = {}
    for name in METRIC_NAMES:
        pair = []
        for label, group in ((LOS, los), (NLOS, nlos)):
            values = np.array([f.metric(name) for f in group])
            try:
                pair.append(gev_fit_mle(values))
            except Exception as exc:
                raise TrainingError(
                    f"fitting metric {name}, class {label}: {exc}") from exc
        tables[name] = (pair[0], pair[1])
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


def mlr_classify(model: MlrModel, fv: FeatureVector,
                 metrics=None) -> Verdict:
    """Sum of per-metric log density ratios; LOS wins at a non-negative sum.

    A metric value outside one class's support contributes the floored log
    density for that side and raises the support_violation flag.  A value
    outside both supports is unlike either hypothesis, which resolves to an
    immediate NLOS verdict with score -inf.
    """
    names = _validated_subset(metrics)
    missing = set(names) - set(model.tables)
    if missing:
        raise ConfigError(f"model has no tables for: {sorted(missing)}")
    score = 0.0
    violation = False
    for name in names:
        x = fv.metric(name)
        f_los = gev_pdf(x, model.params(name, LOS))
        f_nlos = gev_pdf(x, model.params(name, NLOS))
        if f_los == 0.0 and f_nlos == 0.0:
            return Verdict(decision=NLOS, score=-math.inf,
                           support_violation=True)
        violation = violation or f_los == 0.0 or f_nlos == 0.0
        log_los = math.log(f_los) if f_los > 0.0 else LOG_DENSITY_FLOOR
        log_nlos = math.log(f_nlos) if f_nlos > 0.0 else LOG_DENSITY_FLOOR
        score += log_los - log_nlos
    decision = LOS if score >= 0.0 else NLOS
    return Verdict(decision=decision, score=score, support_violation=violation)


# ---------------------------------------------------------------------------
# feed-forward network


@dataclass(frozen=True, eq=False)
class AnnModel:
    """Weights, biases, and the feature standardization learned with them."""

    iw: np.ndarray             # (10, 5) input weights
    b1: np.ndarray             # (10,)
    lw21: np.ndarray           # (10, 10) hidden-to-hidden
    b2: np.ndarray             # (10,)
    lw32: np.ndarray           # (2, 10) hidden-to-output
    b3: np.ndarray             # (2,)
    feature_means: np.ndarray  # (5,)
    feature_scales: np.ndarray  # (5,)

    def __post_init__(self):
        expected = {
            "iw": (N_HIDDEN, N_INPUT), "b1": (N_HIDDEN,),
            "lw21": (N_HIDDEN, N_HIDDEN), "b2": (N_HIDDEN,),
            "lw32": (N_OUTPUT, N_HIDDEN), "b3": (N_OUTPUT,),
            "feature_means": (N_INPUT,), "feature_scales": (N_INPUT,),
        }
        for name, shape in expected.items():
            arr = getattr(self, name)
            if arr.shape != shape:
                raise ConfigError(
                    f"{name} has shape {arr.shape}, expected {shape}")

    def weights(self) -> tuple:
        return (self.iw, self.b1, self.lw21, self.b2, self.lw32, self.b3)


def softmax(z: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized against overflow."""
    z = np.asarray(z, dtype=float)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
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


def _batch_loss(weights: tuple, x: np.ndarray, y: np.ndarray) -> float:
    a3 = _forward_batch(weights, x)[2]
    return float(np.mean(np.sum((a3 - y) ** 2, axis=1)))


def _batch_grads(weights: tuple, x: np.ndarray, y: np.ndarray) -> tuple:
    iw, b1, lw21, b2, lw32, b3 = weights
    n = len(x)
    a1, a2, a3 = _forward_batch(weights, x)
    d_a3 = 2.0 * (a3 - y) / n
    # softmax jacobian: dz = a * (da - sum_k a_k da_k)
    inner = np.sum(a3 * d_a3, axis=1, keepdims=True)
    d_z3 = a3 * (d_a3 - inner)
    d_lw32 = d_z3.T @ a2
    d_b3 = d_z3.sum(axis=0)
    d_z2 = (d_z3 @ lw32) * (1.0 - a2 ** 2)
    d_lw21 = d_z2.T @ a1
    d_b2 = d_z2.sum(axis=0)
    d_z1 = (d_z2 @ lw21) * (1.0 - a1 ** 2)
    d_iw = d_z1.T @ x
    d_b1 = d_z1.sum(axis=0)
    return (d_iw, d_b1, d_lw21, d_b2, d_lw32, d_b3)


def _standardize(values: np.ndarray):
    means = values.mean(axis=0)
    scales = values.std(axis=0)
    scales = np.where(scales > 0.0, scales, 1.0)
    return (values - means) / scales, means, scales


def ann_train(model: AnnModel, features: list,
              schedule: TrainSchedule = TrainSchedule()) -> AnnModel:
    """Full-batch gradient descent on the mean squared error of the softmax
    outputs against one-hot targets (LOS -> [1, 0]).

    Features are standardized to zero mean and unit deviation computed from
    this training set; the statistics are stored on the returned model.
    Training stops at the epoch cap or once the loss stops improving, and
    the lowest-loss weights seen are returned, so the final training loss
    never exceeds the initial one.
    """
    los, nlos = _split_by_label(features)
    if len(los) < 2 or len(nlos) < 2:
        raise TrainingError(
            f"need at least 2 samples per class, got {len(los)} LOS "
            f"and {len(nlos)} NLOS")
    raw = np.array([f.values() for f in features])
    x, means, scales = _standardize(raw)
    y = np.array([[1.0, 0.0] if f.label == LOS else [0.0, 1.0]
                  for f in features])

    weights = tuple(w.copy() for w in model.weights())
    best_loss = math.inf
    best = weights
    prev_loss = None
    for epoch in range(schedule.max_epochs):
        loss = _batch_loss(weights, x, y)
        if not math.isfinite(loss):
            raise TrainingError(f"loss became {loss} at epoch {epoch}")
        if loss < best_loss:
            best_loss, best = loss, weights
        if prev_loss is not None and prev_loss - loss < schedule.loss_tolerance:
            break
        prev_loss = loss
        grads = _batch_grads(weights, x, y)
        weights = tuple(w - schedule.learning_rate * g
                        for w, g in zip(weights, grads))
    else:
        loss = _batch_loss(weights, x, y)
        if math.isfinite(loss) and loss < best_loss:
            best_loss, best = loss, weights

    iw, b1, lw21, b2, lw32, b3 = best
    return AnnModel(iw=iw, b1=b1, lw21=lw21, b2=b2, lw32=lw32, b3=b3,
                    feature_means=means, feature_scales=scales)


def ann_forward(model: AnnModel, fv: FeatureVector):
    """Network outputs for one feature vector: (softmax pair, hidden
    activations).  Output index 0 is the LOS class."""
    x = (fv.values() - model.feature_means) / model.feature_scales
    a1, a2, a3 = _forward_batch(model.weights(), x[None, :])
    return a3[0], (a1[0], a2[0])


def ann_classify(model: AnnModel, fv: FeatureVector) -> Verdict:
    """LOS exactly when the LOS output probability is at least 0.5, so a
    tied output keeps the line-of-sight hypothesis."""
    a3, _ = ann_forward(model, fv)
    score = float(a3[0])
    return Verdict(decision=LOS if score >= 0.5 else NLOS, score=score)


def error_rates(decisions: list, truths: list) -> tuple[float, float]:
    """(type I, type II) rates of a decision sequence against ground truth.

    Type I is the fraction of true-LOS cases decided NLOS; type II the
    fraction of true-NLOS cases decided LOS.  Accepts Verdicts or plain
    label strings.
    """
    if len(decisions) != len(truths):
        raise EvaluationError(
            f"{len(decisions)} decisions against {len(truths)} truths")
    names = [d.decision if isinstance(d, Verdict) else d for d in decisions]
    n_los = sum(1 for t in truths if t == LOS)
    n_nlos = sum(1 for t in truths if t == NLOS)
    if n_los == 0 or n_nlos == 0:
        raise EvaluationError(
            "both classes must appear in the evaluation set; got "
            f"{n_los} LOS and {n_nlos} NLOS")
    type_i = sum(1 for d, t in zip(names, truths)
                 if t == LOS and d == NLOS) / n_los
    type_ii = sum(1 for d, t in zip(names, truths)
                  if t == NLOS and d == LOS) / n_nlos
    return type_i, type_ii
