"""End-to-end protocols: simulated campaigns and measured-sweep analysis.

The simulate protocol draws a batch of channel realizations, segments each
power map, extracts per-cluster metrics, fits the per-class GEV tables on
the training split, and scores the likelihood-ratio test (each metric alone
and all five jointly) plus the network on the held-out split.

The measured protocol consumes a labelled feature table and repeats a
bootstrap train/test partition over the measurement samples, averaging the
fitted tables and error rates over the repeats whose test side holds both
classes; the others are skipped and counted.

Every stage is deterministic in the experiment seed; reports are
byte-reproducible.
"""

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .chansim import (LOS, NLOS, STREAM_TRAINING, CirTensor, SimConfig,
                      simulate_realization)
from .classifiers import (TrainSchedule, ann_classify, ann_init, ann_train,
                          error_rates, mlr_classify, mlr_train)
from .errors import (ConfigError, DataFormatError, DegenerateInputError,
                     EvaluationError, Record)
from .fileio import (Realization, SimulationManifest, load_cir_tensor,
                     load_document, load_features, load_truth,
                     save_cir_tensor, save_csv, save_document, save_features,
                     save_json, save_model, save_pas_json, save_truth)
from .gevstats import bootstrap_split, cdf_rmse, gev_cdf, gev_pdf
from .metrics import METRIC_NAMES, MetricConfig, cluster_features
from .pas import AngularGrid, compute_pas, wrap_angle_deg
from .segmentation import SegParams, label_clusters_with_truth, segment

ERROR_TABLE_ROWS = METRIC_NAMES + ("joint_mlr", "ann")

_CURVE_POINTS = 200
_CURVE_BINS = 30


@dataclass(frozen=True)
class BootstrapSpec(Record):
    n_train: int = 30
    n_test: int = 20
    repeats: int = 10

    def __post_init__(self):
        super().__post_init__()
        if self.n_train < 1 or self.n_test < 1 or self.repeats < 1:
            raise ConfigError("bootstrap sizes and repeats must be positive")


@dataclass(frozen=True)
class ExperimentConfig(Record):
    mode: str = "simulate"                 # "simulate" or "measured"
    sim: SimConfig = SimConfig()
    seg: SegParams = SegParams(min_pixels=2, marker_min_separation=1.0)
    metric: MetricConfig = MetricConfig()
    schedule: TrainSchedule = TrainSchedule()
    bootstrap: BootstrapSpec = BootstrapSpec()
    n_realizations: int = 250
    n_train: int = 150                     # leading realizations used to train
    n_test: int = 100                      # realizations scored after those
    seed: int = 1                          # keys every random stream of a run
    features_csv: str | None = None        # measured-mode input table

    def __post_init__(self):
        super().__post_init__()
        if self.mode not in ("simulate", "measured"):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.seed < 0:
            raise ConfigError(
                f"ExperimentConfig.seed must be non-negative, got {self.seed}")
        if self.n_realizations < 1:
            raise ConfigError("n_realizations must be positive")
        if self.n_train < 1 or self.n_test < 1:
            raise ConfigError("n_train and n_test must be positive")
        if self.n_train + self.n_test > self.n_realizations:
            raise ConfigError(
                f"n_train + n_test = {self.n_train + self.n_test} exceeds "
                f"n_realizations = {self.n_realizations}")


def _training_seed(master_seed: int, repeat: int) -> int:
    seq = np.random.SeedSequence(master_seed,
                                 spawn_key=(STREAM_TRAINING, repeat))
    return int(seq.generate_state(1)[0])


def extract_realization(cir: CirTensor, truth, seg: SegParams,
                        metric: MetricConfig):
    """Segment one tensor and compute features for every usable cluster.

    truth is the generating cluster list, or None for unlabelled data.
    Every cluster's peak pixel is read in one CirTensor.pixels call.
    Returns (feature vectors, diagnostics dict); clusters whose metrics are
    degenerate are skipped and counted, never fatal.
    """
    pas = compute_pas(cir)
    clusters = segment(pas, seg)
    los_recovered = None
    if truth is not None:
        clusters, los_recovered = label_clusters_with_truth(
            clusters, truth, pas.grid)
    peak_el, peak_az = np.array([c.peak_pixel for c in clusters],
                                dtype=int).reshape(-1, 2).T
    rows = []
    skipped = 0
    for c, peak in zip(clusters, cir.pixels(peak_el, peak_az)):
        try:
            rows.append(cluster_features(c, pas, peak, cir.sample_rate_ghz,
                                         metric))
        except DegenerateInputError:
            skipped += 1
    diag = {"n_clusters": len(clusters), "skipped_clusters": skipped,
            "los_recovered": los_recovered}
    return rows, diag


def extract_all(realizations, seg: SegParams, metric: MetricConfig):
    """extract_realization over (index, tensor, truth | None) triples.

    Returns (rows, log): rows pair realization indices with feature
    vectors; the log holds each realization's diagnostics, the total of
    skipped clusters, and the realizations whose direct path was missed.
    """
    rows, diags = [], []
    for index, cir, truth in realizations:
        features, diag = extract_realization(cir, truth, seg, metric)
        del cir     # so the next tensor is not loaded beside this one
        rows.extend((index, fv) for fv in features)
        diags.append({"index": index, **diag})
    skipped = sum(d["skipped_clusters"] for d in diags)
    missed = [d["index"] for d in diags if d["los_recovered"] is False]
    return rows, {"realizations": diags, "skipped_clusters": skipped,
                  "los_missed": missed}


def simulated_realizations(config: ExperimentConfig):
    """(index, rendered tensor, generating clusters) for every realization of
    the configured campaign, drawn one at a time."""
    for i in range(config.n_realizations):
        clusters, _, cir = simulate_realization(config.sim, config.seed, i)
        yield i, cir, clusters


# ---------------------------------------------------------------------------
# staged commands


def cmd_simulate(config: ExperimentConfig, out_dir) -> Path:
    """Write every realization's tensor, power map, and ground truth, plus
    a manifest tying them together.  Returns the manifest path.

    The tensor written holds the pixels of the same render that
    run_experiment analyses, so staged and in-process runs see one draw.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, cir, clusters in simulated_realizations(config):
        entry = Realization(i, f"real_{i:04d}.json", f"pas_{i:04d}.json",
                            f"truth_{i:04d}.json")
        save_cir_tensor(cir, out / entry.cir)
        save_pas_json(compute_pas(cir), out / entry.pas)
        save_truth(out / entry.truth, clusters)
        entries.append(entry)
    manifest_path = out / "simulation.json"
    save_document(manifest_path, SimulationManifest(
        tuple(entries), config.sim, config.seed, config.n_realizations))
    return manifest_path


def inputs_from_manifest(manifest_path) -> list:
    """Resolve a simulation manifest into (index, cir_path, truth_path)
    triples."""
    base = Path(manifest_path).parent
    return [(r.index, base / r.cir, base / r.truth if r.truth else None)
            for r in load_document(manifest_path,
                                   SimulationManifest).realizations]


def cmd_extract(inputs: list, seg: SegParams, metric: MetricConfig,
                out_csv=None):
    """extract_all over the files of (index, cir_path, truth_path | None)
    triples, writing the feature rows to out_csv when given."""
    rows, log = extract_all(
        ((index, load_cir_tensor(cir_path),
          None if truth_path is None else load_truth(truth_path))
         for index, cir_path, truth_path in inputs), seg, metric)
    if out_csv is not None:
        save_features(out_csv, rows)
    return rows, log


def ingest_sweeps(sweeps: dict, grid: AngularGrid,
                  window: str = "hann") -> CirTensor:
    """Assemble measured frequency sweeps into an impulse-response tensor.

    sweeps maps (az_deg, el_deg) to (freqs_ghz, complex values).  Every
    grid direction must be present and all directions must share one
    frequency axis, uniform with at least 8 points, and no two sweeps may
    name one direction (such as azimuths -180 and 180 on a full-circle
    grid).  Each direction's taps are the inverse DFT of its values, after
    a symmetric Hann taper across the band (the usual choice for measured
    sweeps) unless window is "none", which inverts np.fft.fft exactly.  The
    sample rate is the point count times the frequency step.
    """
    owners = {}               # pixel -> the sweep key that names it
    for az, el in sweeps:
        pixel = grid.nearest_pixel(el, az)
        pel, paz = grid.angles_of(*pixel)
        if abs(pel - el) > 1e-6 or abs(wrap_angle_deg(paz - az)) > 1e-6:
            raise DataFormatError(
                f"sweep direction (az={az}, el={el}) is not a grid point")
        if pixel in owners:
            raise DataFormatError(
                "sweep directions (az={:g}, el={:g}) and (az={:g}, el={:g}) "
                "are one grid direction".format(*owners[pixel], az, el))
        owners[pixel] = (az, el)
    lookup = {pixel: sweeps[key] for pixel, key in owners.items()}
    missing = [grid.angles_of(*pixel) for pixel in np.ndindex(grid.shape)
               if pixel not in lookup]
    if missing:
        shown = ", ".join(f"(az={az:g}, el={el:g})" for el, az in missing[:8])
        more = f" and {len(missing) - 8} more" if len(missing) > 8 else ""
        raise DataFormatError(f"sweeps missing grid directions: {shown}{more}")

    if window not in ("hann", "none"):
        raise ConfigError(
            f"unknown window {window!r}, expected 'hann' or 'none'")
    freqs = np.asarray(lookup[(0, 0)][0], dtype=float)
    if freqs.ndim != 1 or len(freqs) < 8:
        raise DataFormatError("a frequency sweep needs at least 8 points")
    n = len(freqs)
    df = np.diff(freqs)
    if np.any(df <= 0):
        raise DataFormatError("frequency axis must be strictly increasing")
    step = float(np.mean(df))
    if np.max(np.abs(df - step)) > 1e-6 * step:
        raise DataFormatError("frequency axis is not uniformly spaced")
    data = np.empty(grid.shape + (n,), dtype=complex)
    for (i, j), (f, values) in lookup.items():
        if len(f) != n or len(values) != n \
                or np.max(np.abs(f - freqs)) > 1e-9 * max(freqs[-1], 1.0):
            el, az = grid.angles_of(i, j)
            raise DataFormatError(
                f"direction (az={az:g}, el={el:g}) has a different "
                f"frequency axis from the rest")
        data[i, j] = values
    if window == "hann":
        data *= np.hanning(n)
    sample_rate = n * float((freqs[-1] - freqs[0]) / (n - 1))
    return CirTensor.dense(grid, sample_rate, np.fft.ifft(data, axis=-1))


# ---------------------------------------------------------------------------
# model fitting and evaluation shared by both protocols


def fit_gev_table(train_rows: list):
    """Fit the ratio-test model and tabulate its per-metric, per-class
    parameters with cdf fit quality.  Returns (model, table)."""
    model = mlr_train(train_rows)
    table = {}
    for name in METRIC_NAMES:
        entry = {}
        for label, key in ((LOS, "los"), (NLOS, "nlos")):
            values = np.array([f.metric(name) for f in train_rows
                               if f.label == label])
            params = model.params(name, label)
            entry[key] = {**params.to_dict(),
                          "cdf_rmse": cdf_rmse(values, params)}
        table[name] = entry
    return model, table


def train_models(rows: list, config: ExperimentConfig, repeat: int = 0):
    """Both decision rules trained on labelled rows, the network seeded by
    the repeat.  Returns (ratio-test model, its GEV table, network)."""
    mlr_model, gev_table = fit_gev_table(rows)
    ann_model = ann_train(ann_init(_training_seed(config.seed, repeat)), rows,
                          config.schedule)
    return mlr_model, gev_table, ann_model


def _evaluate(mlr_model, ann_model, test_rows: list) -> dict:
    truths = [f.label for f in test_rows]
    verdicts = {name: mlr_classify(mlr_model, test_rows, metrics=(name,))
                for name in METRIC_NAMES}
    verdicts["joint_mlr"] = mlr_classify(mlr_model, test_rows)
    verdicts["ann"] = ann_classify(ann_model, test_rows)
    return {row: dict(zip(("type_i", "type_ii"), error_rates(decided, truths)))
            for row, decided in verdicts.items()}


def _write_curves(out_dir: Path, train_rows: list, mlr_model) -> list:
    """One CSV per metric and class: fitted pdf/cdf against the empirical
    histogram and staircase."""
    curve_dir = out_dir / "curves"
    curve_dir.mkdir(parents=True, exist_ok=True)
    names = []
    for metric in METRIC_NAMES:
        for label, key in ((LOS, "los"), (NLOS, "nlos")):
            values = np.sort(np.array([f.metric(metric) for f in train_rows
                                       if f.label == label]))
            params = mlr_model.params(metric, label)
            lo, hi = values[0], values[-1]
            span = hi - lo if hi > lo else max(abs(hi), 1.0)
            x = np.linspace(lo - 0.05 * span, hi + 0.05 * span, _CURVE_POINTS)
            hist, edges = np.histogram(values, bins=_CURVE_BINS,
                                       density=True)
            bin_idx = np.clip(np.searchsorted(edges, x, side="right") - 1,
                              0, _CURVE_BINS - 1)
            emp_pdf = np.where((x >= edges[0]) & (x <= edges[-1]),
                               hist[bin_idx], 0.0)
            emp_cdf = np.searchsorted(values, x, side="right") / len(values)
            name = f"{metric}_{key}.csv"
            save_csv(curve_dir / name, ["x", "fitted_pdf", "fitted_cdf",
                                        "empirical_pdf", "empirical_cdf"],
                     np.column_stack((x, gev_pdf(x, params),
                                      gev_cdf(x, params), emp_pdf,
                                      emp_cdf)).tolist())
            names.append(f"curves/{name}")
    return names


# ---------------------------------------------------------------------------
# full protocols


def run_experiment(config: ExperimentConfig, out_dir) -> dict:
    """Run the configured protocol end to end, write its artifacts under
    out_dir, and return the report dictionary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = _run_simulated if config.mode == "simulate" else _run_measured
    report = {"format": "report", "mode": config.mode,
              "config": config.to_dict(), **run(config, out)}
    save_json(out / "report.json", report)
    return report


def _run_simulated(config: ExperimentConfig, out: Path) -> dict:
    rows, log = extract_all(simulated_realizations(config), config.seg,
                            config.metric)
    save_features(out / "features.csv", rows)
    train_rows = [fv for i, fv in rows if i < config.n_train]
    test_rows = [fv for i, fv in rows
                 if config.n_train <= i < config.n_train + config.n_test]
    mlr_model, gev_table, ann_model = train_models(train_rows, config)
    save_model(out / "mlr_model.json", mlr_model)
    save_model(out / "ann_model.json", ann_model)
    error_table = _evaluate(mlr_model, ann_model, test_rows)
    curves = _write_curves(out, train_rows, mlr_model)

    return {
        "counts": {
            "n_realizations": config.n_realizations,
            "feature_rows": len(rows),
            "train_rows": len(train_rows),
            "test_rows": len(test_rows),
            "skipped_clusters": log["skipped_clusters"],
            "los_missed": log["los_missed"],
        },
        "gev_table": gev_table,
        "error_table": error_table,
        "diagnostics": {"network_training": ann_model.training,
                        "per_realization": log["realizations"]},
        "curves": {"files": curves},
    }


def _run_measured(config: ExperimentConfig, out: Path) -> dict:
    if config.features_csv is None:
        raise ConfigError("measured mode needs features_csv in the config")
    loaded = load_features(config.features_csv)
    # group rows into measurement samples: by the realization column when
    # present, else each row stands alone
    samples: dict = {}
    for line_no, (realization, fv) in enumerate(loaded):
        key = realization if realization is not None else line_no
        samples.setdefault(key, []).append(fv)
    sample_ids = sorted(samples)
    boot = config.bootstrap
    splits = bootstrap_split(len(sample_ids), boot.n_train, boot.n_test,
                             boot.repeats, config.seed)

    repeat_tables, repeat_errors, diags = [], [], []
    for r, (train_idx, test_idx) in enumerate(splits):
        train_rows = [fv for k in train_idx for fv in samples[sample_ids[k]]]
        test_rows = [fv for k in test_idx for fv in samples[sample_ids[k]]]
        diag = {"repeat": r, "train_rows": len(train_rows),
                "test_rows": len(test_rows)}
        # error rates need both classes on the test side; a small test
        # draw from a skewed table can miss one, so that repeat is skipped
        missing = sorted({LOS, NLOS} - {fv.label for fv in test_rows})
        if missing:
            diags.append({**diag, "skipped": f"evaluation set has no "
                                             f"{' or '.join(missing)} row"})
            continue
        mlr_model, gev_table, ann_model = train_models(train_rows, config, r)
        repeat_tables.append(gev_table)
        repeat_errors.append(_evaluate(mlr_model, ann_model, test_rows))
        diags.append({**diag, "network_training": ann_model.training})
    if not repeat_tables:
        raise EvaluationError(
            f"all {boot.repeats} bootstrap repeats were skipped: both classes "
            f"must appear in each evaluation set of {boot.n_test} samples")

    return {
        "counts": {
            "n_samples": len(sample_ids),
            "feature_rows": len(loaded),
            "repeats": boot.repeats,
            "skipped_repeats": boot.repeats - len(repeat_tables),
        },
        "gev_table": _average(repeat_tables),
        "error_table": _average(repeat_errors),
        "diagnostics": {"per_repeat": diags},
        "curves": {"files": []},
    }


def _average(docs: list):
    """Entry-by-entry mean of nested dicts that share one layout."""
    if isinstance(docs[0], dict):
        return {key: _average([d[key] for d in docs]) for key in docs[0]}
    return float(np.mean(docs))
