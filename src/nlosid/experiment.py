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

import os
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from itertools import islice
from pathlib import Path
from typing import Annotated, Literal

import numpy as np

from .chansim import (LOS, NLOS, STREAM_TRAINING, CirTensor, SimConfig,
                      check_sample_rate, simulate_realization)
from .classifiers import (GevPair, TrainSchedule, ann_classify, ann_init,
                          ann_train, error_rates, labelled_table,
                          mlr_classify, mlr_train)
from .errors import (NON_NEGATIVE, POSITIVE, AtLeast, ConfigError,
                     DataFormatError, DegenerateInputError, EvaluationError,
                     Record)
from .fileio import (Realization, SimulationManifest, load_cir_tensor,
                     load_document, load_features, load_truth,
                     save_cir_tensor, save_csv, save_document, save_features,
                     save_pas_json, save_truth)
from .gevstats import GevParams, bootstrap_split, cdf_rmse, gev_cdf, gev_pdf
from .metrics import METRIC_NAMES, MetricConfig, cluster_features
from .pas import AngularGrid, compute_pas, wrap_angle_deg
from .segmentation import SegParams, label_clusters_with_truth, segment

ERROR_TABLE_ROWS = METRIC_NAMES + ("joint_mlr", "ann")

_CURVE_POINTS = 200
_CURVE_BINS = 30


@dataclass(frozen=True)
class BootstrapSpec(Record):
    n_train: Annotated[int, POSITIVE] = 30
    n_test: Annotated[int, POSITIVE] = 20
    repeats: Annotated[int, POSITIVE] = 10


@dataclass(frozen=True)
class ExperimentConfig(Record):
    mode: Literal["simulate", "measured"] = "simulate"
    sim: SimConfig = SimConfig()
    seg: SegParams = SegParams()
    metric: MetricConfig = MetricConfig()
    schedule: TrainSchedule = TrainSchedule()
    bootstrap: BootstrapSpec = BootstrapSpec()
    n_realizations: Annotated[int, AtLeast(2)] = 250  # a train and a test one
    n_train: Annotated[int, POSITIVE] = 150   # leading realizations to train
    n_test: Annotated[int, POSITIVE] = 100    # realizations scored after those
    seed: Annotated[int, NON_NEGATIVE] = 1    # keys every random stream
    features_csv: str | None = None        # measured-mode input table

    def __post_init__(self):
        super().__post_init__()
        if self.n_train + self.n_test > self.n_realizations:
            raise ConfigError(
                f"n_train + n_test = {self.n_train + self.n_test} exceeds "
                f"n_realizations = {self.n_realizations}")


@dataclass(frozen=True)
class GevFit(GevParams):
    """Fitted parameters and their cdf's RMSE against the fitted sample."""

    cdf_rmse: float


@dataclass(frozen=True)
class FitPair(GevPair):
    los: GevFit
    nlos: GevFit


@dataclass(frozen=True)
class ErrorRates(Record):
    """Type I: true LOS decided NLOS; type II: true NLOS decided LOS."""

    error = DataFormatError

    type_i: float
    type_ii: float


@dataclass(frozen=True)
class Report(Record):
    """report.json: tables keyed by metric, and by "joint_mlr" and "ann"
    for the error table; counts, diagnostics and curves vary by mode."""

    FORMAT = "report"
    error = DataFormatError

    mode: str
    config: ExperimentConfig
    counts: dict
    gev_table: dict[str, FitPair]
    error_table: dict[str, ErrorRates]
    diagnostics: dict
    curves: dict

    def __post_init__(self):
        super().__post_init__()
        if self.mode != self.config.mode:
            raise self.error(f"Report.mode {self.mode!r} differs from "
                             f"config.mode {self.config.mode!r}")
        for name, known in (("gev_table", METRIC_NAMES),
                            ("error_table", ERROR_TABLE_ROWS)):
            if unknown := sorted(set(getattr(self, name)) - set(known)):
                raise self.error(f"Report.{name} has unknown rows {unknown}")


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


def _fold_extracted(extracted):
    """(rows, log) of (index, (features, diagnostics)) pairs: rows pair
    realization indices with feature vectors; the log holds each
    realization's diagnostics, the total of skipped clusters, and the
    realizations whose direct path was missed."""
    rows, diags = [], []
    for index, (features, diag) in extracted:
        rows.extend((index, fv) for fv in features)
        diags.append({"index": index, **diag})
    skipped = sum(d["skipped_clusters"] for d in diags)
    missed = [d["index"] for d in diags if d["los_recovered"] is False]
    return rows, {"realizations": diags, "skipped_clusters": skipped,
                  "los_missed": missed}


def _over_cpus(work, items) -> list:
    """[work(x) for x in items], one share per process: items[0::k] here
    and items[w::k] in worker w of a fork pool of k - 1, where k is the
    number of CPUs this process may run on, at most len(items), or 1 with
    no affinity call, no fork start method, or in a daemonic process such
    as a pool worker, which may start none.  A share stops at its first
    exception; every share is awaited before any result is read, and the
    exception of the lowest failing index is raised, as on one CPU."""
    import multiprocessing    # loaded by the pooled commands alone

    k = (min(len(os.sched_getaffinity(0)), len(items))
         if hasattr(os, "sched_getaffinity")
         and "fork" in multiprocessing.get_all_start_methods()
         and not multiprocessing.current_process().daemon else 1)
    with (multiprocessing.get_context("fork").Pool(k - 1) if k > 1
          else nullcontext()) as pool:
        shares = [pool.apply_async(_share, (work, items[w::k]))
                  for w in range(1, k)]
        try:
            done = [_share(work, items[0::k])]
        finally:    # the pool's exit would kill a worker mid-task
            for share in shares:
                share.wait()
        done += [share.get() for share in shares]
    failed = [(w + len(results) * k, exc)
              for w, (results, exc) in enumerate(done) if exc is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    return [done[i % k][0][i // k] for i in range(len(items))]


def _share(work, items) -> tuple:
    """(results, None) of work over items, or (the results before the first
    item that raised, its exception)."""
    results = []
    try:
        for x in items:
            results.append(work(x))
    except Exception as exc:
        return results, exc
    return results, None


# ---------------------------------------------------------------------------
# staged commands


def _write_realization(config: ExperimentConfig, out, i) -> Realization:
    """Draw realization i, write its tensor, power map and truth, and
    return its manifest entry."""
    clusters, _, cir = simulate_realization(config.sim, config.seed, i)
    entry = Realization(i, f"real_{i:04d}.json", f"pas_{i:04d}.json",
                        f"truth_{i:04d}.json")
    save_cir_tensor(cir, out / entry.cir)
    save_pas_json(compute_pas(cir), out / entry.pas)
    save_truth(out / entry.truth, clusters)
    return entry


def cmd_simulate(config: ExperimentConfig, out_dir) -> Path:
    """Write every realization's tensor, power map, and ground truth, plus
    a manifest tying them together.  Returns the manifest path.

    The tensor written holds the pixels of the same render that
    run_experiment analyses, so staged and in-process runs see one draw.
    Realizations are written through _over_cpus, so the error raised is
    that of the lowest failing index, as on one CPU, though the other
    processes' shares run to their end first; the manifest is written
    only when every realization was.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = _over_cpus(partial(_write_realization, config, out),
                         range(config.n_realizations))
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
    """extract_realization over the files of (index, cir_path, truth_path
    | None) triples, one tensor loaded at a time, folded as
    _fold_extracted does; the feature rows go to out_csv when given."""
    rows, log = _fold_extracted(
        (index, extract_realization(
            load_cir_tensor(cir_path),
            None if truth_path is None else load_truth(truth_path), seg,
            metric))
        for index, cir_path, truth_path in inputs)
    if out_csv is not None:
        save_features(out_csv, rows)
    return rows, log


def ingest_sweeps(table, grid: AngularGrid,
                  window: str = "hann") -> CirTensor:
    """Assemble measured frequency sweeps into an impulse-response tensor.

    table has a row (az_deg, el_deg, freq_ghz, re, im) per swept point, in
    any order, as load_sweep_csv reads it.  Every row names a grid
    direction, and every grid direction is swept once at each point of one
    uniform axis of at least 8 points (azimuths -180 and 180 on a
    full-circle grid are one).  Taps are the inverse DFT of the values,
    Hann-tapered unless window is "none", which inverts np.fft.fft exactly.
    """
    if window not in ("hann", "none"):
        raise ConfigError(
            f"unknown window {window!r}, expected 'hann' or 'none'")
    table = np.asarray(table, dtype=float).reshape(-1, 5)
    az, el, freq = table[:, 0], table[:, 1], table[:, 2]
    with np.errstate(over="ignore", invalid="ignore"):  # nan: off the grid
        i, j = grid.nearest_pixel(el, az)
        pel, paz = grid.angles_of(i, j)
        on_grid = (np.abs(pel - el) <= 1e-6) \
            & (np.abs(wrap_angle_deg(paz - az)) <= 1e-6)
        pixel = i * grid.n_az + j   # exact unless the grid outnumbers rows
    if not on_grid.all():
        raise DataFormatError("sweep direction (az={}, el={}) is not a grid "
                              "point".format(*table[np.argmin(on_grid), :2]))
    order = np.lexsort((freq, pixel))
    pixel, freq = pixel[order], freq[order]
    n_pixels = grid.n_el * grid.n_az
    twice = (np.diff(freq) == 0) & (np.diff(pixel) == 0)
    if twice.any() and n_pixels <= len(table):
        a, b = table[order[np.argmax(twice):][:2]]
        raise DataFormatError("sweep rows (az={:g}, el={:g}) and (az={:g}, "
                              "el={:g}) are one grid direction at {:g} GHz"
                              .format(a[0], a[1], b[0], b[1], a[2]))
    starts = np.flatnonzero(np.diff(pixel)) + 1
    if n_pixels > len(table) or len(starts) + 1 < n_pixels:
        swept = set(zip(i.tolist(), j.tolist()))
        missing = ((a, b) for a in range(grid.n_el)  # lazy, for huge grids
                   for b in range(grid.n_az) if (a, b) not in swept)
        shown = ", ".join("(az={1:g}, el={0:g})".format(*grid.angles_of(*p))
                          for p in islice(missing, 8))
        more = n_pixels - len(swept) - 8
        raise DataFormatError(f"sweeps missing grid directions: {shown}"
                              + (f" and {more} more" if more > 0 else ""))
    counts = np.diff(starts, prepend=0, append=len(table))
    n = int(counts[0])
    freqs = freq[:n]          # the first direction's axis, which all share
    if n < 8:
        raise DataFormatError("a frequency sweep needs at least 8 points")
    df = np.diff(freqs)
    step = float(np.mean(df))
    if np.max(np.abs(df - step)) > 1e-6 * step:
        raise DataFormatError("frequency axis is not uniformly spaced")
    sample_rate = n * float((freqs[-1] - freqs[0]) / (n - 1))
    check_sample_rate(sample_rate, DataFormatError,
                      f"frequency axis {freqs[0]:g} to {freqs[-1]:g} GHz in "
                      f"{n} points: ")
    differs = counts != n
    if not differs.any():
        differs = np.max(np.abs(freq.reshape(-1, n) - freqs), axis=1) \
            > 1e-9 * max(freqs[-1], 1.0)
    if differs.any():
        el0, az0 = grid.angles_of(*divmod(int(np.argmax(differs)), grid.n_az))
        raise DataFormatError(f"direction (az={az0:g}, el={el0:g}) has a "
                              f"different frequency axis from the rest")
    data = np.empty(grid.shape + (n,), dtype=complex)  # .real keeps a -0.0
    data.real, data.imag = (table[order, k].reshape(data.shape)
                            for k in (3, 4))
    if window == "hann":
        data *= np.hanning(n)
    return CirTensor.dense(grid, sample_rate, np.fft.ifft(data, axis=-1))


# ---------------------------------------------------------------------------
# model fitting and evaluation shared by both protocols


def fit_gev_table(train_rows: list):
    """Fit the ratio-test model and tabulate its per-metric, per-class
    parameters with cdf fit quality.  Returns (model, {metric: FitPair})."""
    model = mlr_train(train_rows)
    x, is_los = labelled_table(train_rows)

    def fit(j, label, rows):
        params = model.params(METRIC_NAMES[j], label)
        return GevFit(params.gamma, params.mu, params.sigma,
                      cdf_rmse(x[rows, j], params))

    return model, {name: FitPair(fit(j, LOS, is_los), fit(j, NLOS, ~is_los))
                   for j, name in enumerate(METRIC_NAMES)}


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
    return {row: ErrorRates(*error_rates(v.decision, truths))
            for row, v in verdicts.items()}


def _write_curves(out_dir: Path, train_rows: list, mlr_model) -> list:
    """One CSV per metric and class: fitted pdf/cdf against the empirical
    histogram and staircase."""
    curve_dir = out_dir / "curves"
    curve_dir.mkdir(parents=True, exist_ok=True)
    x_train, is_los = labelled_table(train_rows)
    names = []
    for j, metric in enumerate(METRIC_NAMES):
        for label, rows in ((LOS, is_los), (NLOS, ~is_los)):
            values = np.sort(x_train[rows, j])
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
            name = f"{metric}_{label.lower()}.csv"
            save_csv(curve_dir / name, ["x", "fitted_pdf", "fitted_cdf",
                                        "empirical_pdf", "empirical_cdf"],
                     np.column_stack((x, gev_pdf(x, params),
                                      gev_cdf(x, params), emp_pdf,
                                      emp_cdf)).tolist())
            names.append(f"curves/{name}")
    return names


# ---------------------------------------------------------------------------
# full protocols


def run_experiment(config: ExperimentConfig, out_dir) -> Report:
    """Run the configured protocol end to end, write its artifacts under
    out_dir, and return the Report written to report.json.

    A simulated campaign's realizations are drawn and extracted through
    _over_cpus, each from its own keyed streams, and the fits run in
    this process, so the outputs are the same bytes on any CPU count."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run = _run_simulated if config.mode == "simulate" else _run_measured
    report = run(config, out)
    save_document(out / "report.json", report)
    return report


def _simulated_features(config: ExperimentConfig, i: int):
    """extract_realization of the configured campaign's realization i."""
    clusters, _, cir = simulate_realization(config.sim, config.seed, i)
    return extract_realization(cir, clusters, config.seg, config.metric)


def _run_simulated(config: ExperimentConfig, out: Path) -> Report:
    indices = range(config.n_realizations)
    rows, log = _fold_extracted(zip(indices, _over_cpus(
        partial(_simulated_features, config), indices)))
    save_features(out / "features.csv", rows)
    train_rows = [fv for i, fv in rows if i < config.n_train]
    test_rows = [fv for i, fv in rows
                 if config.n_train <= i < config.n_train + config.n_test]
    mlr_model, gev_table, ann_model = train_models(train_rows, config)
    save_document(out / "mlr_model.json", mlr_model)
    save_document(out / "ann_model.json", ann_model)
    error_table = _evaluate(mlr_model, ann_model, test_rows)
    curves = _write_curves(out, train_rows, mlr_model)

    return Report(
        config.mode, config,
        counts={"n_realizations": config.n_realizations,
                "feature_rows": len(rows), "train_rows": len(train_rows),
                "test_rows": len(test_rows),
                "skipped_clusters": log["skipped_clusters"],
                "los_missed": log["los_missed"]},
        gev_table=gev_table, error_table=error_table,
        diagnostics={"network_training": ann_model.training,
                     "per_realization": log["realizations"]},
        curves={"files": curves})


def _run_measured(config: ExperimentConfig, out: Path) -> Report:
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

    return Report(
        config.mode, config,
        counts={"n_samples": len(sample_ids), "feature_rows": len(loaded),
                "repeats": boot.repeats,
                "skipped_repeats": boot.repeats - len(repeat_tables)},
        gev_table=_average(repeat_tables),
        error_table=_average(repeat_errors),
        diagnostics={"per_repeat": diags}, curves={"files": []})


def _average(docs: list):
    """Entry-by-entry mean of Records or nested dicts of one layout."""
    if isinstance(docs[0], Record):
        return type(docs[0]).from_dict(_average([d.to_dict() for d in docs]))
    if isinstance(docs[0], dict):
        return {key: _average([d[key] for d in docs]) for key in docs[0]}
    return float(np.mean(docs))
