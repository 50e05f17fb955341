"""End-to-end protocols: simulated campaigns and measured-sweep analysis.

The simulate protocol draws a batch of channel realizations, segments each
power map, extracts per-cluster metrics, fits the per-class GEV tables on
the training split, and scores the likelihood-ratio test (each metric alone
and all five jointly) plus the network on the held-out split.

The measured protocol consumes a labelled feature table and repeats a
bootstrap train/test partition over the measurement samples, averaging the
fitted tables and error rates over the repeats.

Every stage is deterministic in the experiment seed; reports are
byte-reproducible.
"""

from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .chansim import (LOS, NLOS, STREAM_TRAINING, SimConfig,
                      simulate_realization)
from .classifiers import (TrainSchedule, ann_classify, ann_init, ann_train,
                          error_rates, mlr_classify, mlr_train)
from .errors import (ConfigError, ConfigSection, DataFormatError,
                     DegenerateInputError)
from .fileio import (load_cir_tensor, load_features, load_json, load_truth,
                     save_ann_model, save_cir_tensor, save_features,
                     save_json, save_mlr_model, save_pas_json, save_truth)
from .gevstats import bootstrap_split, cdf_rmse, gev_cdf, gev_pdf
from .metrics import METRIC_NAMES, MetricConfig, cluster_features
from .pas import (AngularGrid, CfrSlice, CirTensor, compute_pas, cir_from_cfr,
                  wrap_angle_deg)
from .segmentation import SegParams, label_clusters_with_truth, segment

ERROR_TABLE_ROWS = METRIC_NAMES + ("joint_mlr", "ann")

_CURVE_POINTS = 200
_CURVE_BINS = 30


@dataclass(frozen=True)
class BootstrapSpec(ConfigSection):
    n_train: int = 30
    n_test: int = 20
    repeats: int = 10

    def __post_init__(self):
        if self.n_train < 1 or self.n_test < 1 or self.repeats < 1:
            raise ConfigError("bootstrap sizes and repeats must be positive")


@dataclass(frozen=True)
class ExperimentConfig(ConfigSection):
    mode: str = "simulate"                 # "simulate" or "measured"
    sim: SimConfig = SimConfig()
    seg: SegParams = SegParams(min_pixels=2, marker_min_separation=1.0)
    metric: MetricConfig = MetricConfig()
    schedule: TrainSchedule = TrainSchedule()
    bootstrap: BootstrapSpec = BootstrapSpec()
    n_realizations: int = 250
    n_train: int = 150                     # leading realizations used to train
    n_test: int = 100                      # realizations scored after those
    seed: int = 1                          # master seed, overrides sim.seed
    features_csv: str | None = None        # measured-mode input table

    def __post_init__(self):
        if self.mode not in ("simulate", "measured"):
            raise ConfigError(f"unknown mode {self.mode!r}")
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
    Returns (feature vectors, diagnostics dict); clusters whose metrics are
    degenerate are skipped and counted, never fatal.
    """
    pas = compute_pas(cir)
    clusters = segment(pas, seg)
    los_recovered = None
    if truth is not None:
        clusters, los_recovered = label_clusters_with_truth(
            clusters, truth, pas.grid)
    rows = []
    skipped = 0
    for c in clusters:
        try:
            rows.append(cluster_features(c, cir, pas, metric))
        except DegenerateInputError:
            skipped += 1
    diag = {"n_clusters": len(clusters), "skipped_clusters": skipped,
            "los_recovered": los_recovered}
    return rows, diag


# ---------------------------------------------------------------------------
# staged commands


def cmd_simulate(config: ExperimentConfig, out_dir) -> Path:
    """Write every realization's tensor, power map, and ground truth, plus
    a manifest tying them together.  Returns the manifest path."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    sim = replace(config.sim, seed=config.seed)
    entries = []
    for i in range(config.n_realizations):
        clusters, _, cir = simulate_realization(sim, i)
        names = {
            "index": i,
            "cir": f"real_{i:04d}.json",
            "pas": f"pas_{i:04d}.json",
            "truth": f"truth_{i:04d}.json",
        }
        save_cir_tensor(cir, out / names["cir"])
        save_pas_json(compute_pas(cir), out / names["pas"])
        save_truth(out / names["truth"], clusters)
        entries.append(names)
    manifest_path = out / "simulation.json"
    save_json(manifest_path, {
        "format": "simulation",
        "config": sim.to_dict(),
        "n_realizations": config.n_realizations,
        "realizations": entries,
    })
    return manifest_path


def inputs_from_manifest(manifest_path) -> list:
    """Resolve a simulation manifest into (index, cir_path, truth_path)
    triples."""
    manifest_path = Path(manifest_path)
    doc = load_json(manifest_path)
    if doc.get("format") != "simulation":
        raise DataFormatError(
            f"{manifest_path}: expected a 'simulation' manifest, "
            f"found {doc.get('format')!r}")
    base = manifest_path.parent
    out = []
    try:
        for entry in doc.get("realizations", []):
            truth = entry.get("truth")
            out.append((int(entry["index"]), base / entry["cir"],
                        base / truth if truth else None))
    except KeyError as exc:
        raise DataFormatError(
            f"{manifest_path}: realization entry missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise DataFormatError(
            f"{manifest_path}: bad realization entry: {exc}") from exc
    return out


def cmd_extract(inputs: list, seg: SegParams, metric: MetricConfig,
                out_csv=None):
    """Run segmentation and metric extraction over (index, cir_path,
    truth_path) triples.  Returns (rows, log) where rows pair realization
    indices with feature vectors."""
    rows = []
    log = {"realizations": [], "skipped_clusters": 0, "los_missed": []}
    for index, cir_path, truth_path in inputs:
        cir = load_cir_tensor(cir_path)
        truth = load_truth(truth_path) if truth_path is not None else None
        features, diag = extract_realization(cir, truth, seg, metric)
        rows.extend((index, fv) for fv in features)
        diag = {"index": index, **diag}
        log["realizations"].append(diag)
        log["skipped_clusters"] += diag["skipped_clusters"]
        if diag["los_recovered"] is False:
            log["los_missed"].append(index)
    if out_csv is not None:
        save_features(out_csv, rows)
    return rows, log


def ingest_sweeps(sweeps: dict, grid: AngularGrid,
                  window: str = "hann") -> CirTensor:
    """Assemble measured frequency sweeps into an impulse-response tensor.

    sweeps maps (az_deg, el_deg) to (freqs_ghz, complex values).  Every
    grid direction must be present and all directions must share one
    frequency axis.
    """
    lookup = {}
    for (az, el), payload in sweeps.items():
        pixel = grid.nearest_pixel(el, az)
        pel, paz = grid.angles_of(*pixel)
        if abs(pel - el) > 1e-6 or abs(wrap_angle_deg(paz - az)) > 1e-6:
            raise DataFormatError(
                f"sweep direction (az={az}, el={el}) is not a grid point")
        lookup[pixel] = payload
    missing = []
    for i in range(grid.n_el):
        for j in range(grid.n_az):
            if (i, j) not in lookup:
                el, az = grid.angles_of(i, j)
                missing.append((az, el))
    if missing:
        shown = ", ".join(f"(az={az:g}, el={el:g})" for az, el in missing[:8])
        more = f" and {len(missing) - 8} more" if len(missing) > 8 else ""
        raise DataFormatError(f"sweeps missing grid directions: {shown}{more}")

    ref_freqs = lookup[(0, 0)][0]
    slices = {}
    for pixel, (freqs, values) in lookup.items():
        if len(freqs) != len(ref_freqs) \
                or np.max(np.abs(freqs - ref_freqs)) > 1e-9 * max(ref_freqs[-1], 1.0):
            el, az = grid.angles_of(*pixel)
            raise DataFormatError(
                f"direction (az={az:g}, el={el:g}) has a different "
                f"frequency axis from the rest")
        slices[pixel] = cir_from_cfr(CfrSlice(freqs, values), window=window)

    sample_rate = slices[(0, 0)].sample_rate_ghz
    n_taps = slices[(0, 0)].n_taps
    data = np.zeros((grid.n_el, grid.n_az, n_taps), dtype=complex)
    for (i, j), sl in slices.items():
        data[i, j, :] = sl.taps
    return CirTensor(grid, sample_rate, data)


# ---------------------------------------------------------------------------
# model fitting and evaluation shared by both protocols


def _fit_gev_table(train_rows: list):
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


def _evaluate(mlr_model, ann_model, test_rows: list) -> dict:
    truths = [f.label for f in test_rows]
    table = {}
    for name in METRIC_NAMES:
        verdicts = [mlr_classify(mlr_model, f, metrics=(name,))
                    for f in test_rows]
        t1, t2 = error_rates(verdicts, truths)
        table[name] = {"type_i": t1, "type_ii": t2}
    joint = [mlr_classify(mlr_model, f) for f in test_rows]
    t1, t2 = error_rates(joint, truths)
    table["joint_mlr"] = {"type_i": t1, "type_ii": t2}
    ann = [ann_classify(ann_model, f) for f in test_rows]
    t1, t2 = error_rates(ann, truths)
    table["ann"] = {"type_i": t1, "type_ii": t2}
    return table


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
            fit_pdf = gev_pdf(x, params)
            fit_cdf = gev_cdf(x, params)
            name = f"{metric}_{key}.csv"
            lines = ["x,fitted_pdf,fitted_cdf,empirical_pdf,empirical_cdf"]
            for k in range(len(x)):
                lines.append(",".join(repr(float(v)) for v in (
                    x[k], fit_pdf[k], fit_cdf[k], emp_pdf[k], emp_cdf[k])))
            (curve_dir / name).write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")
            names.append(f"curves/{name}")
    return names


# ---------------------------------------------------------------------------
# full protocols


def run_experiment(config: ExperimentConfig, out_dir) -> dict:
    """Run the configured protocol end to end, write its artifacts under
    out_dir, and return the report dictionary."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if config.mode == "simulate":
        report = _run_simulated(config, out)
    else:
        report = _run_measured(config, out)
    save_json(out / "report.json", report)
    return report


def _run_simulated(config: ExperimentConfig, out: Path) -> dict:
    sim = replace(config.sim, seed=config.seed)
    rows = []
    diags = []
    for i in range(config.n_realizations):
        clusters, _, cir = simulate_realization(sim, i)
        features, diag = extract_realization(cir, clusters, config.seg,
                                             config.metric)
        rows.extend((i, fv) for fv in features)
        diags.append({"index": i, **diag})

    save_features(out / "features.csv", rows)
    train_rows = [fv for i, fv in rows if i < config.n_train]
    test_rows = [fv for i, fv in rows
                 if config.n_train <= i < config.n_train + config.n_test]
    mlr_model, gev_table = _fit_gev_table(train_rows)
    ann_model = ann_train(ann_init(_training_seed(config.seed, 0)),
                          train_rows, config.schedule)
    save_mlr_model(out / "mlr_model.json", mlr_model)
    save_ann_model(out / "ann_model.json", ann_model)
    error_table = _evaluate(mlr_model, ann_model, test_rows)
    curves = _write_curves(out, train_rows, mlr_model)

    return {
        "format": "report",
        "mode": "simulate",
        "config": config.to_dict(),
        "counts": {
            "n_realizations": config.n_realizations,
            "feature_rows": len(rows),
            "train_rows": len(train_rows),
            "test_rows": len(test_rows),
            "skipped_clusters": sum(d["skipped_clusters"] for d in diags),
            "los_missed": [d["index"] for d in diags
                           if d["los_recovered"] is False],
        },
        "gev_table": gev_table,
        "error_table": error_table,
        "diagnostics": {"per_realization": diags},
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
    splits = list(_bootstrap_over(sample_ids, boot, config.seed))

    repeat_tables = []
    repeat_errors = []
    diags = []
    for r, (train_ids, test_ids) in enumerate(splits):
        train_rows = [fv for sid in train_ids for fv in samples[sid]]
        test_rows = [fv for sid in test_ids for fv in samples[sid]]
        mlr_model, gev_table = _fit_gev_table(train_rows)
        ann_model = ann_train(ann_init(_training_seed(config.seed, r)),
                              train_rows, config.schedule)
        repeat_tables.append(gev_table)
        repeat_errors.append(_evaluate(mlr_model, ann_model, test_rows))
        diags.append({"repeat": r, "train_rows": len(train_rows),
                      "test_rows": len(test_rows)})

    return {
        "format": "report",
        "mode": "measured",
        "config": config.to_dict(),
        "counts": {
            "n_samples": len(sample_ids),
            "feature_rows": len(loaded),
            "repeats": boot.repeats,
        },
        "gev_table": _average_tables(repeat_tables),
        "error_table": _average_errors(repeat_errors),
        "diagnostics": {"per_repeat": diags},
        "curves": {"files": []},
    }


def _bootstrap_over(sample_ids: list, boot: BootstrapSpec, seed: int):
    ids = np.array(sample_ids)
    for train_idx, test_idx in bootstrap_split(
            len(ids), boot.n_train, boot.n_test, boot.repeats, seed):
        yield ids[train_idx].tolist(), ids[test_idx].tolist()


def _average_tables(tables: list) -> dict:
    out = {}
    for name in METRIC_NAMES:
        out[name] = {}
        for key in ("los", "nlos"):
            fields = {}
            for field in ("gamma", "mu", "sigma", "cdf_rmse"):
                fields[field] = float(np.mean(
                    [t[name][key][field] for t in tables]))
            out[name][key] = fields
    return out


def _average_errors(errors: list) -> dict:
    out = {}
    for row in ERROR_TABLE_ROWS:
        out[row] = {
            "type_i": float(np.mean([e[row]["type_i"] for e in errors])),
            "type_ii": float(np.mean([e[row]["type_ii"] for e in errors])),
        }
    return out
