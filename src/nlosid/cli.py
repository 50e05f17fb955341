"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 data-format error or an
unreadable file, 4 numerical failure.
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

from .chansim import LOS, NLOS
from .classifiers import (AnnModel, MlrModel, ann_classify, error_rates,
                          mlr_classify)
from .errors import ConfigError, DataFormatError, NumericalError
from .experiment import (ExperimentConfig, Report, cmd_extract, cmd_simulate,
                         fit_gev_table, ingest_sweeps, inputs_from_manifest,
                         run_experiment, train_models)
from .fileio import (load_document, load_features, load_json, load_sweep_csv,
                     save_cir_tensor, save_document, save_json, save_verdicts)
from .pas import AngularGrid


def _load_config(args) -> ExperimentConfig:
    config = (ExperimentConfig() if args.config is None
              else ExperimentConfig.from_dict(load_json(args.config)))
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def _out_path(args, default: str) -> Path:
    return Path(args.out) if args.out is not None else Path(default)


def _axis(text: str, name: str) -> tuple[float, float, float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ConfigError(f"--{name} must look like start:stop:step")
    try:
        values = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise ConfigError(f"--{name}: {exc}") from exc
    if not all(math.isfinite(v) for v in values):
        raise ConfigError(f"--{name} values must be finite")
    return values


def _grid_from_axes(az: str, el: str) -> AngularGrid:
    az_lo, az_hi, az_step = _axis(az, "az")
    el_lo, el_hi, el_step = _axis(el, "el")
    return AngularGrid.from_ranges((az_lo, az_hi), (el_lo, el_hi),
                                   az_step, el_step)


def _run_simulate(args) -> int:
    config = _load_config(args)
    manifest = cmd_simulate(config, _out_path(args, "out"))
    print(f"wrote {config.n_realizations} realizations; manifest {manifest}")
    return 0


def _run_ingest(args) -> int:
    grid = _grid_from_axes(args.az, args.el)
    sweeps = {}
    for path in args.sweeps:
        for key, payload in load_sweep_csv(path).items():
            if key in sweeps:
                raise DataFormatError(
                    f"direction (az={key[0]:g}, el={key[1]:g}) appears in "
                    f"more than one sweep file")
            sweeps[key] = payload
    cir = ingest_sweeps(sweeps, grid, window=args.window)
    out = _out_path(args, "tensor.json")
    save_cir_tensor(cir, out)
    print(f"wrote {grid.n_el}x{grid.n_az}x{cir.n_taps} tensor to {out}")
    return 0


def _run_extract(args) -> int:
    config = _load_config(args)
    if args.manifest is not None:
        inputs = inputs_from_manifest(args.manifest)
    else:
        inputs = [(i, Path(p), None) for i, p in enumerate(args.cir)]
    out = _out_path(args, "features.csv")
    rows, log = cmd_extract(inputs, config.seg, config.metric, out_csv=out)
    save_json(Path(str(out) + ".log.json"), {"format": "extraction_log", **log})
    print(f"wrote {len(rows)} feature rows to {out} "
          f"({log['skipped_clusters']} clusters skipped, "
          f"{len(log['los_missed'])} realizations missed the direct path)")
    return 0


def _run_fit(args) -> int:
    rows = [fv for _, fv in load_features(args.features)]
    _, table = fit_gev_table(rows)
    out = _out_path(args, "gev_table.json")
    save_json(out, {"format": "gev_table", "metrics": {
        name: pair.to_dict() for name, pair in table.items()}})
    print(f"wrote per-class distribution table to {out}")
    return 0


def _run_train(args) -> int:
    config = _load_config(args)
    rows = [fv for _, fv in load_features(args.features)]
    mlr_model, _, ann_model = train_models(rows, config)
    out_dir = _out_path(args, "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    save_document(out_dir / "mlr_model.json", mlr_model)
    save_document(out_dir / "ann_model.json", ann_model)
    print(f"wrote mlr_model.json and ann_model.json under {out_dir}")
    return 0


def _run_classify(args) -> int:
    model = load_document(args.model, MlrModel, AnnModel)
    rows = load_features(args.features)
    if args.metrics is not None and isinstance(model, AnnModel):
        raise ConfigError("--metrics only applies to the ratio test")
    features = [fv for _, fv in rows]
    try:
        if isinstance(model, AnnModel):
            verdicts = ann_classify(model, features)
        else:       # an empty --metrics is an empty subset, refused
            subset = args.metrics and args.metrics.split(",")
            verdicts = mlr_classify(model, features, metrics=subset)
    except (DataFormatError, NumericalError) as exc:
        raise type(exc)(f"{args.model}: {exc}") from exc
    out = _out_path(args, "verdicts.csv")
    truths = [fv.label for fv in features]
    save_verdicts(out, [r for r, _ in rows], verdicts, truths)
    labelled = [i for i, t in enumerate(truths) if t]
    msg = f"wrote {len(features)} verdicts to {out}"
    classes = {truths[i] for i in labelled}
    if {LOS, NLOS} <= classes:
        t1, t2 = error_rates(verdicts.decision[labelled],
                             [truths[i] for i in labelled])
        msg += f"; type I {t1:.3f}, type II {t2:.3f}"
    elif labelled:
        msg += (f"; error rates need both classes, and the labels hold "
                f"only {' and '.join(sorted(classes))}")
    print(msg)
    return 0


def _run_experiment(args) -> int:
    config = _load_config(args)
    out_dir = _out_path(args, "out")
    report = run_experiment(config, out_dir)
    print(f"wrote report.json under {out_dir}")
    print("\n".join(_error_table(report)))
    return 0


def _run_report(args) -> int:
    report = load_document(args.report, Report)
    counts = sorted(report.counts.items())
    lines = [f"mode: {report.mode}",
             "counts: " + ", ".join(f"{k}={v}" for k, v in counts), "",
             "fitted distributions (training data)",
             f"{'metric':<12}{'class':<7}{'gamma':>10}{'mu':>12}"
             f"{'sigma':>12}{'cdf_rmse':>10}"]
    lines += [f"{metric:<12}{key.upper():<7}{p.gamma:>10.4f}{p.mu:>12.4f}"
              f"{p.sigma:>12.4f}{p.cdf_rmse:>10.4f}"
              for metric, pair in report.gev_table.items()
              for key, p in (("los", pair.los), ("nlos", pair.nlos))]
    lines += ["", *_error_table(report)]
    print("\n".join(lines))
    return 0


def _error_table(report: Report) -> list:
    return ["error rates (held-out data)",
            f"{'rule':<12}{'type I':>10}{'type II':>10}",
            *(f"{rule:<12}{e.type_i:>10.3f}{e.type_ii:>10.3f}"
              for rule, e in report.error_table.items())]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nlosid",
        description="Identify line-of-sight and reflected clusters in "
                    "beam-trained power angular spectra.")
    parser.add_argument("--config", help="experiment config JSON")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--out", help="output file or directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="write simulated tensors and maps")
    p.set_defaults(func=_run_simulate)

    p = sub.add_parser("ingest", help="build a tensor from measured sweeps")
    p.add_argument("sweeps", nargs="+", help="sweep CSV files")
    p.add_argument("--az", required=True, help="azimuth axis start:stop:step")
    p.add_argument("--el", required=True, help="elevation axis start:stop:step")
    p.add_argument("--window", choices=("hann", "none"), default="hann")
    p.set_defaults(func=_run_ingest)

    p = sub.add_parser("extract", help="segment tensors and compute metrics")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--manifest", help="simulation manifest JSON")
    group.add_argument("--cir", nargs="+", help="tensor manifest files")
    p.set_defaults(func=_run_extract)

    p = sub.add_parser("fit", help="fit per-class metric distributions")
    p.add_argument("--features", required=True, help="labelled feature CSV")
    p.set_defaults(func=_run_fit)

    p = sub.add_parser("train", help="train both classifiers")
    p.add_argument("--features", required=True, help="labelled feature CSV")
    p.set_defaults(func=_run_train)

    p = sub.add_parser("classify", help="score feature vectors with a model")
    p.add_argument("--features", required=True, help="feature CSV")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--metrics",
                   help="comma-separated metric subset for the ratio test")
    p.set_defaults(func=_run_classify)

    p = sub.add_parser("experiment", help="run a full protocol")
    p.set_defaults(func=_run_experiment)

    p = sub.add_parser("report", help="pretty-print a report")
    p.add_argument("report", help="report JSON path")
    p.set_defaults(func=_run_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DataFormatError, OSError) as exc:
        # an OSError's message names the file it could not open
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
