"""The benchmark's workloads: their inputs, one pass, and output checks.

Each workload is a closed loop with one client: one pass at a time, from
the benchmark's own process, with no pool.  A pass drives nlosid only
through its public entry points, ``experiment.run_experiment`` and
``cli.main``, looked up at call time so that a traced pass reaches the
wrapped functions.

``tiny=True`` shrinks each workload for the smoke tests; the statistical
output checks then do not apply and are skipped.
"""

import contextlib
import hashlib
import io
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

import table
from nlosid import cli, experiment
from nlosid.experiment import ExperimentConfig
from nlosid.fileio import load_features, save_features
from nlosid.metrics import FeatureVector

REFERENCE_CONFIG = Path("configs/reference.json")


def _no_span(name):
    return contextlib.nullcontext()


def _reference_doc(root: Path) -> dict:
    return json.loads((root / REFERENCE_CONFIG).read_text(encoding="utf-8"))


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _report(out: Path) -> dict:
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


class _Workload:
    def __init__(self, root: Path, seed: int, tiny: bool = False):
        self.root, self.seed, self.tiny = root, seed, tiny


class _Experiment(_Workload):
    """A pass is one run_experiment call; its output is report.json."""

    def run_pass(self, out: Path, span=_no_span) -> None:
        experiment.run_experiment(self.config, out)

    def digest(self, out: Path) -> str:
        return _sha256(out / "report.json")


class ReferenceCampaign(_Experiment):
    """The ROADMAP yardstick: run_experiment on configs/reference.json
    exactly as shipped, seed included, so --seed does not change it.
    chansim.render_cir does most of the work, so lazy rendering, in-place
    noise and a realization pool show here."""

    name = "reference-campaign"
    reaches = ("chansim.generate_channel", "chansim.render_cir",
               "pas.compute_pas", "segmentation.segment",
               "segmentation.label_clusters_with_truth",
               "metrics.cluster_features", "gevstats.gev_fit_mle",
               "gevstats.cdf_rmse", "classifiers.mlr_train",
               "classifiers.ann_train", "classifiers.mlr_classify",
               "classifiers.ann_classify", "experiment.run_experiment",
               "experiment.extract_realization", "fileio.save_features",
               "fileio.save_json")

    def build(self, inputs: Path) -> None:
        config = ExperimentConfig.from_dict(_reference_doc(self.root))
        if self.tiny:
            config = replace(config, n_realizations=30, n_train=22, n_test=8,
                             schedule=replace(config.schedule, max_epochs=20))
        self.config = config
        self.items = config.n_realizations

    def check(self, out: Path) -> list:
        report = _report(out)
        problems = []
        if report["counts"]["n_realizations"] != self.config.n_realizations:
            problems.append("report does not count every realization")
        if self.tiny:
            return problems
        # criterion 08 of tests/test_acceptance.py
        rows = [fv for _, fv in load_features(out / "features.csv")]
        groups = {lab: [fv for fv in rows if fv.label == lab]
                  for lab in ("LOS", "NLOS")}
        if min(len(g) for g in groups.values()) < 50:
            problems.append("fewer than 50 feature rows in a class")
            return problems

        def median(label, name):
            return float(np.median([fv.metric(name) for fv in groups[label]]))

        for high, low, name in (("LOS", "NLOS", "r_p"), ("LOS", "NLOS", "k_t"),
                                ("NLOS", "LOS", "tau_mean_ns"),
                                ("NLOS", "LOS", "tau_rms_ns")):
            if not median(high, name) > median(low, name):
                problems.append(f"median {name} of {high} is not above {low}")
        errors = report["error_table"]
        for rule, limit in (("joint_mlr", 0.20), ("ann", 0.15)):
            for kind in ("type_i", "type_ii"):
                if not errors[rule][kind] <= limit:
                    problems.append(f"{rule} {kind} {errors[rule][kind]:.4f} "
                                    f"exceeds {limit}")
        ann, joint = errors["ann"], errors["joint_mlr"]
        if not (ann["type_i"] <= joint["type_i"]
                or ann["type_ii"] <= joint["type_ii"]):
            problems.append("network is worse than the ratio test on both "
                            "error types")
        return problems


class MeasuredBootstrap(_Experiment):
    """run_experiment in measured mode with the reference bootstrap (30/20
    samples, 10 repeats) and schedule, on a feature table synthesized from
    --seed (see table.py).  It bypasses chansim, pas, segmentation and
    metrics, so it is the "predict no change" workload for render work and
    the main one for ANN training and GEV fitting."""

    name = "measured-bootstrap"
    reaches = ("gevstats.gev_fit_mle", "gevstats.cdf_rmse",
               "classifiers.mlr_train", "classifiers.ann_train",
               "classifiers.mlr_classify", "classifiers.ann_classify",
               "experiment.run_experiment", "fileio.load_features",
               "fileio.save_json")

    def build(self, inputs: Path) -> None:
        inputs.mkdir(parents=True, exist_ok=True)
        n_samples = 60 if self.tiny else table.N_SAMPLES
        rows = table.synthesize(self.seed % 2**32, n_samples)
        self.n_rows = len(rows)
        self.n_samples = n_samples
        path = inputs / "table.csv"
        save_features(path, [(sample, FeatureVector(**values, label=label))
                             for sample, label, values in rows])
        doc = _reference_doc(self.root)
        # a relative path keeps report.json free of the checkout location
        doc.update(mode="measured", features_csv=os.path.relpath(path))
        if self.tiny:
            doc["bootstrap"]["repeats"] = 2
            doc["schedule"]["max_epochs"] = 20
        self.config = ExperimentConfig.from_dict(doc)
        self.items = self.config.bootstrap.repeats

    def check(self, out: Path) -> list:
        report = _report(out)
        boot = self.config.bootstrap
        problems = []
        counts = report["counts"]
        if counts["repeats"] != boot.repeats \
                or len(report["diagnostics"]["per_repeat"]) != boot.repeats:
            problems.append(f"report does not hold {boot.repeats} repeats")
        if counts["n_samples"] != self.n_samples \
                or counts["feature_rows"] != self.n_rows:
            problems.append("report sample or row count differs from the "
                            "table")
        if report["config"]["bootstrap"] != boot.to_dict():
            problems.append("report does not echo the bootstrap sizes")
        return problems


class StagedCli(_Workload):
    """cli.main in process: simulate, extract --manifest, train, then
    classify once per model, over the first realizations of the reference
    configuration with the seed set from --seed.  The only workload where
    fileio writes beside reads (8.4 MB of tensor per realization, written
    and read back, plus a PAS JSON that extract never reads) and the only
    one through cli dispatch."""

    name = "staged-cli"
    n_realizations = 30      # enough realizations for 20 LOS rows to train
    reaches = ("cli.simulate", "cli.extract", "cli.train", "cli.classify",
               "chansim.generate_channel", "chansim.render_cir",
               "pas.compute_pas", "segmentation.segment",
               "segmentation.label_clusters_with_truth",
               "metrics.cluster_features", "gevstats.gev_fit_mle",
               "gevstats.cdf_rmse", "classifiers.mlr_train",
               "classifiers.ann_train", "classifiers.mlr_classify",
               "classifiers.ann_classify", "experiment.extract_realization",
               "fileio.save_cir_tensor", "fileio.load_cir_tensor",
               "fileio.save_pas_json", "fileio.save_truth",
               "fileio.load_truth", "fileio.save_features",
               "fileio.load_features", "fileio.save_json")

    def build(self, inputs: Path) -> None:
        inputs.mkdir(parents=True, exist_ok=True)
        doc = _reference_doc(self.root)
        doc.update(n_realizations=self.n_realizations, n_train=20, n_test=10,
                   seed=self.seed % 2**32)
        if self.tiny:
            doc["schedule"]["max_epochs"] = 20
        self.config_path = inputs / "config.json"
        self.config_path.write_text(json.dumps(doc, indent=2, sort_keys=True),
                               encoding="utf-8")
        self.items = self.n_realizations

    def _steps(self, out: Path) -> list:
        common = ["--config", str(self.config_path)]
        sim = out / "sim"
        features = str(out / "features.csv")
        models = out / "models"
        return [
            ("simulate", common + ["--out", str(sim), "simulate"]),
            ("extract", common + ["--out", features, "extract",
                                  "--manifest", str(sim / "simulation.json")]),
            ("train", common + ["--out", str(models), "train",
                                "--features", features]),
            ("classify", ["--out", str(out / "verdicts_mlr.csv"), "classify",
                          "--features", features,
                          "--model", str(models / "mlr_model.json")]),
            ("classify", ["--out", str(out / "verdicts_ann.csv"), "classify",
                          "--features", features,
                          "--model", str(models / "ann_model.json")]),
        ]

    def run_pass(self, out: Path, span=_no_span) -> None:
        out.mkdir(parents=True, exist_ok=True)
        for command, argv in self._steps(out):
            with contextlib.redirect_stdout(io.StringIO()), \
                    span(f"cli.{command}"):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"nlosid {command} exited with {code}")

    def digest(self, out: Path) -> str:
        h = hashlib.sha256()
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(out)).encode() + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
        return h.hexdigest()

    def check(self, out: Path) -> list:
        problems = []
        manifest = json.loads((out / "sim" / "simulation.json").read_text())
        if len(manifest["realizations"]) != self.n_realizations:
            problems.append("simulate did not write every realization")
        n_rows = len(load_features(out / "features.csv"))
        for model in ("mlr", "ann"):
            verdicts = (out / f"verdicts_{model}.csv").read_text().splitlines()
            if len(verdicts) - 1 != n_rows:
                problems.append(f"{model} wrote {len(verdicts) - 1} verdicts "
                                f"for {n_rows} feature rows")
        return problems


WORKLOADS = {w.name: w for w in (ReferenceCampaign, MeasuredBootstrap,
                                 StagedCli)}


def make(name: str, root: Path, seed: int, tiny: bool = False):
    return WORKLOADS[name](root, seed, tiny)
