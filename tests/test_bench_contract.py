"""What the benchmark relies on in nlosid still holds.

bench/tracing.py looks up every layer function it lists with getattr, so a
renamed or deleted one makes every traced benchmark pass fail.  The module
uses only the standard library, so it is loaded here from its path.  The
workloads build their configs through nlosid's readers, so a stricter
reader must still accept them.
"""

import importlib
import importlib.util
import json
from pathlib import Path

from nlosid import ExperimentConfig

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "bench" / "tracing.py"


def test_traced_layer_functions_exist():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{module}.{name}"
               for module, names in tracing.LAYER_FUNCTIONS.items()
               for name in names
               if not callable(getattr(importlib.import_module(
                   f"nlosid.{module}"), name, None))]
    assert tracing.LAYER_FUNCTIONS and not missing


def test_benchmark_workloads_build_their_inputs(tmp_path, monkeypatch):
    """Every workload builds its tiny inputs, without running a pass, and
    the config file staged-cli writes for the command line parses."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    built = {}
    for name in workloads.WORKLOADS:
        built[name] = workloads.make(name, ROOT, seed=1, tiny=True)
        built[name].build(tmp_path / name)
        assert built[name].items >= 1
    staged = built["staged-cli"]
    config = json.loads(staged.config_path.read_text(encoding="utf-8"))
    assert ExperimentConfig.from_dict(config).n_realizations == \
        workloads.StagedCli.n_realizations
