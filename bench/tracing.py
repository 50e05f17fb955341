"""Per-layer spans for nlosid, recorded from outside the package.

A traced pass swaps each layer function listed in LAYER_FUNCTIONS for a
wrapper that records a span: name, start, end, parent span and pass id.
The wrapper is bound at every nlosid module global that holds the original
function, which is where callers look it up (``experiment.compute_pas`` as
well as ``pas.compute_pas``), and the originals come back when the pass
ends.  Spans stay in memory; ``layer_metrics`` derives self time, call
counts and the layer counters from them, and ``Tracer.dump`` writes them
out.

Byte counts for the ``fileio`` spans come from the ``rchar``/``wchar``
counters of /proc/self/io, so they count what the calls actually read and
write, whatever the file format.  They include nested calls: the bytes of
``save_pas_json`` also appear under ``save_json``, which it calls.
"""

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass

# Layer functions that get a span, by nlosid module.
LAYER_FUNCTIONS = {
    "chansim": ("generate_channel", "render_cir"),
    "pas": ("compute_pas",),
    "segmentation": ("segment", "label_clusters_with_truth"),
    "metrics": ("cluster_features",),
    "gevstats": ("gev_fit_mle", "cdf_rmse"),
    "classifiers": ("mlr_train", "ann_train", "mlr_classify", "ann_classify"),
    "experiment": ("run_experiment", "extract_realization"),
    "fileio": ("save_cir_tensor", "load_cir_tensor", "save_pas_json",
               "save_truth", "load_truth", "save_features", "load_features",
               "save_json"),
}

# The cli layer is traced by the benchmark around each cli.main call, one
# span per subcommand it runs.
CLI_SUBCOMMANDS = ("simulate", "extract", "train", "classify")

SPAN_NAMES = tuple(f"{module}.{fn}" for module, fns in LAYER_FUNCTIONS.items()
                   for fn in fns) + tuple(f"cli.{c}" for c in CLI_SUBCOMMANDS)

_FILEIO = tuple(f"fileio.{fn}" for fn in LAYER_FUNCTIONS["fileio"])


def per_layer_units() -> dict:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    units["chansim.render_cir.out_mb"] = "MB_computed"
    units["segmentation.segment.clusters"] = "count"
    units["segmentation.los_recovered_ratio"] = "ratio"
    units["metrics.cluster_features.usable_ratio"] = "ratio"
    for name in _FILEIO:
        units[f"{name}.mb"] = "MB"
    units["trace.overhead_pct"] = "%"
    return units


def _io_counters() -> tuple[int, int, int]:
    """(rchar, wchar, bytes this read itself adds to rchar)."""
    with open("/proc/self/io", "rb") as f:
        text = f.read()
    fields = dict(line.split(b":", 1) for line in text.splitlines())
    return int(fields[b"rchar"]), int(fields[b"wchar"]), len(text)


@dataclass
class Span:
    name: str
    pass_id: int
    start: float
    end: float = 0.0
    parent: int | None = None
    error: str | None = None       # exception type the call raised
    read_bytes: int = 0
    written_bytes: int = 0


class Tracer:
    """Spans of one traced pass, held in memory until ``dump``."""

    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.spans = []
        self.counters = Counter()
        self._stack = []

    @contextmanager
    def span(self, name: str):
        io_before = _io_counters() if name in _FILEIO else None
        span = Span(name, self.pass_id, time.perf_counter(),
                    parent=self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if io_before is not None:
                r0, w0, own = io_before
                r1, w1, _ = _io_counters()
                span.read_bytes, span.written_bytes = r1 - r0 - own, w1 - w0

    def dump(self, path, info: dict) -> None:
        doc = {"info": info, "spans": [asdict(s) for s in self.spans]}
        path.write_text(json.dumps(doc) + "\n", encoding="utf-8")


def _observe(tracer: Tracer, name: str, result) -> None:
    """Counters read off a layer call's return value."""
    if name == "chansim.render_cir":
        tracer.counters["render_out_bytes"] += result.data.nbytes
    elif name == "segmentation.segment":
        tracer.counters["clusters"] += len(result)
    elif name == "segmentation.label_clusters_with_truth":
        tracer.counters["los_recovered"] += result[1] is True


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        _observe(tracer, name, result)
        return result
    return traced


@contextmanager
def installed(tracer: Tracer):
    """Route every call of a layer function through ``tracer`` while the
    block runs.  nlosid must already be imported."""
    modules = [m for n, m in list(sys.modules.items())
               if n == "nlosid" or n.startswith("nlosid.")]
    patches = []
    try:
        for module_name, fns in LAYER_FUNCTIONS.items():
            home = sys.modules[f"nlosid.{module_name}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                wrapper = _wrap(tracer, f"{module_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, value))
                            setattr(module, attr, wrapper)
        yield tracer
    finally:
        for module, attr, value in reversed(patches):
            setattr(module, attr, value)


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer values of one traced pass (without trace.overhead_pct).
    Layers the pass never reached read 0."""
    child_time = Counter()
    for span in tracer.spans:
        if span.parent is not None:
            child_time[span.parent] += span.end - span.start
    self_s, calls, failed, moved = Counter(), Counter(), Counter(), Counter()
    for idx, span in enumerate(tracer.spans):
        self_s[span.name] += span.end - span.start - child_time[idx]
        calls[span.name] += 1
        failed[span.name] += span.error is not None
        moved[span.name] += span.read_bytes + span.written_bytes
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.self_s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]

    def ratio(num, den):
        return num / den if den else 0.0

    out["chansim.render_cir.out_mb"] = \
        tracer.counters["render_out_bytes"] / 1e6
    out["segmentation.segment.clusters"] = tracer.counters["clusters"]
    out["segmentation.los_recovered_ratio"] = ratio(
        tracer.counters["los_recovered"],
        calls["segmentation.label_clusters_with_truth"])
    # a cluster_features call that raises (DegenerateInputError) is waste
    features = "metrics.cluster_features"
    out[f"{features}.usable_ratio"] = ratio(calls[features] - failed[features],
                                            calls[features])
    for name in _FILEIO:
        out[f"{name}.mb"] = moved[name] / 1e6
    return out
