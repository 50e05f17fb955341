"""One benchmark run of one workload: set-up, timed passes, checks, metrics.

An untraced run measures the end-to-end metrics.  It times set-up in
fresh processes (probe.py), then runs passes back to back until the next
one would end after ``seconds``, but at least MIN_PASSES, and reports
medians over the passes.  A traced run makes one untraced and one
traced pass and reports the per-layer metrics of the traced one.

Every pass is checked: an exception, a non-zero CLI exit, a failed output
check, or output bytes that differ from the run's first pass fail it.
"""

import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy
import scipy

import tracing
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

SETUP_PROBES = 3
MIN_PASSES = 2          # so that every run shows whether output bytes repeat


def end_to_end_units() -> dict:
    return {"wall_s": "s", "items_per_s": "1/s", "setup_s": "s",
            "peak_rss_mb": "MB", "written_mb": "MB", "ok_ratio": "ratio"}


def _tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _commit() -> str:
    """The checked-out commit, or "unknown" outside a git work tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _src_sha256() -> str:
    h = hashlib.sha256()
    src = ROOT / "src" / "nlosid"
    for path in sorted(src.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "openblas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": _commit(), "src_sha256": _src_sha256()}


def _setup_seconds(name: str, seed: int, work: Path, tiny: bool,
                   probes: int) -> float:
    """Median time for a fresh process to import nlosid and build the
    workload's inputs."""
    times = []
    for k in range(probes):
        argv = [sys.executable, str(BENCH_DIR / "probe.py"), name, str(seed),
                str(work / f"probe{k}")] + (["--tiny"] if tiny else [])
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT, timeout=120)
        times.append(time.perf_counter() - t0)
        shutil.rmtree(work / f"probe{k}", ignore_errors=True)
    return statistics.median(times)


@dataclass
class Pass:
    wall_s: float
    ok: bool
    problems: list
    sha256: str | None          # digest of the pass's output bytes
    written_bytes: int


def _one_pass(workload, out: Path, tracer=None) -> Pass:
    t0 = time.perf_counter()
    try:
        if tracer is None:
            workload.run_pass(out)
        else:
            with tracing.installed(tracer):
                workload.run_pass(out, tracer.span)
        wall = time.perf_counter() - t0
        problems = workload.check(out)
        digest = workload.digest(out)
    except Exception as exc:
        wall = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        problems, digest = [f"{type(exc).__name__}: {exc}"], None
    written = _tree_bytes(out) if out.exists() else 0
    shutil.rmtree(out, ignore_errors=True)
    return Pass(wall, not problems, problems, digest, written)


def _same_bytes(passes: list) -> None:
    """Fail every pass whose output bytes differ from the first pass's."""
    first = passes[0].sha256
    for p in passes[1:]:
        if p.ok and p.sha256 != first:
            p.ok = False
            p.problems.append("output bytes differ from the first pass")


def _timed_passes(workload, work: Path, seconds: float, setup_s: float):
    passes = []
    started = time.perf_counter()
    while True:
        passes.append(_one_pass(workload, work / f"pass{len(passes)}"))
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES \
                and elapsed + elapsed / len(passes) > seconds:
            break
    _same_bytes(passes)
    wall = statistics.median(p.wall_s for p in passes)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    written = statistics.median(p.written_bytes for p in passes)
    metrics = {
        "wall_s": wall,
        "items_per_s": workload.items / wall,
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb * 1024 / 1e6,
        "written_mb": written / 1e6,
        "ok_ratio": sum(p.ok for p in passes) / len(passes),
    }
    return passes, metrics


def _traced_passes(workload, work: Path, spans_path: Path, info: dict):
    plain = _one_pass(workload, work / "pass0")
    tracer = tracing.Tracer(pass_id=1)
    traced = _one_pass(workload, work / "pass1", tracer)
    passes = [plain, traced]
    _same_bytes(passes)
    metrics = tracing.layer_metrics(tracer)
    for span in workload.reaches:
        if metrics[f"{span}.calls"] == 0:
            traced.ok = False
            traced.problems.append(f"span {span} recorded no calls")
    metrics["trace.overhead_pct"] = \
        100.0 * (traced.wall_s - plain.wall_s) / plain.wall_s
    tracer.dump(spans_path, info)
    return passes, metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool, *,
                 work_root: Path, tiny: bool = False,
                 setup_probes: int = SETUP_PROBES) -> tuple[dict, dict]:
    """Returns (result, info): the result object the benchmark prints and
    the facts about the run (environment, per-pass times and digests)."""
    work = work_root / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    info = {"workload": name, "seed": seed, "trace": int(trace),
            **environment()}
    try:
        workload = workloads.make(name, ROOT, seed, tiny)
        workload.build(work / "inputs")
        if trace:
            units = tracing.per_layer_units()
            info["spans_file"] = f"spans-{name}-seed{seed}.json"
            passes, metrics = _traced_passes(
                workload, work, work_root / info["spans_file"], info)
        else:
            units = end_to_end_units()
            setup_s = _setup_seconds(name, seed, work, tiny, setup_probes)
            passes, metrics = _timed_passes(workload, work, seconds, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not p.ok for p in passes)
    info["passes"] = [asdict(p) for p in passes]
    result = {
        "correct": failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }
    return result, info
