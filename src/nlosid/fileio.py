"""On-disk formats.

Everything textual is JSON with sorted keys or CSV with a fixed header, and
every writer is deterministic: identical objects produce identical bytes,
with no timestamps or absolute paths.  Impulse-response tensors pair a JSON
manifest with a sibling raw binary of little-endian float32 (re, im) pairs
in (elevation, azimuth, tap) index order.
"""

import csv
import io
import json
from pathlib import Path

import numpy as np

from .chansim import RayCluster
from .classifiers import AnnModel, MlrModel
from .errors import DataFormatError
from .gevstats import GevParams
from .metrics import METRIC_NAMES, FeatureVector
from .pas import AngularGrid, CirTensor, PasMap

_FEATURE_HEADER = list(METRIC_NAMES) + ["label"]
_SWEEP_HEADER = ["az_deg", "el_deg", "freq_ghz", "re", "im"]


def save_json(path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _read_text(path) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DataFormatError(
            f"{path}: not UTF-8 text (byte {exc.start})") from exc


def load_json(path) -> dict:
    """Parse a JSON document whose top level must be an object."""
    try:
        doc = json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise DataFormatError(
            f"{path}: invalid JSON at line {exc.lineno} column {exc.colno} "
            f"(byte {exc.pos})") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(
            f"{path}: top level must be a JSON object, found "
            f"{type(doc).__name__}")
    return doc


def _expect_format(doc: dict, expected: str, path) -> None:
    got = doc.get("format")
    if got != expected:
        raise DataFormatError(
            f"{path}: expected a {expected!r} document, found {got!r}")


# ---------------------------------------------------------------------------
# impulse-response tensors


def save_cir_tensor(cir: CirTensor, manifest_path) -> None:
    manifest_path = Path(manifest_path)
    bin_name = manifest_path.stem + ".bin"
    manifest = {
        "format": "cir_tensor",
        "grid": cir.grid.to_dict(),
        "sample_rate_ghz": float(cir.sample_rate_ghz),
        "n_taps": int(cir.n_taps),
        "dtype": "c64le",
        "data_file": bin_name,
    }
    pairs = np.empty(cir.data.shape + (2,), dtype="<f4")
    pairs[..., 0] = cir.data.real
    pairs[..., 1] = cir.data.imag
    pairs.tofile(manifest_path.with_name(bin_name))
    save_json(manifest_path, manifest)


def load_cir_tensor(manifest_path) -> CirTensor:
    manifest_path = Path(manifest_path)
    doc = load_json(manifest_path)
    _expect_format(doc, "cir_tensor", manifest_path)
    if doc.get("dtype") != "c64le":
        raise DataFormatError(
            f"{manifest_path}: unsupported dtype {doc.get('dtype')!r}")
    try:
        grid = AngularGrid.from_dict(doc["grid"])
        sample_rate = float(doc["sample_rate_ghz"])
        n_taps = int(doc["n_taps"])
        bin_path = manifest_path.with_name(str(doc["data_file"]))
    except KeyError as exc:
        raise DataFormatError(
            f"{manifest_path}: manifest missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"{manifest_path}: bad manifest field: {exc}") from exc
    expected = grid.n_el * grid.n_az * n_taps * 2 * 4
    if not bin_path.exists():
        raise DataFormatError(f"{manifest_path}: data file {bin_path} is missing")
    actual = bin_path.stat().st_size
    if actual != expected:
        raise DataFormatError(
            f"{bin_path}: holds {actual} bytes, expected {expected} for a "
            f"{grid.n_el}x{grid.n_az}x{n_taps} tensor")
    pairs = np.fromfile(bin_path, dtype="<f4").reshape(
        grid.n_el, grid.n_az, n_taps, 2)
    data = pairs[..., 0].astype(np.complex128) + 1j * pairs[..., 1]
    return CirTensor(grid, sample_rate, data)


# ---------------------------------------------------------------------------
# power maps


def save_pas_json(pas: PasMap, path) -> None:
    save_json(path, {
        "format": "pas_map",
        "grid": pas.grid.to_dict(),
        "unit": "linear",
        "power": [[float(v) for v in row] for row in pas.power],
    })


# ---------------------------------------------------------------------------
# measured frequency sweeps


def load_sweep_csv(path) -> dict:
    """Parse a sweep file into {(az_deg, el_deg): (freqs_ghz, complex values)}
    with each direction's rows sorted by frequency."""
    lines = _read_text(path).splitlines()
    if not lines:
        raise DataFormatError(f"{path}: file is empty")
    header = [h.strip() for h in lines[0].split(",")]
    if header != _SWEEP_HEADER:
        raise DataFormatError(
            f"{path}: header must be {','.join(_SWEEP_HEADER)}, "
            f"got {lines[0]!r}")
    per_direction: dict = {}
    offset = len(lines[0]) + 1
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip():
            parts = line.split(",")
            if len(parts) != 5:
                raise DataFormatError(
                    f"{path}: line {lineno} (byte {offset}): expected 5 "
                    f"fields, got {len(parts)}")
            try:
                az, el, freq, re, im = (float(p) for p in parts)
            except ValueError as exc:
                raise DataFormatError(
                    f"{path}: line {lineno} (byte {offset}): {exc}") from exc
            per_direction.setdefault((az, el), []).append((freq, re, im))
        offset += len(line) + 1
    out = {}
    for key in sorted(per_direction):
        rows = sorted(per_direction[key])
        freqs = np.array([r[0] for r in rows])
        values = np.array([complex(r[1], r[2]) for r in rows])
        out[key] = (freqs, values)
    return out


# ---------------------------------------------------------------------------
# feature datasets


def save_features(path, rows) -> None:
    """rows: iterable of (realization | None, FeatureVector).  The
    realization column is written when any row carries one."""
    rows = list(rows)
    with_realization = any(r is not None for r, _ in rows)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = (["realization"] if with_realization else []) + _FEATURE_HEADER
    writer.writerow(header)
    for realization, fv in rows:
        record = [repr(float(v)) for v in fv.values()] + [fv.label or ""]
        if with_realization:
            record = [str(0 if realization is None else int(realization))] \
                + record
        writer.writerow(record)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def load_features(path) -> list:
    """Returns a list of (realization | None, FeatureVector)."""
    lines = _read_text(path).splitlines()
    if not lines:
        raise DataFormatError(f"{path}: file is empty")
    header = [h.strip() for h in lines[0].split(",")]
    if header == ["realization"] + _FEATURE_HEADER:
        with_realization = True
    elif header == _FEATURE_HEADER:
        with_realization = False
    else:
        raise DataFormatError(
            f"{path}: header must be {','.join(_FEATURE_HEADER)} with an "
            f"optional leading realization column, got {lines[0]!r}")
    out = []
    offset = len(lines[0]) + 1
    expected = len(header)
    for lineno, line in enumerate(lines[1:], start=2):
        if line.strip():
            parts = [p.strip() for p in line.split(",")]
            if len(parts) != expected:
                raise DataFormatError(
                    f"{path}: line {lineno} (byte {offset}): expected "
                    f"{expected} fields, got {len(parts)}")
            try:
                realization = int(parts[0]) if with_realization else None
                vals = [float(p) for p in
                        (parts[1:6] if with_realization else parts[0:5])]
            except ValueError as exc:
                raise DataFormatError(
                    f"{path}: line {lineno} (byte {offset}): {exc}") from exc
            label = parts[-1] or None
            out.append((realization, FeatureVector(*vals, label=label)))
        offset += len(line) + 1
    return out


# ---------------------------------------------------------------------------
# ground truth


def save_truth(path, clusters) -> None:
    save_json(path, {
        "format": "truth",
        "clusters": [c.to_dict() for c in clusters],
    })


def load_truth(path) -> list:
    doc = load_json(path)
    _expect_format(doc, "truth", path)
    return [RayCluster.from_dict(c) for c in doc.get("clusters", [])]


# ---------------------------------------------------------------------------
# models


def mlr_model_to_dict(model: MlrModel) -> dict:
    return {
        "format": "mlr_model",
        "tables": {
            name: {"los": pair[0].to_dict(), "nlos": pair[1].to_dict()}
            for name, pair in model.tables.items()
        },
    }


def mlr_model_from_dict(doc: dict) -> MlrModel:
    try:
        tables = {
            name: (GevParams.from_dict(entry["los"]),
                   GevParams.from_dict(entry["nlos"]))
            for name, entry in doc["tables"].items()
        }
    except KeyError as exc:
        raise DataFormatError(f"model document missing field {exc}") from exc
    except (AttributeError, TypeError, ValueError) as exc:
        raise DataFormatError(f"bad model document: {exc}") from exc
    return MlrModel(tables)


def save_mlr_model(path, model: MlrModel) -> None:
    save_json(path, mlr_model_to_dict(model))


def load_mlr_model(path) -> MlrModel:
    doc = load_json(path)
    _expect_format(doc, "mlr_model", path)
    return mlr_model_from_dict(doc)


def ann_model_to_dict(model: AnnModel) -> dict:
    return {
        "format": "ann_model",
        "iw": model.iw.tolist(), "b1": model.b1.tolist(),
        "lw21": model.lw21.tolist(), "b2": model.b2.tolist(),
        "lw32": model.lw32.tolist(), "b3": model.b3.tolist(),
        "feature_means": model.feature_means.tolist(),
        "feature_scales": model.feature_scales.tolist(),
    }


def ann_model_from_dict(doc: dict) -> AnnModel:
    try:
        return AnnModel(
            iw=np.array(doc["iw"], dtype=float),
            b1=np.array(doc["b1"], dtype=float),
            lw21=np.array(doc["lw21"], dtype=float),
            b2=np.array(doc["b2"], dtype=float),
            lw32=np.array(doc["lw32"], dtype=float),
            b3=np.array(doc["b3"], dtype=float),
            feature_means=np.array(doc["feature_means"], dtype=float),
            feature_scales=np.array(doc["feature_scales"], dtype=float),
        )
    except KeyError as exc:
        raise DataFormatError(f"model document missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DataFormatError(f"bad model document: {exc}") from exc


def save_ann_model(path, model: AnnModel) -> None:
    save_json(path, ann_model_to_dict(model))


def load_ann_model(path) -> AnnModel:
    doc = load_json(path)
    _expect_format(doc, "ann_model", path)
    return ann_model_from_dict(doc)


# ---------------------------------------------------------------------------
# verdicts


def save_verdicts(path, rows) -> None:
    """rows: iterable of (realization | None, Verdict, truth | None)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["realization", "decision", "score",
                     "support_violation", "truth"])
    for realization, verdict, truth in rows:
        writer.writerow([
            "" if realization is None else int(realization),
            verdict.decision, repr(float(verdict.score)),
            int(verdict.support_violation), truth or "",
        ])
    Path(path).write_text(buf.getvalue(), encoding="utf-8")
