"""On-disk formats.

Everything textual is JSON with sorted keys or CSV with a fixed header, and
every writer is deterministic: identical objects produce identical bytes,
with no timestamps or absolute paths.  Every CSV table is written by
save_csv and read by one row loop, _records, which names the line and byte
offset only of a line it refuses; _floats parses the numbers of both
tables and refuses any that is not finite.  Impulse-response tensors pair
a JSON manifest with a sibling raw binary of little-endian float32 (re, im)
pairs in (elevation, azimuth, tap) index order, written one elevation row
at a time and kept as complex64 when read.  Every JSON document read back
is a Record tagged with its FORMAT; see save_document and load_document.
"""

import csv
import io
import json
import math
import os
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Literal

import numpy as np

from .chansim import CirTensor, RayCluster, SimConfig, check_sample_rate
from .errors import DataFormatError, NlosIdError, Record
from .metrics import METRIC_NAMES, FeatureVector
from .pas import AngularGrid, PasMap

_FEATURE_HEADER = list(METRIC_NAMES) + ["label"]
_SWEEP_HEADER = ["az_deg", "el_deg", "freq_ghz", "re", "im"]


def save_json(path, obj) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    Path(path).write_text(text, encoding="utf-8")


def _read_text(path) -> str:
    """A file's UTF-8 text with its line ends as stored."""
    try:
        return Path(path).read_bytes().decode("utf-8")
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
            f"(byte {len(exc.doc[:exc.pos].encode())})") from exc
    except ValueError as exc:   # an integer too long to convert
        raise DataFormatError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataFormatError(
            f"{path}: top level must be a JSON object, found "
            f"{type(doc).__name__}")
    return doc


def _read_csv(path) -> tuple[list, list]:
    """A CSV file's stripped header fields, and its lines with their ends."""
    lines = _read_text(path).splitlines(keepends=True)
    if not lines:
        raise DataFormatError(f"{path}: file is empty")
    return [h.strip() for h in lines[0].split(",")], lines


def _records(path, lines, n_fields, parse):
    """Yield parse(stripped fields) for each non-blank line after the
    header.  A line with another field count, or whose fields parse refuses
    with a ValueError, raises a DataFormatError naming its line and the
    byte offset at which it starts."""
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        fields = [p.strip() for p in line.split(",")]
        try:
            if len(fields) != n_fields:
                raise ValueError(
                    f"expected {n_fields} fields, got {len(fields)}")
            record = parse(fields)
        except ValueError as exc:
            offset = sum(len(before.encode()) for before in lines[:lineno - 1])
            raise DataFormatError(
                f"{path}: line {lineno} (byte {offset}): {exc}") from exc
        yield record


def save_csv(path, header, records) -> None:
    """Write a header row and then records as CSV with bare newlines."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(records)
    Path(path).write_text(buf.getvalue(), encoding="utf-8")


def save_document(path, record) -> None:
    """Write a Record as JSON tagged with its FORMAT."""
    save_json(path, {"format": record.FORMAT, **record.to_dict()})


def load_document(path, *classes):
    """Read what save_document wrote, as the one of classes whose FORMAT
    the document names; errors name the file."""
    doc = load_json(path)
    found = doc.pop("format", None)
    cls = next((c for c in classes if c.FORMAT == found), None)
    if cls is None:
        wanted = " or ".join(repr(c.FORMAT) for c in classes)
        raise DataFormatError(
            f"{path}: expected a {wanted} document, found {found!r}")
    try:
        return cls.from_dict(doc)
    except DataFormatError as exc:
        raise DataFormatError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# impulse-response tensors


@dataclass(frozen=True)
class TensorManifest(Record):
    FORMAT = "cir_tensor"
    error = DataFormatError

    grid: AngularGrid
    sample_rate_ghz: float
    n_taps: int
    dtype: Literal["c64le"]
    data_file: str

    def __post_init__(self):
        super().__post_init__()
        check_sample_rate(self.sample_rate_ghz, DataFormatError,
                          "TensorManifest.sample_rate_ghz: ")
        if Path(self.data_file).name != self.data_file \
                or self.data_file in ("", ".."):
            raise DataFormatError(f"data_file must be a bare file name, "
                                  f"got {self.data_file!r}")


def save_cir_tensor(cir: CirTensor, manifest_path) -> None:
    """Stream the tensor's pixels out one elevation row at a time; a refused
    or failed write leaves neither the binary nor the manifest."""
    manifest_path = Path(manifest_path)
    manifest = TensorManifest(cir.grid, cir.sample_rate_ghz, cir.n_taps,
                              "c64le", manifest_path.stem + ".bin")
    bin_path = manifest_path.with_name(manifest.data_file)
    part = bin_path.with_name(bin_path.name + ".part")
    az = np.arange(cir.grid.n_az)
    try:
        with open(part, "wb") as f, np.errstate(over="raise"):
            for i in range(cir.grid.n_el):
                cir.pixels(np.full_like(az, i), az).astype("<c8").tofile(f)
        os.replace(part, bin_path)
    except FloatingPointError as exc:
        raise DataFormatError(f"{manifest_path}: taps exceed the complex64 "
                              f"range of the tensor file") from exc
    finally:
        part.unlink(missing_ok=True)
    save_document(manifest_path, manifest)


def load_cir_tensor(manifest_path) -> CirTensor:
    manifest_path = Path(manifest_path)
    manifest = load_document(manifest_path, TensorManifest)
    shape = manifest.grid.shape + (manifest.n_taps,)
    bin_path = manifest_path.with_name(manifest.data_file)
    if not bin_path.is_file():
        raise DataFormatError(f"{manifest_path}: data file {bin_path} is missing")
    actual, expected = bin_path.stat().st_size, 8 * math.prod(shape)
    if actual != expected:
        raise DataFormatError(
            f"{bin_path}: holds {actual} bytes, expected {expected} for a "
            f"{'x'.join(map(str, shape))} tensor")
    data = np.fromfile(bin_path, dtype="<c8").reshape(shape)
    try:
        return CirTensor.dense(manifest.grid, manifest.sample_rate_ghz, data)
    except NlosIdError as exc:
        raise DataFormatError(f"{manifest_path}: {exc}") from exc


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


def _floats(fields) -> list:
    """The number fields of a CSV line, the one parser of both tables; a
    ValueError names the first field that is not a finite number."""
    row = [float(f) for f in fields]
    if not all(map(math.isfinite, row)):
        bad = next(f for f, v in zip(fields, row) if not math.isfinite(v))
        raise ValueError(f"not a finite number: {bad!r}")
    return row


def load_sweep_csv(*paths) -> np.ndarray:
    """Read sweep files into one (n, 5) float table, az_deg, el_deg,
    freq_ghz, re and im, in file and line order, for ingest_sweeps."""
    table = array("d")
    for path in paths:
        header, lines = _read_csv(path)
        if header != _SWEEP_HEADER:
            raise DataFormatError(
                f"{path}: header must be {','.join(_SWEEP_HEADER)}, "
                f"got {','.join(header)!r}")
        for row in _records(path, lines, 5, _floats):
            table.extend(row)
    return np.frombuffer(table).reshape(-1, 5)


# ---------------------------------------------------------------------------
# feature datasets


def save_features(path, rows) -> None:
    """rows: iterable of (realization | None, FeatureVector), all with a
    realization, which is then written, or all without."""
    rows = list(rows)
    bare = [k for k, (r, _) in enumerate(rows) if r is None]
    with_realization = len(bare) < len(rows)
    if with_realization and bare:
        raise DataFormatError(f"{path}: rows[{bare[0]}] has no realization, "
                              f"but other rows have one")
    save_csv(path, (["realization"] if with_realization else [])
             + _FEATURE_HEADER,
             [([int(r)] if with_realization else [])
              + fv.values().tolist() + [fv.label or ""] for r, fv in rows])


def load_features(path) -> list:
    """Returns a list of (realization | None, FeatureVector)."""
    header, lines = _read_csv(path)
    if header == ["realization"] + _FEATURE_HEADER:
        with_realization = True
    elif header == _FEATURE_HEADER:
        with_realization = False
    else:
        raise DataFormatError(
            f"{path}: header must be {','.join(_FEATURE_HEADER)} with an "
            f"optional leading realization column, got {','.join(header)!r}")
    first = int(with_realization)
    return list(_records(path, lines, len(header), lambda fields: (
        int(fields[0]) if with_realization else None,
        FeatureVector(*_floats(fields[first:first + 5]),
                      label=fields[-1] or None))))


# ---------------------------------------------------------------------------
# ground truth


@dataclass(frozen=True)
class Truth(Record):
    FORMAT = "truth"
    error = DataFormatError

    clusters: tuple[RayCluster, ...] = ()


def save_truth(path, clusters) -> None:
    save_document(path, Truth(tuple(clusters)))


def load_truth(path) -> list:
    return list(load_document(path, Truth).clusters)


@dataclass(frozen=True)
class Realization(Record):
    error = DataFormatError

    index: int
    cir: str                  # file names relative to the manifest
    pas: str | None = None
    truth: str | None = None


@dataclass(frozen=True)
class SimulationManifest(Record):
    FORMAT = "simulation"
    error = DataFormatError

    realizations: tuple[Realization, ...] = ()
    config: SimConfig | None = None   # what generated the files, which
    seed: int | None = None           # extract does not need
    n_realizations: int | None = None


# ---------------------------------------------------------------------------
# verdicts


def save_verdicts(path, realizations, verdicts, truths) -> None:
    """One row per entry of the columns: realization | None, the Verdicts
    of one classification, and truth | None."""
    save_csv(path, ["realization", "decision", "score", "support_violation",
                    "truth"],
             zip(["" if r is None else int(r) for r in realizations],
                 verdicts.decision.tolist(), verdicts.score.tolist(),
                 verdicts.support_violation.astype(int).tolist(),
                 [t or "" for t in truths], strict=True))
