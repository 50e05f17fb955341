"""Every stored document fuzzed through the command line.

One property: take a tiny, valid set of the files nlosid reads (a config,
a simulation with its tensors and truth files, a feature table, a sweep
file, both model kinds and a report), change one place in one of them or
delete or cut short a tensor's data file or the sweep file, and run the
command that reads it through cli.main.  Whatever the change, the command
exits 0, 2, 3 or 4 (3 for a tensor's data file, 0 or 3 for the sweep
file), no exception escapes, and a non-zero exit prints an `error: `
line.  A numpy RuntimeWarning counts as a failure.

tests/test_fuzz_documents.py runs a few derandomized examples of it.  For
a long run, with N random examples:

    PYTHONPATH=src python tests/fuzz_documents.py 2000
"""

import contextlib
import io
import json
import math
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

from hypothesis import given, settings, strategies as st

from nlosid.cli import main
from nlosid.fileio import save_features, save_json

from conftest import labelled_feature_rows, small_sim

DELETE = object()     # the replacement that removes the place it names
TRUNCATE = object()   # the one that cuts a file short, at a drawn length
REPLACEMENTS = [DELETE, None, "x", [1.0], {"a": 1}, True, 0, -0.0, 1e308,
                -1e308, 2 ** 70, math.nan, math.inf, -math.inf]
# a tensor's data file holds bytes, not values
DATA_REPLACEMENTS = [DELETE, TRUNCATE]
# a sweep file's numbers are read by the CSV parser, subnormals too
SWEEP_REPLACEMENTS = REPLACEMENTS + [5e-324, TRUNCATE]

_SIM = "sim/simulation.json"
_MLR = "models/mlr_model.json"
# document kind -> its file under the fixture directory
FILES = {"config": "c.json", "tensor": "sim/real_0000.json",
         "tensor_data": "sim/real_0000.bin",
         "truth": "sim/truth_0000.json", "simulation": _SIM,
         "mlr_model": _MLR, "ann_model": "models/ann_model.json",
         "features": "g.csv", "sweeps": "sweep.csv",
         "report": "rep/report.json"}
_CSV_KINDS = ("features", "sweeps")
_INGEST_AXES = ["--az", "0:2:2", "--el", "0:2:2"]


def build_fixture(root: Path) -> None:
    """Write one valid file of each kind under root: a 2-realization
    simulation on a 9x5 grid, models and a report trained on a synthetic
    labelled table, and 8-point sweeps of a 2x2 grid."""
    config = {"sim": small_sim(az_range_deg=(-20.0, 20.0),
                               el_range_deg=(-10.0, 10.0),
                               snr_db=40.0).to_dict(),
              "seg": {"min_pixels": 2, "marker_min_separation": 1.0},
              "schedule": {"max_epochs": 50},
              "n_realizations": 2, "n_train": 1, "n_test": 1, "seed": 5}
    save_json(root / "c.json", config)
    rows = [(None, fv) for _, fv in labelled_feature_rows(n_realizations=40)]
    save_features(root / "f.csv", rows)
    save_features(root / "g.csv", rows[:4])
    (root / FILES["sweeps"]).write_text(
        "az_deg,el_deg,freq_ghz,re,im\n" + "".join(
            f"{az},{el},{60.0 + 0.25 * k},{math.cos(k + az)},"
            f"{math.sin(k - el)}\n"
            for az in (0, 2) for el in (0, 2) for k in range(8)))
    save_json(root / "m.json", {
        "mode": "measured", "features_csv": str(root / "f.csv"),
        "schedule": {"max_epochs": 50},
        "bootstrap": {"n_train": 60, "n_test": 20, "repeats": 1}})
    for argv in (["--config", root / "c.json", "--out", root / "sim",
                  "simulate"],
                 ["--config", root / "c.json", "--out", root / "models",
                  "train", "--features", root / "f.csv"],
                 ["--config", root / "m.json", "--out", root / "rep",
                  "experiment"],
                 ["--out", root / "ingested.json", "ingest",
                  root / FILES["sweeps"], *_INGEST_AXES]):
        code, err = run([str(a) for a in argv])
        assert code == 0, err


def command(kind: str, path: tuple, root: Path) -> list:
    """The arguments of the command that reads a document of this kind; a
    config's sim section is read by simulate, the rest of it by extract."""
    config = ["--config", str(root / "c.json")]
    extract = ["extract", "--manifest", str(root / _SIM)]
    classify = ["classify", "--features", str(root / "g.csv"), "--model"]
    out = ["--out", str(root / "out")]
    if kind == "config":
        return config + out + (["simulate"] if path[:1] == ("sim",)
                               else extract)
    return {
        "tensor": config + out + ["extract", "--cir", str(root / FILES[kind])],
        "tensor_data": config + out + ["extract", "--cir",
                                       str(root / FILES["tensor"])],
        "truth": config + out + extract,
        "simulation": config + out + extract,
        "mlr_model": out + classify + [str(root / _MLR)],
        "ann_model": out + classify + [str(root / FILES[kind])],
        "features": out + classify + [str(root / _MLR)],
        "sweeps": out + ["ingest", str(root / FILES[kind]), *_INGEST_AXES],
        "report": ["report", str(root / FILES[kind])],
    }[kind]


def read(kind: str, file: Path):
    """A JSON document, a CSV table as a list of rows of fields, or a data
    file's bytes."""
    if kind == "tensor_data":
        return file.read_bytes()
    text = file.read_text()
    if kind in _CSV_KINDS:
        return [line.split(",") for line in text.splitlines()]
    return json.loads(text)


def write(kind: str, file: Path, doc) -> None:
    """What read gave, after mutated; a CSV row or table mutated whole is
    the replacement's text."""
    if doc is DELETE:
        file.unlink()
    elif kind not in _CSV_KINDS:
        file.write_text(json.dumps(doc))
    elif isinstance(doc, list):
        file.write_text("".join((",".join(row) if isinstance(row, list)
                                 else row) + "\n" for row in doc))
    else:
        file.write_text(doc)


def places(doc, prefix=()):
    """Every path into a JSON value: object keys and list indices."""
    yield prefix
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from places(value, prefix + (key,))


def mutated(doc, path: tuple, replacement, csv: bool):
    """doc with the value at path replaced, or deleted; a CSV field takes
    the replacement's JSON text, and null as an empty field."""
    if csv and replacement is not DELETE:
        replacement = "" if replacement is None else json.dumps(replacement)
    if not path:
        return replacement
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if replacement is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return doc


def run(argv: list) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def fuzz_property(fixture: Path):
    """The property over the files that build_fixture wrote to fixture."""
    docs = {kind: read(kind, fixture / name) for kind, name in FILES.items()}
    paths = {kind: list(places(doc)) for kind, doc in docs.items()}

    @given(kind=st.sampled_from(sorted(FILES)), data=st.data())
    def changed_documents_exit_cleanly(kind, data):
        path = data.draw(st.sampled_from(paths[kind]), label="path")
        replacement = data.draw(st.sampled_from(
            {"tensor_data": DATA_REPLACEMENTS,
             "sweeps": SWEEP_REPLACEMENTS}.get(kind, REPLACEMENTS)),
            label="replacement")
        if replacement is TRUNCATE:
            whole = (fixture / FILES[kind]).read_bytes()
            replacement = whole[:data.draw(st.integers(0, len(whole) - 1),
                                           label="length")]
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp) / "docs"
            shutil.copytree(fixture, root)
            file = root / FILES[kind]
            if isinstance(replacement, bytes):      # the file cut short
                file.write_bytes(replacement)
            else:
                write(kind, file, mutated(read(kind, file), path, replacement,
                                          kind in _CSV_KINDS))
            code, err = run(command(kind, path, root))
        assert code in (0, 2, 3, 4), err
        assert code == 3 or kind != "tensor_data", err
        assert code in (0, 3) or kind != "sweeps", err
        if code:
            assert any(line.startswith("error: ")
                       for line in err.splitlines()), err

    return changed_documents_exit_cleanly


if __name__ == "__main__":
    warnings.simplefilter("error", RuntimeWarning)
    with tempfile.TemporaryDirectory() as tmp:
        build_fixture(Path(tmp))
        settings(max_examples=int(sys.argv[1]), deadline=None,
                 database=None)(fuzz_property(Path(tmp)))()
    print(f"{sys.argv[1]} examples passed")
