"""The README's library example and command lines run as written."""

import re
import shlex
from pathlib import Path

import pytest

from nlosid.cli import build_parser, main
from nlosid.fileio import load_cir_tensor
from nlosid.pas import AngularGrid

README = Path(__file__).resolve().parent.parent / "README.md"


def library_use_block() -> str:
    """The first python code block of the README's "Library use" section."""
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def command_lines() -> list:
    """Every line of the README that starts with the nlosid command."""
    return [line for line in README.read_text(encoding="utf-8").splitlines()
            if line.startswith("nlosid ")]


def test_readme_library_use_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(library_use_block(), str(README), "exec"), {})
    assert (tmp_path / "out" / "report.json").is_file()


@pytest.mark.parametrize("line", command_lines())
def test_readme_command_lines_parse(line):
    args = build_parser().parse_args(shlex.split(line)[1:])
    assert callable(args.func)


def test_readme_ingest_line_runs(tmp_path, monkeypatch):
    """The README's ingest line, on an 8-point sweep of every direction of
    its grid, one file per elevation row, exits 0."""
    (line,) = [line for line in command_lines() if " ingest " in line]
    argv = shlex.split(line)[1:]
    args = build_parser().parse_args(argv)
    (az0, az1, az_step), (el0, el1, el_step) = (
        map(float, axis.split(":")) for axis in (args.az, args.el))
    grid = AngularGrid.from_ranges((az0, az1), (el0, el1), az_step, el_step)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sweeps").mkdir()
    for i in range(grid.n_el):
        rows = ["az_deg,el_deg,freq_ghz,re,im"]
        for j in range(grid.n_az):
            el, az = grid.angles_of(i, j)
            rows += [f"{float(az)!r},{float(el)!r},{60.0 + 0.25 * k!r},"
                     f"{1.0 + i + j},{float(k)!r}" for k in range(8)]
        (tmp_path / "sweeps" / f"row_{i:02d}.csv").write_text(
            "\n".join(rows) + "\n")
    argv = [arg for pattern in argv for arg in (
        sorted(map(str, Path().glob(pattern))) if "*" in pattern
        else [pattern])]
    assert main(argv) == 0
    cir = load_cir_tensor(args.out)
    assert cir.grid == grid and cir.n_taps == 8
    assert grid.shape == (28, 72)
