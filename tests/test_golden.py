"""What the public commands write, against their committed golden copies in tests/golden.

Each case runs one command in process, at a flag set that changes to the package are compared at, and compares every
file it writes with its copy: strings, ints, nulls and shapes exactly, floats to 1e-12, absolute, or relative above 1
(CI installs an unpinned numpy on three Pythons, so bits are not required).  A propagate CSV keeps its header, every
50th row and the last.  After an intended change of output, regenerate the copies with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from trispin.cli import main
from trispin.hilbert import ROUTES

GOLDEN = Path(__file__).resolve().parent / "golden"
PARAMS = '{"k": 1.0, "omega_hat": 2.0, "b0": 1.0, "bz": 1.0, "omega_rf": 2.0, "theta0": 0.0}\n'  # CI's params.json
METHODS = tuple(ROUTES)  # the --method choices
# case: the command's arguments, {} standing for the directory that receives its files
CASES = {
    "verify": ["verify", "--out", "{}/verify.json"],
    "search_x8": ["search", "--omega-hat", "2.7", "--threshold", "0.95",
                  "--landscape", "{}/search_x8_landscape.csv", "--out", "{}/search_x8.json"],
    "search_x7": ["search", "--target", "x7", "--omega-hat", "3", "--threshold", "0.5", "--resolution", "9",
                  "--landscape", "{}/search_x7_landscape.csv", "--out", "{}/search_x7.json"],
    **{f"propagate_{m}": ["propagate", "--params-file", "{}/params.json", "--method", m, "--out", f"{{}}/propagate_{m}.csv"]
       for m in METHODS},
    "analytic_0_1": ["analytic", "--m0", "0", "--n0", "1", "--out", "{}/analytic_0_1.json"],
    "analytic_realized": ["analytic", "--m0", "0", "--n0", "0", "--omega-hat", "2.7", "--out", "{}/analytic_realized.json"],
    "analytic_x6": ["analytic", "--m0", "0", "--n0", "0", "--target", "x6", "--out", "{}/analytic_x6.json"],
    "sweep": ["sweep", "--max", "3", "--out", "{}/sweep.json"],
    "scan": ["scan", "--from", "2", "--to", "4", "--samples", "101", "--out", "{}/scan.json"],
    "invert": ["invert", "--omega-hat", "2.7", "--out", "{}/invert.json"],
}


def outputs(case: str) -> dict:
    """{file name: text} of what case writes, each propagate CSV cut to its header, every 50th row and the last."""
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "params.json").write_text(PARAMS)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([arg.format(tmp) for arg in CASES[case]]) == 0
        texts = {path.name: path.read_text() for path in Path(tmp).iterdir() if path.name != "params.json"}
    for name, text in texts.items():
        if name.startswith("propagate_"):
            header, *rows = text.splitlines(keepends=True)
            texts[name] = header + "".join(row for i, row in enumerate(rows) if i % 50 == 0 or i == len(rows) - 1)
    return texts


def parse(name: str, text: str):
    """A JSON file's value; a CSV's header and rows, each cell a float, or None where empty."""
    if name.endswith(".json"):
        return json.loads(text)
    header, *rows = text.splitlines()
    return [header.split(",")] + [[float(cell) if cell else None for cell in row.split(",")] for row in rows]


def assert_close(got, want, where: str) -> None:
    if isinstance(want, (dict, list)):
        assert type(got) is type(want) and len(got) == len(want), where
        keys = want if isinstance(want, dict) else range(len(want))
        assert isinstance(want, list) or list(got) == list(want), where
        for key in keys:
            assert_close(got[key], want[key], f"{where}/{key}")
    elif type(want) is float and type(got) is float:
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (where, got, want)
    else:
        assert type(got) is type(want) and got == want, (where, got, want)


@pytest.mark.parametrize("case", CASES)
def test_command_output_matches_its_golden_copy(case):
    texts = outputs(case)
    assert sorted(texts) == sorted(path.name for path in GOLDEN.glob(f"{case}*"))
    for name, text in texts.items():
        assert_close(parse(name, text), parse(name, (GOLDEN / name).read_text()), name)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        for name, text in outputs(case).items():
            (GOLDEN / name).write_text(text)
            print(f"wrote {len(text):7d} bytes to tests/golden/{name}")
