"""Golden CLI transcript: stdout, stderr and exit code of every command on every fixture.

Each command runs on every file under ``tests/data`` (``css`` and
``conv-css`` on every ordered pair), in text, ``--json`` and
``--quiet`` modes, plus the root and per-command ``--help``.  The
``options`` group adds the option paths: the ``css`` distances, a ``cv``
tolerance, random ``verify`` sweeps, and usage errors, whose stderr is
then pinned byte for byte.  The
recorded transcript is ``tests/data/cli_golden.json``; a refactor that
changes no behaviour leaves it byte-identical.

Regenerate it, after a deliberate change of output, with::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from ebitcalc.cli import _COMMANDS, main

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "cli_golden.json"
FIXTURES = sorted(p.name for p in DATA.iterdir() if p.name != GOLDEN.name)
MODES = ((), ("--json",), ("--quiet",))
PAIRED = ("css", "conv-css")
# Bad option values, flags a command does not act on, an unknown
# command and missing file arguments: each exits 1 before a file is read.
USAGE_ERRORS = [
    ["verify", "--random", "-5", "--max-n", "3"],
    ["verify", "--random", "2", "--max-n", "0"],
    ["cv", "pair.cvcheck", "--tol", "nan"],
    ["cv", "pair.cvcheck", "--tol", "-1"],
    ["css", "hamming74.gf2", "hamming74.gf2", "--d1", "-3", "--d2", "3"],
    ["css", "hamming74.gf2", "hamming74.gf2", "--d1", "3", "--d2", "0"],
    ["cv", "pair.cvcheck", "--tol", "1"],
    ["cv", "pair.cvcheck", "--tol", "inf"],
    ["css", "no1.gf2", "no2.gf2", "--d1", "3"],
    ["css", "no1.gf2", "no2.gf2", "--d1", "0", "--d2", "3"],
    ["css", "hamming74.gf2", "hamming74.gf2", "--reduce"],
    ["gf4", "example.gf4", "--reduce"],
    ["qudit", "pair3.qcheckd", "--reduce"],
    ["cv", "pair.cvcheck", "--reduce"],
    ["conv", "conv5x5.conv", "--reduce"],
    ["conv4", "hd.conv4", "--reduce"],
    ["conv-css", "h1mat.conv", "h2mat.conv", "--reduce"],
    ["verify", "--random", "2", "--max-n", "3", "--reduce"],
    ["verify", "fivequbit.qcheck", "--max-n", "3"],
    ["verify", "fivequbit.qcheck", "--seed", "3"],
    ["frobnicate"],
    ["ebits"],
    ["css", "hamming74.gf2"],
]
GROUPS = ["help", *_COMMANDS, "options"]


def cases(command):
    """Every argv of ``command`` the transcript records."""
    if command == "help":
        return [["--help"]] + [[name, "--help"] for name in _COMMANDS]
    if command == "options":
        pairs = [[a, b] for a in FIXTURES for b in FIXTURES]
        runs = [
            *(["css", *pair, "--d1", "3", "--d2", "3"] for pair in pairs),
            ["cv", "pair.cvcheck", "--tol", "0.5"],
            ["verify", "--random", "3", "--max-n", "4"],
            ["verify", "--random", "3", "--max-n", "4", "--seed", "7"],
        ]
        return [[*argv, *mode] for argv in runs for mode in MODES] + USAGE_ERRORS
    if command in PAIRED:
        files = [[a, b] for a in FIXTURES for b in FIXTURES]
    else:
        files = [[f] for f in FIXTURES]
    return [[command, *f, *mode] for f in files for mode in MODES]


def transcript(argv):
    """``[exit code, stdout, stderr]`` of ``main(argv)`` run in ``tests/data``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exit_:  # --help exits from inside argparse
            code = exit_.code
    return [code, out.getvalue(), err.getvalue()]


@contextlib.contextmanager
def fixed_environment():
    """Run from ``tests/data``, so messages name bare file names, with
    ``--help`` wrapped at 80 columns."""
    cwd, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.chdir(DATA)
    os.environ["COLUMNS"] = "80"
    try:
        yield
    finally:
        os.chdir(cwd)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def record():
    with fixed_environment():
        return {
            " ".join(argv): transcript(argv)
            for command in GROUPS
            for argv in cases(command)
        }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_fixture_and_command(golden):
    expected = {" ".join(argv) for c in GROUPS for argv in cases(c)}
    assert set(golden) == expected


@pytest.mark.parametrize("command", GROUPS)
def test_cli_matches_golden_transcript(golden, command):
    with fixed_environment():
        changed = [
            key
            for argv in cases(command)
            if transcript(argv) != golden[key := " ".join(argv)]
        ]
    assert changed == []


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
