"""Golden CLI transcript: stdout, stderr and exit code of every command on every fixture.

Each command runs on every file under ``tests/data`` (``css`` and
``conv-css`` on every ordered pair), in text, ``--json`` and
``--quiet`` modes, plus the root and per-command ``--help``.  The
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


def cases(command):
    """Every argv of ``command`` the transcript records."""
    if command == "help":
        return [["--help"]] + [[name, "--help"] for name in _COMMANDS]
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
            for command in ["help", *_COMMANDS]
            for argv in cases(command)
        }


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_fixture_and_command(golden):
    expected = {" ".join(argv) for c in ["help", *_COMMANDS] for argv in cases(c)}
    assert set(golden) == expected


@pytest.mark.parametrize("command", ["help", *_COMMANDS])
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
