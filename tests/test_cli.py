"""End-to-end tests for the command-line interface."""

import contextlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebitcalc import symplectic, verify
from ebitcalc.cli import (
    _COMMANDS,
    EXIT_DOMAIN,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_USAGE,
    _build_parser,
    _plain,
    _UsageError,
    main,
)

DATA = Path(__file__).parent / "data"
# Child interpreters import this tree's sources, never an installed copy.
CHILD_ENV = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}

CORE_KEYS = {"command", "n", "generators", "ebits", "logical", "ancillas", "conjectured"}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--json")
    assert code == EXIT_OK, err
    return json.loads(out)


def test_ebits_command(capsys):
    code, out, _ = run(capsys, "ebits", str(DATA / "singlequbit.qcheck"))
    assert code == EXIT_OK
    assert out.strip() == "ebits: 1"


def test_ebits_rejects_wrong_header(capsys):
    code, out, err = run(capsys, "ebits", str(DATA / "conv5x5.conv"))
    assert code == EXIT_PARSE
    assert out == ""  # no partial output
    assert "expected header 'qcheck'" in err
    assert "'conv'" in err


def test_params_command(capsys):
    code, out, _ = run(capsys, "params", str(DATA / "fivequbit.qcheck"))
    assert code == EXIT_OK
    assert "parameters: [[5, 1; 0]]" in out
    assert "ancillas: 4" in out


def test_negative_logical_count_is_an_internal_error(capsys, monkeypatch):
    # g generators with c ebits hold an isotropic subspace of dimension
    # g - c <= n, so k = n - g + c < 0 can only come from a wrong count.
    monkeypatch.setattr(symplectic, "ebit_count", lambda h: 0)
    code, out, err = run(capsys, "params", str(DATA / "singlequbit.qcheck"))
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == "error: logical qubit count is negative (-1)\n"


def test_sgsop_command(capsys):
    code, out, _ = run(capsys, "sgsop", str(DATA / "singlequbit.qcheck"))
    assert code == EXIT_OK
    assert "pairs: (0,1)" in out
    assert "transform:" in out
    assert "transformed:" in out


def test_sgsop_json_fields(capsys):
    obj = run_json(capsys, "sgsop", str(DATA / "singlequbit.qcheck"))
    assert obj["pairs"] == [[0, 1]]
    assert obj["isotropic"] == []
    assert obj["transform"] == ["10", "01"]
    assert obj["transformed"] == ["1|0", "0|1"]


def test_css_command_hamming_import(capsys):
    f = str(DATA / "hamming74.gf2")
    obj = run_json(capsys, "css", f, f, "--d1", "3", "--d2", "3")
    assert obj["ebits"] == 0
    assert obj["logical"] == 1
    assert obj["n"] == 7
    assert obj["distance"] == 3
    assert obj["conjectured"] is False
    code, out, _ = run(capsys, "css", f, f, "--d1", "3", "--d2", "3")
    assert code == EXIT_OK
    assert "parameters: [[7, 1, 3; 0]]" in out


def test_css_parity_checks_of_different_lengths_are_a_domain_error(capsys, tmp_path):
    short, long = tmp_path / "short.gf2", tmp_path / "long.gf2"
    short.write_text("gf2 1 3\n111\n")
    long.write_text("gf2 1 4\n1111\n")
    code, out, err = run(capsys, "css", str(short), str(long))
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == "error: parity checks have different lengths: 3 vs 4\n"


def test_css_distance_flags_must_pair(capsys):
    f = str(DATA / "hamming74.gf2")
    code, _, err = run(capsys, "css", f, f, "--d1", "3")
    assert code == EXIT_USAGE
    assert "--d1 and --d2" in err


def test_gf4_command(capsys):
    code, out, _ = run(capsys, "gf4", str(DATA / "example.gf4"))
    assert code == EXIT_OK
    assert "ebits: 2" in out
    assert "parameters: [[4, 2; 2]]" in out


def test_gf4_expand_feeds_ebits(capsys, tmp_path):
    code, out, _ = run(capsys, "gf4-expand", str(DATA / "example.gf4"))
    assert code == EXIT_OK
    assert out.startswith("qcheck 4 4")
    expanded = tmp_path / "expanded.qcheck"
    expanded.write_text(out)
    code, out2, _ = run(capsys, "ebits", str(expanded))
    assert code == EXIT_OK
    assert out2.strip() == "ebits: 2"


def _main_stdout(*argv):
    """Run the CLI in process; hypothesis cannot share capsys across examples."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == EXIT_OK, argv
    return out.getvalue()


@st.composite
def _gf4_texts(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(1, 6))
    row = st.text("01wv", min_size=cols, max_size=cols)
    lines = draw(st.lists(row, min_size=rows, max_size=rows))
    return "\n".join([f"gf4 {rows} {cols}", *lines]) + "\n"


@settings(derandomize=True, max_examples=60)
@given(_gf4_texts())
@example("gf4 0 3\n")
@example("gf4 3 2\nw1\nvw\n11\n")  # dependent rows
def test_gf4_import_equals_count_of_its_expansion_property(text):
    with tempfile.TemporaryDirectory() as tmp:
        source, expanded = Path(tmp) / "h.gf4", Path(tmp) / "h.qcheck"
        source.write_text(text)
        quaternary = json.loads(_main_stdout("gf4", "--json", str(source)))
        expanded.write_text(_main_stdout("gf4-expand", str(source)))
        binary = json.loads(_main_stdout("ebits", "--json", str(expanded)))
    assert quaternary["ebits"] == binary["ebits"]


def test_qudit_command(capsys):
    code, out, _ = run(capsys, "qudit", str(DATA / "pair3.qcheckd"))
    assert code == EXIT_OK
    assert out.strip() == "edits: 1"
    obj = run_json(capsys, "qudit", str(DATA / "pair3.qcheckd"))
    assert obj["ebits"] == 1
    assert obj["modulus"] == 3


def test_qudit_without_generators_needs_no_edits(capsys, tmp_path):
    path = tmp_path / "empty.qcheckd"
    path.write_text("qcheckd 3 0 2\n")
    code, out, _ = run(capsys, "qudit", str(path))
    assert (code, out) == (EXIT_OK, "edits: 0\n")
    obj = run_json(capsys, "qudit", str(path))
    assert (obj["n"], obj["generators"], obj["ebits"]) == (2, 0, 0)


def test_qudit_composite_modulus_is_domain_error(capsys, tmp_path):
    bad = tmp_path / "bad.qcheckd"
    bad.write_text("qcheckd 4 1 1\n1 | 1\n")
    code, out, err = run(capsys, "qudit", str(bad))
    assert code == EXIT_DOMAIN
    assert "not prime" in err


def test_qudit_large_modulus_counts_exactly(capsys, tmp_path):
    # (d-1)^2 overflows int64 for d = 2^61 - 1; the pair still needs one edit
    data = tmp_path / "m61.qcheckd"
    data.write_text("qcheckd 2305843009213693951 2 1\n-1 | 0\n0 | -1\n")
    code, out, _ = run(capsys, "qudit", str(data))
    assert code == EXIT_OK
    assert out.strip() == "edits: 1"


def test_qudit_modulus_beyond_int64_counts_exactly(capsys, tmp_path):
    data = tmp_path / "m64.qcheckd"
    data.write_text("qcheckd 18446744073709551557 1 1\n1 | 0\n")  # 2^64 - 59, a prime
    assert run(capsys, "qudit", str(data)) == (EXIT_OK, "edits: 0\n", "")


def test_qudit_modulus_cap_is_domain_error(capsys, tmp_path):
    data = tmp_path / "psi13.qcheckd"
    data.write_text("qcheckd 3317044064679887385961981 1 1\n1 | 0\n")
    code, out, err = run(capsys, "qudit", str(data))
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == (
        "error: modulus 3317044064679887385961981 is not below the cap of "
        "3317044064679887385961981, from which on the primality test is not a proof\n"
    )


def test_cv_command_with_tolerance(capsys):
    code, out, _ = run(capsys, "cv", str(DATA / "pair.cvcheck"))
    assert code == EXIT_OK
    assert out.strip() == "entangled modes: 1"
    obj = run_json(capsys, "cv", str(DATA / "pair.cvcheck"), "--tol", "1e-6")
    assert obj["ebits"] == 1
    assert obj["tolerance"] == 1e-6


def test_conv_command_prints_conjectured_count(capsys):
    code, out, _ = run(capsys, "conv", str(DATA / "conv5x5.conv"))
    assert code == EXIT_OK
    assert out.strip() == "ebits per frame: 2 (conjectured)"
    obj = run_json(capsys, "conv", str(DATA / "conv5x5.conv"))
    assert obj["conjectured"] is True
    assert obj["ebits"] == 2


def test_conv_odd_shifted_rank_is_a_domain_error(capsys, tmp_path):
    path = tmp_path / "odd.conv"
    path.write_text("conv 1 1\n1 | D\n")
    code, out, err = run(capsys, "conv", str(path))
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == (
        "error: shifted product matrix has odd rank 1, so the conjectured "
        "count rank/2 is not a whole number of ebits per frame\n"
    )


def test_conv4_command(capsys):
    code, out, _ = run(capsys, "conv4", str(DATA / "hd.conv4"))
    assert code == EXIT_OK
    assert out.strip() == "ebits per frame: 1 (conjectured)"


def test_conv_css_command(capsys):
    code, out, _ = run(
        capsys, "conv-css", str(DATA / "h1mat.conv"), str(DATA / "h2mat.conv")
    )
    assert code == EXIT_OK
    assert out.strip() == "ebits per frame: 1 (conjectured)"
    obj = run_json(capsys, "conv-css", str(DATA / "h1mat.conv"), str(DATA / "h2mat.conv"))
    assert obj["conjectured"] is True


def test_conv_css_rejects_pair_form(capsys):
    code, _, err = run(
        capsys, "conv-css", str(DATA / "conv5x5.conv"), str(DATA / "h2mat.conv")
    )
    assert code == EXIT_PARSE
    assert "must not contain '|'" in err


def test_verify_file(capsys):
    obj = run_json(capsys, "verify", str(DATA / "fivequbit.qcheck"))
    assert obj["agreement"] is True
    assert obj["formula"] == obj["procedure"] == obj["enumeration"] == 0


def test_verify_random_sweep(capsys):
    code, out, _ = run(
        capsys, "verify", "--random", "40", "--max-n", "6", "--seed", "7"
    )
    assert code == EXIT_OK
    assert "cases: 40" in out
    assert "seed: 7" in out
    assert "failures: 0" in out
    assert "agreement: yes" in out


@pytest.mark.parametrize("flags", [(), ("--json",)])
def test_verify_random_sweep_reports_a_disagreeing_case(capsys, monkeypatch, flags):
    honest = verify.verify_code
    reports = []

    def disagree_first(h):
        report = honest(h)
        reports.append(report._replace(agreement=False) if not reports else report)
        return reports[-1]

    monkeypatch.setattr(verify, "verify_code", disagree_first)
    code, out, err = run(capsys, "verify", "--random", "3", "--max-n", "2", "--seed", "7", *flags)
    assert (code, err, len(reports)) == (EXIT_OK, "", 3)
    case = f"case 0 ({reports[0].subject}): {reports[0].details}"
    if flags:
        obj = json.loads(out)
        assert (obj["failures"], obj["agreement"]) == ([case], False)
    else:
        assert out.splitlines() == ["cases: 3", "seed: 7", "failures: 1", case, "agreement: NO"]


def test_verify_random_max_n_beyond_the_sweep_limit_is_a_domain_error(capsys):
    code, out, err = run(capsys, "verify", "--random", "1", "--max-n", "100000000", "--seed", "3")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == "error: random sweeps limited to 2048 qubits, got max_n 100000000\n"


def test_verify_needs_file_or_random(capsys):
    code, _, err = run(capsys, "verify")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "verify", str(DATA / "fivequbit.qcheck"), "--random", "5")
    assert code == EXIT_USAGE
    code, _, err = run(capsys, "verify", "--random", "5")
    assert code == EXIT_USAGE
    assert "--max-n" in err


def test_dependent_rows_count_the_group_they_generate(capsys):
    # the third row is the sum of the first two
    f = str(DATA / "dependent.qcheck")
    obj = run_json(capsys, "ebits", f)
    assert (obj["generators"], obj["ebits"]) == (3, 0)
    obj = run_json(capsys, "params", f)
    assert (obj["generators"], obj["ebits"], obj["logical"]) == (2, 0, 0)
    assert run_json(capsys, "verify", f)["agreement"] is True


def test_quiet_prints_bare_value(capsys):
    code, out, _ = run(capsys, "ebits", str(DATA / "singlequbit.qcheck"), "--quiet")
    assert code == EXIT_OK
    assert out.strip() == "1"
    code, out, _ = run(capsys, "params", str(DATA / "fivequbit.qcheck"), "--quiet")
    assert out.strip() == "[[5, 1; 0]]"


def test_missing_file_is_parse_error(capsys):
    code, _, err = run(capsys, "ebits", "no-such-file.qcheck")
    assert code == EXIT_PARSE


@pytest.mark.parametrize(
    "command,wrong_file,expected_header",
    [
        ("ebits", "hamming74.gf2", "qcheck"),
        ("params", "example.gf4", "qcheck"),
        ("sgsop", "conv5x5.conv", "qcheck"),
        ("gf4", "singlequbit.qcheck", "gf4"),
        ("gf4-expand", "hamming74.gf2", "gf4"),
        ("qudit", "pair.cvcheck", "qcheckd"),
        ("cv", "pair3.qcheckd", "cvcheck"),
        ("conv", "fivequbit.qcheck", "conv"),
        ("conv4", "hamming74.gf2", "conv4"),
    ],
)
def test_wrong_header_exits_two_without_output(capsys, command, wrong_file, expected_header):
    code, out, err = run(capsys, command, str(DATA / wrong_file))
    assert code == EXIT_PARSE
    assert out == ""
    assert f"expected header '{expected_header}'" in err


def test_unknown_command_is_usage_error(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == EXIT_USAGE


def test_missing_argument_is_usage_error(capsys):
    code, _, err = run(capsys, "ebits")
    assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv,fields",
    [
        (("ebits", "singlequbit.qcheck"), {"ebits": "ebits: {}"}),
        (
            ("params", "fivequbit.qcheck"),
            {
                "n": "n: {}",
                "generators": "generators: {}",
                "ebits": "ebits: {}",
                "logical": "logical: {}",
                "ancillas": "ancillas: {}",
            },
        ),
        (("conv", "conv5x5.conv"), {"ebits": "ebits per frame: {} (conjectured)"}),
        (("qudit", "pair3.qcheckd"), {"ebits": "edits: {}"}),
        (("cv", "pair.cvcheck"), {"ebits": "entangled modes: {}"}),
    ],
)
def test_json_round_trips_against_text(capsys, argv, fields):
    argv = (argv[0], str(DATA / argv[1]), *argv[2:])
    obj = run_json(capsys, *argv)
    assert CORE_KEYS <= obj.keys()
    code, out, _ = run(capsys, *argv)
    assert code == EXIT_OK
    for key, template in fields.items():
        assert template.format(obj[key]) in out


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "ebitcalc", "conv", str(DATA / "conv5x5.conv")],
        capture_output=True,
        env=CHILD_ENV,
        text=True,
    )
    assert result.returncode == 0
    assert "ebits per frame: 2 (conjectured)" in result.stdout


def test_help_exits_zero():
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0


def test_non_ascii_input_is_parse_error(capsys, tmp_path):
    f = tmp_path / "accent.qcheck"
    for newline in ("\n", "\r\n"):
        f.write_bytes(f"qcheck 1 1{newline}1|0  # café{newline}".encode("utf-8"))
        code, out, err = run(capsys, "ebits", str(f))
        assert code == EXIT_PARSE
        assert out == ""
        assert "line 2: non-ASCII byte 0xc3" in err


def test_bare_carriage_returns_end_lines_before_a_non_ascii_byte(capsys, tmp_path):
    # the parsers end a line at \r too, so the byte is on line 3 for both
    f = tmp_path / "cr.gf2"
    f.write_bytes(b"gf2 2 3\r101\r01\xff\r")
    code, out, err = run(capsys, "css", str(f), str(f))
    assert (code, out) == (EXIT_PARSE, "")
    assert err == f"error: line 3: non-ASCII byte 0xff in {f}\n"


def test_form_feed_inside_a_row_ends_no_line(capsys, tmp_path):
    f = tmp_path / "ff.gf2"
    f.write_bytes(b"gf2 2 3\n101\n0\f11\n")
    code, out, err = run(capsys, "css", str(f), str(f))
    assert (code, out) == (EXIT_PARSE, "")
    assert err == "error: line 3: expected 3 binary digits, got 4\n"


def test_negative_header_dimension_is_parse_error(capsys, tmp_path):
    f = tmp_path / "negative.gf2"
    f.write_text("gf2 -1 3\n")
    code, out, err = run(capsys, "css", str(f), str(f))
    assert code == EXIT_PARSE
    assert out == ""
    assert "negative dimension -1 in 'gf2' header" in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("verify", "--random", "-5", "--max-n", "3"), "must be positive"),
        (("verify", "--random", "2", "--max-n", "0"), "must be positive"),
        (("cv", str(DATA / "pair.cvcheck"), "--tol", "nan"), "--tol must be a nonnegative"),
        (("cv", str(DATA / "pair.cvcheck"), "--tol", "-1"), "--tol must be a nonnegative"),
        (
            ("css", *[str(DATA / "hamming74.gf2")] * 2, "--d1", "-3", "--d2", "3"),
            "--d1 and --d2 must be positive",
        ),
        (
            ("css", *[str(DATA / "hamming74.gf2")] * 2, "--d1", "3", "--d2", "0"),
            "--d1 and --d2 must be positive",
        ),
        (("cv", str(DATA / "pair.cvcheck"), "--tol", "1"), "--tol must be a nonnegative"),
        (("cv", str(DATA / "pair.cvcheck"), "--tol", "inf"), "--tol must be a nonnegative"),
        # flags are checked before either file is read
        (("css", "no1.gf2", "no2.gf2", "--d1", "3"), "--d1 and --d2 must be given together"),
        (("css", "no1.gf2", "no2.gf2", "--d1", "0", "--d2", "3"), "--d1 and --d2 must be positive"),
    ],
)
def test_bad_option_values_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert out == ""
    assert err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize(
    "command, header, out",
    [
        ("ebits", "qcheck 1 0", "ebits: 0\n"),
        ("qudit", "qcheckd 3 1 0", "edits: 0\n"),
        ("cv", "cvcheck 1 0", "entangled modes: 0\n"),
        ("conv", "conv 1 0", "ebits per frame: 0 (conjectured)\n"),
    ],
    ids=["qcheck", "qcheckd", "cvcheck", "conv"],
)
def test_zero_qubit_generator_row_has_empty_sides(capsys, tmp_path, command, header, out):
    # every pair format reads a blank side of "|" as zero entries, and a
    # zero row, like any dependent row, counts as the group it generates
    path = tmp_path / "zero.txt"
    path.write_text(f"{header}\n|\n")
    assert run(capsys, command, str(path))[:2] == (EXIT_OK, out)


@pytest.mark.parametrize(
    "command, header", [("conv-css", "conv 1 0"), ("conv4", "conv4 1 0")]
)
def test_zero_column_plain_conv_matrix_has_one_blank_row(
    capsys, tmp_path, command, header
):
    # as in gf2 and gf4 files, a 0-column matrix row is a blank line,
    # whichever line ending the file uses
    path = tmp_path / "zero.txt"
    paths = [str(path)] * (2 if command == "conv-css" else 1)
    for newline in ("\n", "\r\n"):
        path.write_bytes(f"{header}{newline}{newline}".encode())
        assert run(capsys, command, *paths)[:2] == (
            EXIT_OK,
            "ebits per frame: 0 (conjectured)\n",
        )
    path.write_text(f"{header}\n")
    code, out, err = run(capsys, command, *paths)
    assert (code, out) == (EXIT_PARSE, "")
    assert "expected 1 matrix rows, found 0" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (("css", *[str(DATA / "hamming74.gf2")] * 2, "--reduce"), "unrecognized"),
        (("gf4", str(DATA / "example.gf4"), "--reduce"), "unrecognized"),
        (("qudit", str(DATA / "pair3.qcheckd"), "--reduce"), "unrecognized"),
        (("cv", str(DATA / "pair.cvcheck"), "--reduce"), "unrecognized"),
        (("conv", str(DATA / "conv5x5.conv"), "--reduce"), "unrecognized"),
        (("conv4", str(DATA / "hd.conv4"), "--reduce"), "unrecognized"),
        (
            ("conv-css", str(DATA / "h1mat.conv"), str(DATA / "h2mat.conv"), "--reduce"),
            "unrecognized",
        ),
        (("verify", "--random", "2", "--max-n", "3", "--reduce"), "--reduce"),
        (("verify", str(DATA / "fivequbit.qcheck"), "--max-n", "3"), "--max-n"),
        (("verify", str(DATA / "fivequbit.qcheck"), "--seed", "3"), "--seed"),
    ],
    ids=lambda v: " ".join(Path(a).name for a in v) if isinstance(v, tuple) else None,
)
def test_flags_a_command_ignores_are_usage_errors(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_USAGE, "")
    assert err.startswith("error: ")
    assert message in err


@pytest.mark.parametrize("flags", [("--json", "--quiet"), ("--quiet", "--json")])
def test_json_with_quiet_is_a_usage_error(capsys, flags):
    # like every flag a command cannot act on, and before the file is read
    code, out, err = run(capsys, "ebits", "no-such-file.qcheck", *flags)
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: --json and --quiet cannot be given together\n"


def test_reduce_is_an_unrecognized_argument(capsys):
    for argv in (
        ("ebits", str(DATA / "dependent.qcheck")),
        ("params", str(DATA / "dependent.qcheck")),
        ("sgsop", str(DATA / "dependent.qcheck")),
        ("verify", str(DATA / "dependent.qcheck")),
        ("gf4-expand", str(DATA / "example.gf4")),
    ):
        code, out, err = run(capsys, *argv, "--reduce")
        assert (code, out, err) == (EXIT_USAGE, "", "error: unrecognized arguments: --reduce\n")


def test_option_defaults_come_from_the_library(capsys):
    from ebitcalc.cv import DEFAULT_TOLERANCE
    from ebitcalc.verify import DEFAULT_SEED

    obj = run_json(capsys, "cv", str(DATA / "pair.cvcheck"))
    assert obj["tolerance"] == DEFAULT_TOLERANCE
    obj = run_json(capsys, "verify", "--random", "2", "--max-n", "3")
    assert obj["seed"] == DEFAULT_SEED


def test_binary_commands_do_not_import_numpy(tmp_path):
    # Only cv needs numpy; qudit counts on Python ints, and verify
    # enumerates sets of up to 20 generators, and skips larger ones, without
    # it.  No command needs dataclasses, typing or pathlib either.  Without
    # -S, site start-up may import typing and pathlib itself, so those two
    # are checked under -S.
    empty = tmp_path / "empty.qcheckd"
    empty.write_text("qcheckd 5 0 3\n")
    commands = [
        [cmd, str(DATA / "fivequbit.qcheck")]
        for cmd in ("ebits", "params", "sgsop", "verify")
    ] + [
        ["verify", str(DATA / "paired22.qcheck")],
        ["verify", "--random", "3", "--max-n", "4"],
        ["gf4", str(DATA / "example.gf4")],
        ["gf4-expand", str(DATA / "example.gf4")],
        ["css", str(DATA / "hamming74.gf2"), str(DATA / "hamming74.gf2")],
        ["conv", str(DATA / "conv5x5.conv")],
        ["conv4", str(DATA / "hd.conv4")],
        ["conv-css", str(DATA / "h1mat.conv"), str(DATA / "h2mat.conv")],
        ["qudit", str(DATA / "pair3.qcheckd")],
        ["qudit", str(empty)],
    ]
    script = (
        "import sys\n"
        "from ebitcalc.cli import main\n"
        f"codes = [main([*argv, '--json']) for argv in {commands!r}]\n"
        "print(codes, [m for m in sys.argv[1:] if m in sys.modules])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, "numpy", "dataclasses"],
        capture_output=True,
        env=CHILD_ENV,
        text=True,
        check=True,
    )
    assert result.stdout.splitlines()[-1] == f"{[0] * len(commands)} []"
    result = subprocess.run(
        [sys.executable, "-S", "-c", script, "numpy", "dataclasses", "typing", "pathlib"],
        capture_output=True,
        text=True,
        check=True,
        env=CHILD_ENV,
    )
    assert result.stdout.splitlines()[-1] == f"{[0] * len(commands)} []"


def _modules_loaded(argvs, *modules):
    """Exit codes of ``main`` on each argv in one child interpreter, then
    which of ``modules`` it loaded, as the child prints them."""
    script = (
        "import sys\n"
        "from ebitcalc.cli import main\n"
        "def code(argv):\n"
        "    try:\n"
        "        return main(argv)\n"
        "    except SystemExit as exit:\n"
        "        return exit.code\n"
        f"codes = [code(argv) for argv in {argvs!r}]\n"
        "print(codes, [m for m in sys.argv[1:] if m in sys.modules])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, *modules],
        capture_output=True,
        env=CHILD_ENV,
        text=True,
        check=True,
    )
    return result.stdout.splitlines()[-1]


def test_plain_command_lines_load_neither_argparse_nor_gf2():
    # The command table reads a plain command line, so argparse, with the
    # gettext and locale it loads, runs only for help and usage errors.
    # Only the binary readers load gf2, so the other input kinds never do.
    names = ("fivequbit.qcheck", "hamming74.gf2", "example.gf4")
    qcheck, gf2, gf4 = (str(DATA / name) for name in names)
    non_binary = [
        ["qudit", str(DATA / "pair3.qcheckd")],
        ["cv", str(DATA / "pair.cvcheck"), "--tol", "1e-9"],
        ["conv", str(DATA / "conv5x5.conv")],
        ["conv4", str(DATA / "hd.conv4")],
        ["conv-css", str(DATA / "h1mat.conv"), str(DATA / "h2mat.conv")],
    ]
    plain = [
        ["ebits", qcheck],
        ["params", qcheck],
        ["sgsop", qcheck],
        ["css", gf2, "--d1", "3", gf2, "--d2", "3"],
        ["gf4", gf4],
        ["gf4-expand", gf4],
        *non_binary,
        ["verify", qcheck],
        ["verify", "--random", "3", "--max-n", "4", "--seed", "5"],
    ]
    assert {argv[0] for argv in plain} == set(_COMMANDS)
    plain = [[*argv, "--json"] for argv in plain]
    assert _modules_loaded(plain, "argparse", "gettext", "locale") == f"{[0] * len(plain)} []"
    non_binary = [[*argv, "--json"] for argv in non_binary]
    assert _modules_loaded(non_binary, "ebitcalc.gf2") == f"{[0] * len(non_binary)} []"
    # help and an abbreviated flag are argparse's to read
    for argv in (["ebits", "--help"], ["ebits", "--js", qcheck]):
        assert _modules_loaded([argv], "argparse") == "[0] ['argparse']"


COMMAND_OPTIONS = sorted({names[0] for row in _COMMANDS.values() for names, _ in row.options})
OPTION_VALUES = ["3", "12", "1e-9", "0", "-5", "nan", "1_0", "", "x"]
FILE_NAMES = ["a.txt", "b.txt", "c.txt"]
_argv_tokens = st.one_of(
    st.sampled_from([*_COMMANDS, "--json", "--quiet", "-h", "--help", "--", "-", "--js"]),
    st.sampled_from(COMMAND_OPTIONS),
    st.builds("{}={}".format, st.sampled_from(COMMAND_OPTIONS), st.sampled_from(OPTION_VALUES)),
    st.sampled_from(OPTION_VALUES),
    st.sampled_from(FILE_NAMES),
)


@st.composite
def _command_lines(draw):
    """Mostly a command name, then file names, flags and options with
    values in any order: half the lines have the command's number of files
    and only its own options, half take any token anywhere."""
    head = draw(_argv_tokens if draw(st.integers(0, 4)) == 0 else st.sampled_from(list(_COMMANDS)))
    row = _COMMANDS.get(head)
    own = [names[0] for names, _ in row.options] if row else []
    values = st.sampled_from(OPTION_VALUES)
    parts = [st.sampled_from(["--json", "--quiet"]).map(lambda flag: [flag])]
    parts += [st.tuples(st.sampled_from(own), values)] if own else []
    files = len(row.files) if row else 1
    if draw(st.booleans()):
        parts += [_argv_tokens.map(lambda token: [token])]
        parts += [st.tuples(st.sampled_from(COMMAND_OPTIONS), values)]
        files = draw(st.integers(0, 3))
    names = [[draw(st.sampled_from(FILE_NAMES))] for _ in range(files)]
    order = draw(st.permutations([*names, *draw(st.lists(st.one_of(parts), max_size=4))]))
    return [head, *(token for part in order for token in part)]


@settings(derandomize=True, max_examples=500)
@given(_command_lines())
@example(["css", "a.txt", "--d1", "1_0", "b.txt", "--d2", "3", "--json"])
@example(["cv", "a.txt", "--tol", "nan", "--quiet"])
@example(["verify", "--random", "2", "--max-n", "3", "--random", "4"])
@example(["verify", "--seed", "3", "a.txt", "--json", "--json"])
@example(["verify", "--seed", "-3", "a.txt"])
@example(["conv", "--json", "--", "a.txt"])
@example(["ebits", ""])
@example([])
def test_plain_command_lines_parse_as_argparse_does_property(argv):
    # Where argparse fails or prints help, the plain path must return
    # nothing, so every help and error text still comes from argparse.
    args = _plain(argv)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            namespace = _build_parser().parse_args(argv)
    except (_UsageError, SystemExit):
        assert args is None
        return
    if args is not None:
        # repr, as nan from --tol nan equals no float
        assert repr(sorted(vars(args).items())) == repr(sorted(vars(namespace).items()))


def test_text_output_loads_neither_json_nor_a_codec():
    # Only --json needs json, and input files are read as bytes and
    # decoded by bytes.decode, which loads no encodings submodule.  Under
    # -S, site start-up loads neither.
    commands = [
        ["ebits", str(DATA / "fivequbit.qcheck")],
        ["verify", str(DATA / "fivequbit.qcheck")],
        ["css", str(DATA / "hamming74.gf2"), str(DATA / "hamming74.gf2")],
        ["gf4", str(DATA / "example.gf4")],
        ["qudit", str(DATA / "pair3.qcheckd")],
        ["conv", str(DATA / "conv5x5.conv")],
    ]
    script = (
        "import sys\n"
        "from ebitcalc.cli import main\n"
        f"codes = [main(argv) for argv in {commands!r}]\n"
        "print(codes, [m for m in sys.argv[1:] if m in sys.modules])\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", script, "json", "encodings.ascii"],
        capture_output=True,
        text=True,
        check=True,
        env=CHILD_ENV,
    )
    assert result.stdout.splitlines()[-1] == f"{[0] * len(commands)} []"


def test_verify_does_not_import_laurent():
    # The evaluation oracle only annotates its Laurent argument, so verify
    # never loads the delay-polynomial module.
    commands = [
        ["verify", str(DATA / "fivequbit.qcheck")],
        ["verify", "--random", "3", "--max-n", "4"],
    ]
    script = (
        "import sys\n"
        "from ebitcalc.cli import main\n"
        f"codes = [main([*argv, '--json']) for argv in {commands!r}]\n"
        "print(codes, 'ebitcalc.laurent' in sys.modules)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True, env=CHILD_ENV
    )
    assert result.stdout.splitlines()[-1] == f"{[0] * len(commands)} False"


def test_verify_file_check_loads_neither_gf4_nor_fractions():
    # Only the oracles that tests call use gf4 and fractions (which loads
    # decimal), so checking a file compiles and imports neither.  Nor does
    # it build the evaluation oracle's GF(2^16) tables or load array.
    script = (
        "import sys\n"
        "from ebitcalc import verify\n"
        "from ebitcalc.cli import main\n"
        f"code = main(['verify', '--json', {str(DATA / 'fivequbit.qcheck')!r}])\n"
        "tables = verify._field_tables.cache_info().currsize\n"
        "print(code, tables, [m for m in sys.argv[1:] if m in sys.modules])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script, "ebitcalc.gf4", "fractions", "decimal", "array"],
        capture_output=True,
        env=CHILD_ENV,
        text=True,
        check=True,
    )
    assert result.stdout.splitlines()[-1] == "0 0 []"


HEADER_ONLY_COLUMNS = 10**7


@pytest.mark.parametrize(
    "argv",
    [
        ("ebits", "empty.qcheck"),
        ("params", "empty.qcheck"),
        ("verify", "empty.qcheck"),
        ("css", "empty.gf2", "empty.gf2"),
        ("gf4", "empty.gf4"),
        ("conv", "empty.conv"),
        ("conv4", "empty.conv4"),
        ("conv-css", "empty.conv", "empty.conv"),
    ],
)
def test_header_only_input_costs_nothing_per_column(tmp_path, argv):
    # Each file is a header with no rows over 10^7 columns.  A warm-up run
    # on one column loads every module first, so the traced peak counts
    # only the per-column work; the timeout keeps a regression from hanging.
    runs = []
    for columns in (1, HEADER_ONLY_COLUMNS):
        folder = tmp_path / str(columns)
        folder.mkdir()
        for kind in ("qcheck", "gf2", "gf4", "conv", "conv4"):
            (folder / f"empty.{kind}").write_text(f"{kind} 0 {columns}\n")
        runs.append([argv[0], *(str(folder / name) for name in argv[1:])])
    script = (
        "import tracemalloc\n"
        "from ebitcalc.cli import main\n"
        f"warm = main({runs[0]!r})\n"
        "tracemalloc.start()\n"
        f"code = main({runs[1]!r})\n"
        "print(warm, code, tracemalloc.get_traced_memory()[1])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env=CHILD_ENV,
        text=True,
        check=True,
        timeout=60,
    )
    warm, code, peak = map(int, result.stdout.splitlines()[-1].split())
    assert (warm, code) == (EXIT_OK, EXIT_OK)
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "kind, body, term",
    [("conv", "1 | D^65", "D^65"), ("conv4", "w*D^65", "w*D^65"), ("conv-css", "D^65", "D^65")],
)
def test_exponent_past_the_window_names_its_line_and_term(capsys, tmp_path, kind, body, term):
    header = "conv" if kind == "conv-css" else kind
    path = tmp_path / f"far.{header}"
    path.write_text(f"{header} 1 1\n{body}\n")
    code, out, err = run(capsys, kind, *[str(path)] * (2 if kind == "conv-css" else 1))
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == f"error: line 2: term '{term}' has an exponent outside [-64, 64]\n"


@pytest.mark.parametrize(
    "kind, body",
    [
        ("conv", "D^-4000000000+D^4000000000 | 0"),
        ("conv", "1+D^1000000000000 | 0"),
        ("conv4", "w*D^-4000000000+D^4000000000"),
        ("conv-css", "1+D^1000000000000"),
    ],
)
def test_far_exponent_is_rejected_before_it_is_stored(tmp_path, kind, body):
    # A polynomial is stored as a bit plane spanning its exponent range, so
    # an exponent far outside [-MAX_EXPONENT, MAX_EXPONENT] in a tiny file
    # must be rejected while parsing, not after a gigabyte-wide word is built.
    header = "conv" if kind == "conv-css" else kind
    path = tmp_path / f"far.{header}"
    path.write_text(f"{header} 1 1\n{body}\n")
    argv = [kind, *[str(path)] * (2 if kind == "conv-css" else 1)]
    script = (
        "import tracemalloc\n"
        "from ebitcalc.cli import main\n"
        "tracemalloc.start()\n"
        f"code = main({argv!r})\n"
        "print(code, tracemalloc.get_traced_memory()[1])\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        env=CHILD_ENV,
        text=True,
        check=True,
        timeout=60,
    )
    code, peak = map(int, result.stdout.splitlines()[-1].split())
    assert code == EXIT_DOMAIN
    assert "outside [-64, 64]" in result.stderr
    assert peak < 5_000_000


@pytest.mark.parametrize(
    "text, code, stream, expected",
    [
        # Finite entries whose products overflow float64.
        ("cvcheck 2 1\n1e308 | 1e308\n-1e308 | 1e308\n", EXIT_DOMAIN, 1, "overflow"),
        # A finite product near the float64 maximum, with omega01, omega12,
        # omega03 and omega23 equal, whose elimination doubles an entry.
        (
            "cvcheck 4 2\n0 0 | 1e154 0\n1e154 -1e154 | 0 0\n"
            "0 0 | 0 1e154\n1e154 1e154 | 0 0\n",
            EXIT_OK,
            0,
            "entangled modes: 2",
        ),
    ],
    ids=["product", "elimination"],
)
def test_cv_overflow_is_named_without_warnings(tmp_path, text, code, stream, expected):
    path = tmp_path / "big.cvcheck"
    path.write_text(text)
    result = subprocess.run(
        [sys.executable, "-m", "ebitcalc", "cv", str(path)],
        capture_output=True,
        env=CHILD_ENV,
        text=True,
        timeout=60,
    )
    assert result.returncode == code
    assert expected in (result.stdout, result.stderr)[stream]
    assert "Warning" not in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_cv_non_finite_entry_is_a_domain_error(capsys, tmp_path, entry):
    path = tmp_path / "bad.cvcheck"
    path.write_text(f"cvcheck 2 1\n{entry} | 0\n0 | 1\n")
    code, out, err = run(capsys, "cv", str(path))
    assert code == EXIT_DOMAIN == 3
    assert out == ""
    assert err == "error: check matrix entries must be finite\n"


# Every command with fixtures of its input kind.
FUZZ_COMMANDS = [
    ("ebits", "fivequbit.qcheck"),
    ("params", "dependent.qcheck"),
    ("sgsop", "singlequbit.qcheck"),
    ("verify", "fivequbit.qcheck"),
    ("css", "hamming74.gf2", "hamming74.gf2"),
    ("gf4", "example.gf4"),
    ("gf4-expand", "example.gf4"),
    ("qudit", "pair3.qcheckd"),
    ("cv", "pair.cvcheck"),
    ("conv", "conv5x5.conv"),
    ("conv4", "hd.conv4"),
    ("conv-css", "h1mat.conv", "h2mat.conv"),
]

# Bytes that the formats give a meaning to, so mutations reach past the
# first parse error more often than arbitrary bytes would.
FUZZ_BYTES = b"0123456789 \n|,.+-^#Dwve"


def _mutate(rng: random.Random, data: bytes) -> bytes:
    out = bytearray(data)
    for _ in range(rng.randint(1, 2)):
        at = rng.randrange(len(out) + 1)
        byte = rng.choice(FUZZ_BYTES) if rng.random() < 0.9 else rng.randrange(256)
        action = rng.randrange(3)
        if action == 0 and at < len(out):
            out[at] = byte
        elif action == 1:
            out.insert(at, byte)
        elif at < len(out):
            del out[at]
    return bytes(out)


@pytest.mark.parametrize("command", FUZZ_COMMANDS, ids=lambda c: c[0])
def test_mutated_fixtures_exit_with_a_documented_code(capsys, tmp_path, command):
    name, *fixtures = command
    rng = random.Random(name)
    for case in range(25):
        paths = [str(DATA / fixture) for fixture in fixtures]
        target = rng.randrange(len(paths))  # one file changes, the others parse
        path = tmp_path / f"{case}-{fixtures[target]}"
        path.write_bytes(_mutate(rng, (DATA / fixtures[target]).read_bytes()))
        paths[target] = str(path)
        code = main([name, *paths])
        capsys.readouterr()
        assert code in (EXIT_OK, EXIT_USAGE, EXIT_PARSE, EXIT_DOMAIN), (name, case)


def test_benchmark_tracer_sees_every_file_parse(capsys):
    # bench/tracing.py wraps formats.parse_* wherever a module binds it, so
    # a parser held anywhere else (a table built at import time, say)
    # would parse untraced and the per-layer run would miss it.
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for call, (name, *files) in enumerate(FUZZ_COMMANDS):
            tracer.span("cli.main", call, main, [name, *(str(DATA / f) for f in files)])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    for call, (name, *files) in enumerate(FUZZ_COMMANDS):
        spans = [s["name"] for s in tracer.to_records() if s["call"] == call]
        assert spans.count("formats.parse") == len(files), name
        if files[0].endswith(".qcheck"):
            assert "symplectic.check" in spans, name
