"""Tests for the text matrix formats."""

from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ebitcalc.errors import ParseError
from ebitcalc.formats import (
    format_qcheck,
    parse_conv_pair,
    parse_conv_plain,
    parse_cvcheck,
    parse_gf2,
    parse_gf4,
    parse_poly,
    parse_qcheck,
    parse_qcheckd,
)
from ebitcalc.gf2 import BinMatrix
from ebitcalc.laurent import LaurentPoly

DATA = Path(__file__).parent / "data"


def test_gf2_parse_with_comments_and_blanks():
    text = "# parity check\n\ngf2 2 3   # header\n101\n\n# middle\n010\n"
    m = parse_gf2(text)
    assert m.to_strings() == ["101", "010"]


def test_gf2_round_trip():
    # One line per matrix row after the header; with 0 columns each row
    # line is blank and still counts.
    texts = {
        "gf2 2 4\n0110\n1001\n": BinMatrix.from_strings(["0110", "1001"]),
        "gf2 2 0\n\n\n": BinMatrix.zeros(2, 0),
        "gf2 0 0\n": BinMatrix.zeros(0, 0),
    }
    for text, m in texts.items():
        assert parse_gf2(text) == m


def test_gf2_header_mismatch_names_expected():
    with pytest.raises(ParseError, match="expected header 'gf2', found 'qcheck'"):
        parse_gf2("qcheck 1 2\n10|01\n")


def test_gf2_bad_rows():
    with pytest.raises(ParseError, match="expected 3 binary digits"):
        parse_gf2("gf2 1 3\n10\n")
    with pytest.raises(ParseError, match="invalid binary digit"):
        parse_gf2("gf2 1 3\n1x0\n")
    with pytest.raises(ParseError, match="expected 2 matrix rows"):
        parse_gf2("gf2 2 3\n101\n")
    # 0-column rows are blank lines, but each one must still be there
    with pytest.raises(ParseError, match="expected 3 matrix rows, found 1"):
        parse_gf2("gf2 3 0\n\n")
    with pytest.raises(ParseError, match="unexpected content"):
        parse_gf2("gf2 1 3\n101\n010\n")
    with pytest.raises(ParseError, match="empty file"):
        parse_gf2("# nothing here\n")
    with pytest.raises(ParseError, match="integer field"):
        parse_gf2("gf2 one 3\n101\n")


def test_qcheck_parse_and_round_trip():
    hz, hx = parse_qcheck((DATA / "fivequbit.qcheck").read_text())
    assert hz.rows == 4 and hz.cols == 5
    assert parse_qcheck(format_qcheck(hz, hx)) == (hz, hx)


@st.composite
def check_pairs(draw):
    generators = draw(st.integers(0, 8))
    n = draw(st.integers(0, 8))
    words = st.lists(st.integers(0, (1 << n) - 1), min_size=generators, max_size=generators)
    return BinMatrix(generators, n, draw(words)), BinMatrix(generators, n, draw(words))


@settings(derandomize=True, max_examples=150)
@given(check_pairs())
@example((BinMatrix.zeros(0, 3), BinMatrix.zeros(0, 3)))
@example((BinMatrix.zeros(3, 0), BinMatrix.zeros(3, 0)))
@example((BinMatrix(1, 1, [1]), BinMatrix(1, 1, [0])))
def test_qcheck_round_trip_property(pair):
    z, x = pair
    assert parse_qcheck(format_qcheck(z, x)) == (z, x)


def test_binary_rows_report_first_invalid_digit():
    with pytest.raises(ParseError, match=r"line 2: invalid binary digit 'x'"):
        parse_gf2("gf2 1 4\n1x0y\n")
    with pytest.raises(ParseError, match=r"line 2: invalid binary digit ' '"):
        parse_qcheck("qcheck 1 3\n1 0|001\n")
    with pytest.raises(ParseError, match=r"line 2: invalid binary digit '_'"):
        parse_gf2("gf2 1 3\n1_0\n")


@pytest.mark.parametrize(
    "parse,text",
    [
        (parse_gf2, "gf2 -1 3\n"),
        (parse_gf2, "gf2 1 -3\n101\n"),
        (parse_qcheck, "qcheck -2 1\n"),
        (parse_gf4, "gf4 0 -1\n"),
        (parse_qcheckd, "qcheckd 3 1 -1\n1 | 0\n"),
    ],
)
def test_negative_header_dimension_rejected(parse, text):
    with pytest.raises(ParseError, match="line 1: negative dimension"):
        parse(text)


@pytest.mark.parametrize(
    "parse, text",
    [
        (parse_qcheck, "qcheck 1 2\n1001\n"),
        (parse_qcheckd, "qcheckd 3 1 1\n1 | 0 | 1\n"),
        (parse_cvcheck, "cvcheck 1 1\n1.0 0.0\n"),
        (parse_conv_pair, "conv 1 1\n1 | D | 0\n"),
    ],
    ids=["qcheck", "qcheckd", "cvcheck", "conv"],
)
def test_generator_row_requires_one_separator(parse, text):
    # all four pair formats split rows in one place and share its message
    message = "line 2: generator row needs exactly one '\\|' between the Z and X blocks$"
    with pytest.raises(ParseError, match=message):
        parse(text)


def test_gf4_parse():
    m = parse_gf4("gf4 2 4\n10w1\n01vw\n")
    assert str(m).split("\n") == ["10w1", "01vw"]
    with pytest.raises(ParseError, match="invalid GF\\(4\\) symbol"):
        parse_gf4("gf4 1 2\n1z\n")


def test_qcheckd_parse():
    hz, hx = parse_qcheckd((DATA / "pair3.qcheckd").read_text())
    assert hz.modulus == hx.modulus == 3
    assert hz.to_rows() == [[1, 0], [0, 0]]
    assert hx.to_rows() == [[0, 0], [1, 0]]
    hz, hx = parse_qcheckd("qcheckd +3 0 4\n")
    assert (hz.rows, hz.cols) == (hx.rows, hx.cols) == (0, 4)
    hz, hx = parse_qcheckd("qcheckd 3 1 2\n+1 -2 | 007 -0\n")
    assert (hz.to_rows(), hx.to_rows()) == ([[1, 1]], [[1, 0]])
    # non-ASCII whitespace still separates fields and residues
    hz, hx = parse_qcheckd("qcheckd\u00a03 1 2\n1\u20032 | 0\u00a01\n")
    assert (hz.to_rows(), hx.to_rows()) == ([[1, 2]], [[0, 1]])


@pytest.mark.parametrize(
    "text, message",
    [
        ("qcheckd 3 1 1\n1_0 | 0\n", "line 2: non-integer residue"),
        ("qcheckd 3 1 1\n1_0 2 | 0\n", "line 2: expected 1 residues, got 2"),
        ("qcheckd 3 1 1\n0 | \u0661\n", "line 2: non-integer residue"),  # Arabic-Indic one
        ("qcheckd 3 1 1\n0 | 0x1\n", "line 2: non-integer residue"),
        ("qcheckd 1_1 1 1\n1 | 0\n", "line 1: non-integer field"),
        ("qcheckd 3 1 \uff11\n1 | 0\n", "line 1: non-integer field"),  # fullwidth one
        ("conv 1 1\nD^1_0 | 0\n", "line 2: bad exponent in term 'D\\^1_0'"),
        ("conv 1 1\n0 | D^\u0661\n", "line 2: bad exponent in term"),
        ("cvcheck 2 1\n1_0 | 0\n0 | 1\n", "line 2: invalid real in the Z block"),
        ("cvcheck 1 1\n0 | \u0661\n", "line 2: invalid real in the X block"),
    ],
)
def test_qcheckd_integers_are_a_sign_and_ascii_digits(text, message):
    # int() and float() alone would read 1_0 as 10 and non-ASCII digits as
    # their values, also in conv exponents and cvcheck reals
    parse = {"qcheckd": parse_qcheckd, "conv": parse_conv_pair, "cvcheck": parse_cvcheck}
    with pytest.raises(ParseError, match=message):
        parse[text.split()[0]](text)


def test_cvcheck_parse():
    z, x = parse_cvcheck("cvcheck 1 2\n1.5 -2.0 | 0.25 3e-1\n")
    assert z.tolist() == [[1.5, -2.0]]
    assert x.tolist() == [[0.25, 0.3]]
    # non-ASCII whitespace still separates reals, as it does residues
    z, x = parse_cvcheck("cvcheck 1 2\n1.5\u2003-2 | 0\u00a01\n")
    assert (z.tolist(), x.tolist()) == ([[1.5, -2.0]], [[0.0, 1.0]])
    with pytest.raises(ParseError, match="invalid real"):
        parse_cvcheck("cvcheck 1 1\nabc | 1.0\n")
    with pytest.raises(ParseError, match="expected 2 reals in the X block"):
        parse_cvcheck("cvcheck 1 2\n1 2 | 3\n")


def test_poly_token_grammar():
    assert not parse_poly("0")
    assert parse_poly("1") == LaurentPoly.one()
    assert parse_poly("D") == LaurentPoly([(1, 1)])
    assert parse_poly("D^4") == LaurentPoly([(4, 1)])
    assert parse_poly("D^-2") == LaurentPoly([(-2, 1)])
    assert parse_poly("1+D+D^-1") == LaurentPoly([(0, 1), (1, 1), (-1, 1)])
    assert parse_poly(" 1 + D ") == LaurentPoly([(0, 1), (1, 1)])
    assert parse_poly("w*D^2", gf4=True) == LaurentPoly([(2, 2)])
    assert parse_poly("v", gf4=True) == LaurentPoly([(0, 3)])
    assert parse_poly("w*1", gf4=True) == LaurentPoly([(0, 2)])


def test_poly_token_errors():
    with pytest.raises(ParseError, match="only conv4 files allow"):
        parse_poly("w*D", gf4=False)
    with pytest.raises(ParseError, match="bad polynomial term"):
        parse_poly("Q", gf4=True)
    with pytest.raises(ParseError, match="bad exponent"):
        parse_poly("D^x")
    with pytest.raises(ParseError, match="bad coefficient"):
        parse_poly("q*D", gf4=True)
    with pytest.raises(ParseError, match="empty polynomial token"):
        parse_poly("  ")


def test_conv_pair_round_trip():
    hz, hx = parse_conv_pair((DATA / "conv5x5.conv").read_text())
    # the fixture as LaurentPoly.__str__ writes it, spaced differently
    text = """conv 5 5
    0,0,0,0,0 | 1+D,0,D,1,1+D
    1+D,D,0,1,1+D | 0,0,0,0,0
    0,0,D,D,D | 0,1,0,1,1
    0,D^-1,1,D^-1,0 | 0,0,0,0,0
    0,D^-1,0,0,0 | 0,0,1,0,0
    """
    assert parse_conv_pair(text) == (hz, hx)
    assert [str(hx.entry(0, j)) for j in range(5)] == ["1+D", "0", "D", "1", "1+D"]
    assert (hz.rows, hz.cols) == (hx.rows, hx.cols) == (5, 5)


def test_conv_pair_requires_bar():
    with pytest.raises(ParseError, match="one '\\|'"):
        parse_conv_pair("conv 1 1\n1+D\n")


def test_conv_plain_rejects_bar():
    with pytest.raises(ParseError, match="must not contain '\\|'"):
        parse_conv_plain("conv 1 1\n1 | D\n")


def test_conv_plain_round_trip():
    m = parse_conv_plain((DATA / "h2mat.conv").read_text())
    assert parse_conv_plain("conv 1 2\nD, D^-1+1\n") == m
    assert [str(m.entry(0, j)) for j in range(2)] == ["D", "D^-1+1"]


def test_conv4_allows_coefficients():
    m = parse_conv_plain((DATA / "hd.conv4").read_text(), tag="conv4")
    assert m.entry(0, 1) == LaurentPoly([(-1, 2)])
    # but a plain conv file may not carry them
    with pytest.raises(ParseError, match="only conv4"):
        parse_conv_plain("conv 1 1\nw*D\n")


def test_conv_wrong_entry_count():
    with pytest.raises(ParseError, match="expected 2 polynomial entries"):
        parse_conv_plain("conv 1 2\n1+D\n")
