"""Line-oriented text formats for every matrix kind the CLI accepts.

All formats share the same conventions: ASCII, one header line naming
the format and its dimensions, then one line per row; ``#`` starts a
comment and blank lines are ignored, so fixtures stay hand-editable.
"""

from __future__ import annotations

from .errors import DegreeLimitError, EbitcalcError, ParseError
from .gf2 import BinMatrix, bits_to_word

# numpy and the non-binary matrix kinds load inside the parsers that need
# them, so the binary commands never import numpy.  Type checkers read a
# module-level TYPE_CHECKING as true.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

    from .gf4 import GF4Matrix
    from .laurent import LaurentCheckMatrix, LaurentMatrix, LaurentPoly
    from .qudit import ModMatrix

__all__ = [
    "parse_gf2",
    "parse_qcheck",
    "parse_gf4",
    "parse_qcheckd",
    "parse_cvcheck",
    "parse_conv_pair",
    "parse_conv_plain",
    "parse_poly",
    "format_gf2",
    "format_qcheck",
    "qcheck_rows",
]

_COEFF_VALUES = {"1": 1, "w": 2, "v": 3}


def _logical_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for number, raw in enumerate(text.splitlines(), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            out.append((number, content))
    return out


def _split_header(lines: list[tuple[int, str]], expected: str, ints: int) -> list[int]:
    if not lines:
        raise ParseError(f"empty file; expected header '{expected}'")
    number, content = lines[0]
    fields = content.split()
    tag = fields[0]
    if tag != expected:
        raise ParseError(f"expected header '{expected}', found '{tag}'", number)
    if len(fields) != ints + 1:
        raise ParseError(
            f"header '{expected}' needs {ints} integer fields, got {len(fields) - 1}",
            number,
        )
    try:
        values = [int(f) for f in fields[1:]]
    except ValueError:
        raise ParseError(f"non-integer field in '{expected}' header", number) from None
    # every header ends in its row and column counts
    for value in values[-2:]:
        if value < 0:
            raise ParseError(f"negative dimension {value} in '{expected}' header", number)
    return values


def _take_rows(lines: list[tuple[int, str]], count: int, what: str) -> list[tuple[int, str]]:
    body = lines[1:]
    if len(body) < count:
        raise ParseError(f"expected {count} {what} rows, found {len(body)}")
    if len(body) > count:
        number, _ = body[count]
        raise ParseError(f"unexpected content after {count} {what} rows", number)
    return body


def _take_matrix_rows(
    text: str, lines: list[tuple[int, str]], rows: int, cols: int
) -> list[tuple[int, str]]:
    """Body rows of a ``gf2``, ``gf4`` or plain ``conv``/``conv4`` matrix."""
    # A 0-column row is a blank line, which _logical_lines drops; count raw
    # lines instead, so the file still holds one line per row.
    if cols or len(lines) > 1:
        return _take_rows(lines, rows, "matrix")
    header = lines[0][0]
    found = len(text.splitlines()) - header
    if found < rows:
        raise ParseError(f"expected {rows} matrix rows, found {found}")
    return [(header + 1 + i, "") for i in range(rows)]


def _word(chunk: str, width: int, number: int, block: str = "") -> int:
    if len(chunk) != width:
        raise ParseError(f"expected {width} binary digits, got {len(chunk)}", number)
    try:
        return bits_to_word(chunk)
    except ValueError as err:
        raise ParseError(str(err), number) from None


def _fields(chunk: str, width: int, number: int, what: str, read, invalid="", sep=None) -> list:
    """The ``width`` entries of ``chunk`` read by ``read``; an empty chunk has none.

    A ``ValueError`` from ``read`` becomes ``ParseError(invalid)``; the
    package's own errors (from ``parse_poly``) pass through unchanged.
    """
    tokens = chunk.split(sep) if chunk else []
    if len(tokens) != width:
        raise ParseError(f"expected {width} {what}, got {len(tokens)}", number)
    try:
        return [read(token) for token in tokens]
    except EbitcalcError:
        raise
    except ValueError:
        raise ParseError(invalid, number) from None


def _generator_rows(text: str, tag: str, ints: int, side) -> tuple[list[int], list, list]:
    """Header fields and the Z and X sides of a ``z | x`` generator format.

    The header ends in ``<generators> <n>``; ``side(chunk, n, number,
    block)`` reads one stripped side of a row, ``block`` being ``"Z"`` or
    ``"X"``.
    """
    lines = _logical_lines(text)
    header = _split_header(lines, tag, ints)
    generators, n = header[-2:]
    z_rows, x_rows = [], []
    for number, content in _take_rows(lines, generators, "generator"):
        if content.count("|") != 1:
            raise ParseError(
                "generator row needs exactly one '|' between the Z and X blocks", number
            )
        z_part, x_part = content.split("|")
        z_rows.append(side(z_part.strip(), n, number, "Z"))
        x_rows.append(side(x_part.strip(), n, number, "X"))
    return header, z_rows, x_rows


def parse_gf2(text: str) -> BinMatrix:
    """Binary matrix: header ``gf2 <rows> <cols>`` then 0/1 rows."""
    lines = _logical_lines(text)
    rows, cols = _split_header(lines, "gf2", 2)
    body = _take_matrix_rows(text, lines, rows, cols)
    return BinMatrix(rows, cols, [_word(content, cols, number) for number, content in body])


def parse_qcheck(text: str) -> tuple[BinMatrix, BinMatrix]:
    """Generator set: header ``qcheck <generators> <n>`` then ``z|x`` rows.

    Returns the raw (Z, X) pair; generator validation is the caller's
    job so a dependent-row policy can apply.
    """
    (generators, n), z_words, x_words = _generator_rows(text, "qcheck", 2, _word)
    return BinMatrix(generators, n, z_words), BinMatrix(generators, n, x_words)


def parse_gf4(text: str) -> GF4Matrix:
    """Quaternary matrix: header ``gf4 <rows> <cols>`` then 0/1/w/v rows."""
    from .gf4 import GF4Matrix, check_symbols

    lines = _logical_lines(text)
    rows, cols = _split_header(lines, "gf4", 2)
    body = _take_matrix_rows(text, lines, rows, cols)
    for number, content in body:
        if len(content) != cols:
            raise ParseError(f"expected {cols} symbols, got {len(content)}", number)
        try:
            check_symbols(content)
        except ValueError as err:
            raise ParseError(str(err), number) from None
    return GF4Matrix.from_strings([content for _, content in body], cols)


def _residues(chunk: str, width: int, number: int, block: str) -> list[int]:
    return _fields(chunk, width, number, "residues", int, "non-integer residue")


def parse_qcheckd(text: str) -> tuple[ModMatrix, ModMatrix]:
    """Qudit generator set: ``qcheckd <d> <generators> <n>``, ``z | x`` rows."""
    import numpy as np

    from .qudit import ModMatrix

    (d, _, n), z_grid, x_grid = _generator_rows(text, "qcheckd", 3, _residues)
    if not z_grid:
        empty = np.zeros((0, n), dtype=np.int64)
        return ModMatrix(empty, d), ModMatrix(empty, d)
    return ModMatrix(z_grid, d), ModMatrix(x_grid, d)


def _reals(chunk: str, width: int, number: int, block: str) -> list[float]:
    where = f"in the {block} block"
    return _fields(chunk, width, number, f"reals {where}", float, f"invalid real {where}")


def parse_cvcheck(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Real generator set: ``cvcheck <generators> <n>``, rows ``reals | reals``."""
    import numpy as np

    (generators, n), z_grid, x_grid = _generator_rows(text, "cvcheck", 2, _reals)
    shape = (generators, n)
    z = np.array(z_grid, dtype=np.float64).reshape(shape)
    x = np.array(x_grid, dtype=np.float64).reshape(shape)
    return z, x


# ---------------------------------------------------------------------------
# delay-polynomial formats


def parse_poly(token: str, gf4: bool = False, line: int | None = None) -> LaurentPoly:
    """Parse a sum of terms like ``1``, ``D``, ``D^-2``, ``w*D^3``.

    GF(4) coefficient prefixes (``w*``, ``v*``, or bare ``w``/``v``) are
    accepted only when ``gf4`` is set.
    """
    from .laurent import MAX_EXPONENT, LaurentPoly

    compact = "".join(token.split())
    if not compact:
        raise ParseError("empty polynomial token", line)
    if compact == "0":
        return LaurentPoly.zero()
    terms = []
    for part in compact.split("+"):
        coeff = 1
        body = part
        if "*" in part:
            prefix, _, body = part.partition("*")
            coeff = _COEFF_VALUES.get(prefix)
            if coeff is None:
                raise ParseError(f"bad coefficient {prefix!r} in term {part!r}", line)
        elif part in ("w", "v"):
            coeff = _COEFF_VALUES[part]
            body = "1"
        if coeff != 1 and not gf4:
            raise ParseError(
                f"GF(4) coefficient in term {part!r}; only conv4 files allow w and v",
                line,
            )
        if body == "1":
            exponent = 0
        elif body == "D":
            exponent = 1
        elif body.startswith("D^"):
            try:
                exponent = int(body[2:])
            except ValueError:
                raise ParseError(f"bad exponent in term {part!r}", line) from None
        else:
            raise ParseError(f"bad polynomial term {part!r}", line)
        # Checked per term: a polynomial spans its exponent range in memory.
        if not -MAX_EXPONENT <= exponent <= MAX_EXPONENT:
            where = "" if line is None else f"line {line}: "
            raise DegreeLimitError(
                f"{where}term {part!r} has an exponent outside [-{MAX_EXPONENT}, {MAX_EXPONENT}]"
            )
        terms.append((exponent, coeff))
    return LaurentPoly(terms)


def _polys(
    chunk: str, width: int, number: int, block: str = "", gf4: bool = False
) -> list[LaurentPoly]:
    def read(token: str) -> LaurentPoly:
        return parse_poly(token, gf4=gf4, line=number)

    return _fields(chunk, width, number, "polynomial entries", read, sep=",")


def parse_conv_pair(text: str) -> LaurentCheckMatrix:
    """Convolutional generator set: ``conv <generators> <n>``.

    Each row holds n comma-separated polynomials for the Z block, a
    literal ``|``, then n for the X block.
    """
    from .laurent import LaurentCheckMatrix, LaurentMatrix

    (_, n), z_rows, x_rows = _generator_rows(text, "conv", 2, _polys)
    return LaurentCheckMatrix(
        LaurentMatrix(z_rows, cols=n),
        LaurentMatrix(x_rows, cols=n),
    )


def parse_conv_plain(text: str, tag: str = "conv") -> LaurentMatrix:
    """Plain polynomial matrix: ``conv``/``conv4 <rows> <cols>``, no ``|``.

    Used for classical convolutional parity checks; ``conv4`` rows may
    carry GF(4) coefficient prefixes.
    """
    from .laurent import LaurentMatrix

    gf4 = tag == "conv4"
    lines = _logical_lines(text)
    rows, cols = _split_header(lines, tag, 2)
    body = _take_matrix_rows(text, lines, rows, cols)
    grid = []
    for number, content in body:
        if "|" in content:
            raise ParseError(
                f"'{tag}' matrix rows must not contain '|'; this file looks like a"
                " quantum Z|X pair",
                number,
            )
        grid.append(_polys(content, cols, number, gf4=gf4))
    return LaurentMatrix(grid, cols=cols)


# ---------------------------------------------------------------------------
# writers


def format_gf2(m: BinMatrix) -> str:
    return "\n".join([f"gf2 {m.rows} {m.cols}", *m.to_strings()]) + "\n"


def qcheck_rows(hz: BinMatrix, hx: BinMatrix) -> list[str]:
    """The ``z|x`` body rows of a generator set, as ``qcheck`` files hold them."""
    return [f"{z}|{x}" for z, x in zip(hz.to_strings(), hx.to_strings())]


def format_qcheck(hz: BinMatrix, hx: BinMatrix) -> str:
    return "\n".join([f"qcheck {hz.rows} {hz.cols}", *qcheck_rows(hz, hx)]) + "\n"

