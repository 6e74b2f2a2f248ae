"""Line-oriented text formats for every matrix kind the CLI accepts.

All formats share one layout, read by ``_read_rows``: ASCII, a header
line naming the format and its integer fields, then one line per row.
``#`` starts a comment and blank lines are skipped, except as the rows
of a 0-column matrix.  A generator row holds exactly one ``|``, between
its Z and X blocks.  ``\\n``, ``\\r\\n`` and ``\\r`` end a line, and nothing
else does.  A format adds an entry reader and a builder of what its count takes.
"""

from __future__ import annotations

from functools import partial

from .errors import DegreeLimitError, EbitcalcError, ParseError

# Each matrix kind, numpy and gf2 included, loads inside the parsers that
# need it, so the binary commands never import numpy and the others never
# import gf2.  Type checkers read a module-level TYPE_CHECKING as true.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import numpy as np

    from .gf2 import BinMatrix
    from .gf4 import GF4Matrix
    from .laurent import LaurentMatrix, LaurentPoly
    from .qudit import ModMatrix
    from .symplectic import QuantumCheckMatrix

__all__ = [
    "parse_gf2",
    "parse_qcheck",
    "parse_gf4",
    "parse_qcheckd",
    "parse_cvcheck",
    "parse_conv_pair",
    "parse_conv_plain",
    "parse_poly",
    "format_qcheck",
    "qcheck_rows",
]

_COEFF_VALUES = {"1": 1, "w": 2, "v": 3}


def _integer(token: str) -> int:
    """``token`` as an optional sign and ASCII digits; ``int`` alone also
    takes ``1_0`` and non-ASCII digits."""
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return int(token)


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
        values = [_integer(f) for f in fields[1:]]
    except ValueError:
        raise ParseError(f"non-integer field in '{expected}' header", number) from None
    # every header ends in its row and column counts
    for value in values[-2:]:
        if value < 0:
            raise ParseError(f"negative dimension {value} in '{expected}' header", number)
    return values


def _read_rows(text: str, tag: str, ints: int, entry, pair: bool = False) -> tuple[list, list]:
    """Header fields and rows of a file in any format: ``[rows]``, or ``[z_rows, x_rows]``.

    ``entry(chunk, width, number, block)`` reads one stripped row, or with
    ``pair`` one side of a ``z | x`` row, ``block`` being ``"Z"`` or ``"X"``.
    """
    # str.splitlines would also end a line at \v, \f and \x1c-\x1e; a scan
    # for \r is cheaper than a replace of \r\n that finds none
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    raw = text.split("\n")
    lines = [(i, c) for i, line in enumerate(raw, 1) if (c := line.split("#", 1)[0].strip())]
    header = _split_header(lines, tag, ints)
    count, width = header[-2:]
    what = "generator" if pair else "matrix"
    body = lines[1:]
    found = len(body)
    if not (width or body or pair):
        # A 0-column matrix row is a blank line, which ``lines`` drops; count
        # raw lines instead, of which a final line end starts none.
        start = lines[0][0]
        found = len(raw) - start - (raw[-1] == "")
        body = [(start + 1 + i, "") for i in range(min(found, count))]
    if found < count:
        raise ParseError(f"expected {count} {what} rows, found {found}")
    if len(body) > count:
        raise ParseError(f"unexpected content after {count} {what} rows", body[count][0])
    if not pair:
        return header, [[entry(content, width, number, "") for number, content in body]]
    z_rows, x_rows = [], []
    for number, content in body:
        if content.count("|") != 1:
            raise ParseError(
                "generator row needs exactly one '|' between the Z and X blocks", number
            )
        z_part, x_part = content.split("|")
        z_rows.append(entry(z_part.strip(), width, number, "Z"))
        x_rows.append(entry(x_part.strip(), width, number, "X"))
    return header, [z_rows, x_rows]


def _word(chunk: str, width: int, number: int, block: str, read) -> int:
    """A binary row as the word that ``read`` (``gf2.bits_to_word``) packs."""
    if len(chunk) != width:
        raise ParseError(f"expected {width} binary digits, got {len(chunk)}", number)
    try:
        return read(chunk)
    except ValueError as err:
        raise ParseError(str(err), number) from None


def _symbols(chunk: str, width: int, number: int, block: str, check) -> str:
    """A GF(4) row as written, once ``check`` (``gf4.check_symbols``) accepts it."""
    if len(chunk) != width:
        raise ParseError(f"expected {width} symbols, got {len(chunk)}", number)
    try:
        check(chunk)
    except ValueError as err:
        raise ParseError(str(err), number) from None
    return chunk


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


def _residues(chunk: str, width: int, number: int, block: str) -> list[int]:
    return _fields(chunk, width, number, "residues", _integer, "non-integer residue")


def _reals(chunk: str, width: int, number: int, block: str) -> list[float]:
    where = f"in the {block} block"
    values = _fields(chunk, width, number, f"reals {where}", float, f"invalid real {where}")
    # float alone also takes 1_0 and non-ASCII digits; non-ASCII spaces still separate
    if "_" in chunk or not (chunk.isascii() or "".join(chunk.split()).isascii()):
        raise ParseError(f"invalid real {where}", number)
    return values


def parse_gf2(text: str) -> BinMatrix:
    """Binary matrix: header ``gf2 <rows> <cols>`` then 0/1 rows."""
    from .gf2 import BinMatrix, bits_to_word

    (rows, cols), (words,) = _read_rows(text, "gf2", 2, partial(_word, read=bits_to_word))
    return BinMatrix(rows, cols, words)


def parse_qcheck(text: str) -> QuantumCheckMatrix:
    """Generator set: header ``qcheck <generators> <n>`` then ``z|x`` rows.

    Returns the ``QuantumCheckMatrix`` that the qcheck commands count, a
    named (Z, X) pair, so ``hz, hx = parse_qcheck(text)`` still unpacks.
    """
    from .gf2 import BinMatrix, bits_to_word
    from .symplectic import QuantumCheckMatrix

    word = partial(_word, read=bits_to_word)
    (generators, n), (z_words, x_words) = _read_rows(text, "qcheck", 2, word, pair=True)
    return QuantumCheckMatrix(BinMatrix(generators, n, z_words), BinMatrix(generators, n, x_words))


def parse_gf4(text: str) -> GF4Matrix:
    """Quaternary matrix: header ``gf4 <rows> <cols>`` then 0/1/w/v rows."""
    from .gf4 import _from_checked, check_symbols

    (_, cols), (rows,) = _read_rows(text, "gf4", 2, partial(_symbols, check=check_symbols))
    return _from_checked(rows, cols)


def parse_qcheckd(text: str) -> tuple[ModMatrix, ModMatrix]:
    """Qudit generator set: ``qcheckd <d> <generators> <n>``, ``z | x`` rows."""
    from .qudit import ModMatrix

    (d, _, n), (z_grid, x_grid) = _read_rows(text, "qcheckd", 3, _residues, pair=True)
    return ModMatrix(z_grid, d, n), ModMatrix(x_grid, d, n)


def parse_cvcheck(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Real generator set: ``cvcheck <generators> <n>``, rows ``reals | reals``."""
    import numpy as np

    (generators, n), grids = _read_rows(text, "cvcheck", 2, _reals, pair=True)
    return tuple(np.array(grid, dtype=np.float64).reshape(generators, n) for grid in grids)


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
                exponent = _integer(body[2:])
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
    chunk: str, width: int, number: int, block: str, gf4: bool = False
) -> list[LaurentPoly]:
    read = partial(parse_poly, gf4=gf4, line=number)
    return _fields(chunk, width, number, "polynomial entries", read, sep=",")


def _plain_polys(chunk: str, width: int, number: int, block: str, tag: str) -> list[LaurentPoly]:
    """A row of a plain ``tag`` matrix, which only ``conv4`` writes with w and v."""
    if "|" in chunk:
        pair = "this file looks like a quantum Z|X pair"
        raise ParseError(f"'{tag}' matrix rows must not contain '|'; {pair}", number)
    return _polys(chunk, width, number, block, gf4=tag == "conv4")


def parse_conv_pair(text: str) -> tuple[LaurentMatrix, LaurentMatrix]:
    """Convolutional generator set: ``conv <generators> <n>``.

    Each row holds n comma-separated polynomials for the Z block, a
    literal ``|``, then n for the X block.
    """
    from .laurent import LaurentMatrix

    (_, n), (z_rows, x_rows) = _read_rows(text, "conv", 2, _polys, pair=True)
    return LaurentMatrix(z_rows, cols=n), LaurentMatrix(x_rows, cols=n)


def parse_conv_plain(text: str, tag: str = "conv") -> LaurentMatrix:
    """Plain polynomial matrix: ``conv``/``conv4 <rows> <cols>``, no ``|``.

    Used for classical convolutional parity checks; ``conv4`` rows may
    carry GF(4) coefficient prefixes.
    """
    from .laurent import LaurentMatrix

    (_, cols), (grid,) = _read_rows(text, tag, 2, partial(_plain_polys, tag=tag))
    return LaurentMatrix(grid, cols=cols)


# ---------------------------------------------------------------------------
# writers


def qcheck_rows(hz: BinMatrix, hx: BinMatrix) -> list[str]:
    """The ``z|x`` body rows of a generator set, as ``qcheck`` files hold them."""
    return [f"{z}|{x}" for z, x in zip(hz.to_strings(), hx.to_strings())]


def format_qcheck(hz: BinMatrix, hx: BinMatrix) -> str:
    return "\n".join([f"qcheck {hz.rows} {hz.cols}", *qcheck_rows(hz, hx)]) + "\n"

