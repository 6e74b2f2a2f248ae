"""Command-line front end.

Reads the text formats from :mod:`ebitcalc.formats`, runs the matching
count formula, and prints either human-readable lines or one JSON
object with stable field names.  Exit codes: 0 success, 1 usage error,
2 parse error, 3 domain error (dependent rows, composite modulus,
degree limit, and the like).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import formats
from .errors import EbitcalcError, ParseError

# Each handler imports the modules it runs, so a binary command never
# loads numpy or the other input kinds.  Type checkers read a
# module-level TYPE_CHECKING as true.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from collections.abc import Callable

    from .symplectic import CodeParameters, QuantumCheckMatrix

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3

_CONJECTURED_NOTE = "(conjectured)"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad usage; this CLI reserves 2 for parse errors.
    def error(self, message):
        raise _UsageError(message)


# Every JSON object carries ``command``, ``conjectured`` and these counts,
# null where a command has none.
_CORE_COUNTS = ("n", "generators", "ebits", "logical", "ancillas")


def _core(**fields) -> dict:
    """JSON payload: the core keys, overridden and extended by the command's ``fields``."""
    return {**dict.fromkeys(_CORE_COUNTS), "conjectured": False, **fields}


# name -> (help, argparse arguments, handler), in ``--help`` order
_COMMANDS: dict[str, tuple[str, tuple, Callable[[argparse.Namespace], dict]]] = {}


def _arg(*names: str, **options) -> tuple:
    return names, options


def _command(name: str, help: str, *arguments: tuple):
    """Register the decorated handler as subcommand ``name``."""

    def register(handler):
        _COMMANDS[name] = (help, arguments, handler)
        return handler

    return register


_REDUCE = _arg(
    "--reduce",
    action="store_true",
    help="drop dependent generator rows instead of failing",
)
_QCHECK_ARGS = (_arg("file", help="qcheck file"), _REDUCE)


def _read(path: str) -> str:
    try:
        with open(path, encoding="ascii") as f:
            return f.read()
    except UnicodeDecodeError as err:
        line = err.object.count(b"\n", 0, err.start) + 1
        raise ParseError(
            f"non-ASCII byte 0x{err.object[err.start]:02x} in {path}", line
        ) from None


def _load_check_matrix(path: str, reduce_rows: bool) -> QuantumCheckMatrix:
    from .symplectic import QuantumCheckMatrix

    hz, hx = formats.parse_qcheck(_read(path))
    if reduce_rows:
        return QuantumCheckMatrix.reduced(hz, hx)
    return QuantumCheckMatrix(hz, hx)


def _count(label: str, c: int, n: int, generators: int, **extra) -> dict:
    """Payload of a command that prints one count under ``label``."""
    note = f" {_CONJECTURED_NOTE}" if extra.get("conjectured") else ""
    return {
        "json": _core(n=n, generators=generators, ebits=c, **extra),
        "text": [f"{label}: {c}{note}"],
        "quiet": c,
    }


def _parameters(p: CodeParameters, quiet: int | str) -> dict:
    """Payload of a command that prints the full [[n, k; c]] bookkeeping."""
    fields = {key: getattr(p, key) for key in _CORE_COUNTS}
    text = [f"{key}: {value}" for key, value in fields.items()]
    if p.distance is not None:
        fields["distance"] = p.distance
    return {
        "json": _core(**fields),
        "text": [*text, f"parameters: {p.bracket()}"],
        "quiet": quiet,
        "warnings": (
            [f"logical qubit count is negative ({p.logical})"] if p.logical < 0 else []
        ),
    }


@_command("ebits", "ebit count of a generator set", *_QCHECK_ARGS)
def _cmd_ebits(args) -> dict:
    from .symplectic import ebit_count

    h = _load_check_matrix(args.file, args.reduce)
    return _count("ebits", ebit_count(h), h.n, h.generators)


@_command("params", "[[n, k+c; c]] parameters", *_QCHECK_ARGS)
def _cmd_params(args) -> dict:
    from .symplectic import code_parameters

    p = code_parameters(_load_check_matrix(args.file, args.reduce))
    return _parameters(p, p.bracket())


@_command("sgsop", "symplectic Gram-Schmidt pairing", *_QCHECK_ARGS)
def _cmd_sgsop(args) -> dict:
    from .symplectic import symplectic_gram_schmidt

    h = _load_check_matrix(args.file, args.reduce)
    result = symplectic_gram_schmidt(h)
    transform_rows = result.transform.to_strings()
    transformed_rows = formats.qcheck_rows(result.transformed.hz, result.transformed.hx)
    text = [
        f"ebits: {result.ebits}",
        "pairs: " + (" ".join(f"({a},{b})" for a, b in result.pairs) or "none"),
        "isotropic: " + (" ".join(str(i) for i in result.isotropic) or "none"),
        "transform:",
        *transform_rows,
        "transformed:",
        *transformed_rows,
    ]
    return {
        "json": _core(
            n=h.n,
            generators=h.generators,
            ebits=result.ebits,
            pairs=[list(p) for p in result.pairs],
            isotropic=list(result.isotropic),
            transform=transform_rows,
            transformed=transformed_rows,
        ),
        "text": text,
        "quiet": result.ebits,
    }


@_command(
    "css",
    "import two binary parity checks",
    _arg("file1", help="gf2 file (bit-flip checks)"),
    _arg("file2", help="gf2 file (phase-flip checks)"),
    _arg("--d1", type=int, help="distance of the first code"),
    _arg("--d2", type=int, help="distance of the second code"),
)
def _cmd_css(args) -> dict:
    from .classical import css_parameters

    h1 = formats.parse_gf2(_read(args.file1))
    h2 = formats.parse_gf2(_read(args.file2))
    if (args.d1 is None) != (args.d2 is None):
        raise _UsageError("--d1 and --d2 must be given together")
    if args.d1 is not None and min(args.d1, args.d2) < 1:
        raise _UsageError("--d1 and --d2 must be positive")
    p = css_parameters(h1, h2, args.d1, args.d2)
    return _parameters(p, p.ebits)


@_command("gf4", "import a quaternary parity check", _arg("file", help="gf4 file"))
def _cmd_gf4(args) -> dict:
    from .classical import gf4_parameters

    h = formats.parse_gf4(_read(args.file))
    p = gf4_parameters(h)
    return _parameters(p, p.ebits)


@_command(
    "gf4-expand",
    "print the binary generator set of a quaternary import",
    _arg("file", help="gf4 file"),
    _REDUCE,
)
def _cmd_gf4_expand(args) -> dict:
    from .classical import gf4_to_binary

    h = formats.parse_gf4(_read(args.file))
    q = gf4_to_binary(h, drop_dependent=args.reduce)
    rendered = formats.format_qcheck(q.hz, q.hx).rstrip("\n")
    lines = rendered.split("\n")
    return {
        "json": _core(n=q.n, generators=q.generators, check_matrix=lines[1:]),
        "text": lines,
        "quiet": rendered,
    }


@_command("qudit", "edit count over a prime modulus", _arg("file", help="qcheckd file"))
def _cmd_qudit(args) -> dict:
    from .qudit import qudit_ebits

    hz, hx = formats.parse_qcheckd(_read(args.file))
    c = qudit_ebits(hz, hx)
    return _count("edits", c, hz.cols, hz.rows, modulus=hz.modulus)


@_command(
    "cv",
    "entangled-mode count of a real generator set",
    _arg("file", help="cvcheck file"),
    _arg(
        "--tol",
        type=float,
        help="relative rank tolerance (default: ebitcalc.cv.DEFAULT_TOLERANCE)",
    ),
)
def _cmd_cv(args) -> dict:
    from .cv import DEFAULT_TOLERANCE, RealCheckMatrix, cv_ebit_count

    tol = DEFAULT_TOLERANCE if args.tol is None else args.tol
    if not 0 <= tol < 1:
        raise _UsageError(f"--tol must be a nonnegative number below 1, got {tol}")
    z, x = formats.parse_cvcheck(_read(args.file))
    h = RealCheckMatrix(z, x, tolerance=tol)
    c = cv_ebit_count(h)
    return _count("entangled modes", c, h.n, h.generators, tolerance=tol)


@_command(
    "conv",
    "conjectured per-frame ebits, convolutional",
    _arg("file", help="conv file (Z|X pair form)"),
)
def _cmd_conv(args) -> dict:
    from .laurent import conv_ebits

    h = formats.parse_conv_pair(_read(args.file))
    c = conv_ebits(h)
    return _count("ebits per frame", c, h.n, h.generators, conjectured=True)


@_command(
    "conv4",
    "conjectured per-frame ebits, quaternary convolutional import",
    _arg("file", help="conv4 file (plain matrix form)"),
)
def _cmd_conv4(args) -> dict:
    from .laurent import gf4_conv_ebits

    m = formats.parse_conv_plain(_read(args.file), tag="conv4")
    c = gf4_conv_ebits(m)
    return _count("ebits per frame", c, m.cols, m.rows, conjectured=True)


@_command(
    "conv-css",
    "per-frame ebits for two binary convolutional parity checks",
    _arg("file1", help="conv file (plain matrix form)"),
    _arg("file2", help="conv file (plain matrix form)"),
)
def _cmd_conv_css(args) -> dict:
    from .laurent import css_conv_ebits

    m1 = formats.parse_conv_plain(_read(args.file1), tag="conv")
    m2 = formats.parse_conv_plain(_read(args.file2), tag="conv")
    c = css_conv_ebits(m1, m2)
    return _count("ebits per frame", c, m1.cols, m1.rows + m2.rows, conjectured=True)


@_command(
    "verify",
    "cross-check formula against procedure",
    _arg("file", nargs="?", help="qcheck file"),
    _arg("--random", type=int, metavar="COUNT", help="run a random sweep"),
    _arg("--max-n", dest="max_n", type=int, help="largest qubit count"),
    _arg("--seed", type=int, help="sweep seed (default: ebitcalc.verify.DEFAULT_SEED)"),
    _REDUCE,
)
def _cmd_verify(args) -> dict:
    from .verify import DEFAULT_SEED, run_random_sweep, verify_code

    if (args.file is None) == (args.random is None):
        raise _UsageError("verify needs a file or --random <count>, not both")
    if args.random is not None:
        if args.max_n is None:
            raise _UsageError("--random needs --max-n")
        if args.reduce:
            raise _UsageError("--reduce applies to a file, not to --random")
        if args.random < 1 or args.max_n < 1:
            raise _UsageError("--random and --max-n must be positive")
        seed = DEFAULT_SEED if args.seed is None else args.seed
        sweep = run_random_sweep(args.random, args.max_n, seed=seed)
        text = [
            f"cases: {sweep.cases}",
            f"seed: {sweep.seed}",
            f"failures: {len(sweep.failures)}",
            *sweep.failures,
            f"agreement: {'yes' if sweep.agreement else 'NO'}",
        ]
        return {
            "json": _core(
                cases=sweep.cases,
                seed=sweep.seed,
                failures=list(sweep.failures),
                agreement=sweep.agreement,
            ),
            "text": text,
            "quiet": len(sweep.failures),
        }
    if args.max_n is not None or args.seed is not None:
        raise _UsageError("--max-n and --seed apply to --random, not to a file")
    h = _load_check_matrix(args.file, args.reduce)
    report = verify_code(h)
    oracle = "skipped" if report.oracle_value is None else report.oracle_value
    text = [
        f"subject: {report.subject}",
        f"formula: {report.formula_value}",
        f"procedure: {report.procedure_value}",
        f"enumeration: {oracle}",
        f"agreement: {'yes' if report.agreement else 'NO'}",
    ]
    return {
        "json": _core(
            n=h.n,
            generators=h.generators,
            ebits=report.formula_value,
            subject=report.subject,
            formula=report.formula_value,
            procedure=report.procedure_value,
            enumeration=report.oracle_value,
            agreement=report.agreement,
        ),
        "text": text,
        "quiet": report.formula_value,
    }


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="emit one JSON object")
    common.add_argument(
        "--quiet", action="store_true", help="print only the primary result"
    )

    parser = _Parser(
        prog="ebitcalc",
        description="Entanglement cost of stabilizer generator sets: "
        "ebit/edit/entangled-mode counts from check matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, (help_text, arguments, handler) in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_text)
        for names, options in arguments:
            p.add_argument(*names, **options)
        p.set_defaults(handler=handler)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        payload = args.handler(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except EbitcalcError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN

    if not args.quiet:
        for warning in payload.get("warnings", ()):
            print(f"warning: {warning}", file=sys.stderr)
    if args.json:
        print(json.dumps({"command": args.command, **payload["json"]}, sort_keys=True))
    elif args.quiet:
        print(payload["quiet"])
    else:
        for line in payload["text"]:
            print(line)
    return EXIT_OK
