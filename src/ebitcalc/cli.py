"""Command-line front end.

Reads the text formats from :mod:`ebitcalc.formats`, runs the matching
count formula, and prints either human-readable lines or one JSON
object with stable field names.  Exit codes: 0 success, 1 usage error,
2 parse error, 3 domain error (composite modulus, degree limit, and
the like).  Dependent generator rows are no error: every count is that
of the group the rows generate.

Each command is one row of ``_COMMANDS``: its help text, its
``run(args, *inputs)``, which returns the JSON fields, the text lines
and the ``--quiet`` value, its file arguments with the kind of file
each holds, its options, and a check of the option values.  ``main``
runs every command the same way: parse the arguments, check the flags
and then the row's options, read each file and pass its text to the
reader of its kind, run, and print.  So a bad option exits 1 before
any file is opened, and only the readers call the parsers.

The table also parses a plain command line (see ``_plain``); argparse
parses every other one, so it alone writes help and usage errors, and a
plain call never imports it.
"""

from __future__ import annotations

import sys
from types import SimpleNamespace

from . import formats
from .errors import EbitcalcError, InternalInvariantError, ParseError

# Each run and reader imports the modules it needs, so a binary command
# never loads numpy or the other input kinds.  Type checkers read a
# module-level TYPE_CHECKING as true.
TYPE_CHECKING = False
if TYPE_CHECKING:
    import argparse

    from .symplectic import CodeParameters

__all__ = ["EXIT_OK", "EXIT_USAGE", "EXIT_PARSE", "EXIT_DOMAIN", "main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_PARSE = 2
EXIT_DOMAIN = 3


class _UsageError(Exception):
    pass


def _read(path: str) -> str:
    # Binary mode and bytes.decode load no codec module; line ends stay as
    # written, and bytes.splitlines, like the parsers, ends a line at \n,
    # \r\n and \r alone.
    try:
        with open(path, "rb") as f:
            return f.read().decode("ascii")
    except UnicodeDecodeError as err:
        line = len((err.object[: err.start] + b".").splitlines())
        raise ParseError(f"non-ASCII byte 0x{err.object[err.start]:02x} in {path}", line) from None


# File kind -> reader of its text, which returns what the kind's count
# takes; "conv" is the Z|X pair form.  Each reader looks its parser up
# when it runs, so the benchmark's tracer, which wraps module attributes,
# sees every parse.
_READERS = {
    "qcheck": lambda text: formats.parse_qcheck(text),
    "gf2": lambda text: formats.parse_gf2(text),
    "gf4": lambda text: formats.parse_gf4(text),
    "qcheckd": lambda text: formats.parse_qcheckd(text),
    "cvcheck": lambda text: formats.parse_cvcheck(text),
    "conv": lambda text: formats.parse_conv_pair(text),
    "conv-plain": lambda text: formats.parse_conv_plain(text, tag="conv"),
    "conv4": lambda text: formats.parse_conv_plain(text, tag="conv4"),
}

# Every JSON object carries ``command``, ``conjectured`` and these counts,
# null where a command has none.
_CORE_COUNTS = ("n", "generators", "ebits", "logical", "ancillas")


def _count(label: str, c: int, n: int, generators: int, **extra) -> tuple:
    """Output of a command that prints one count under ``label``."""
    note = " (conjectured)" if extra.get("conjectured") else ""
    return dict(n=n, generators=generators, ebits=c, **extra), [f"{label}: {c}{note}"], c


def _parameters(p: CodeParameters, quiet: int | str) -> tuple:
    """Output of a command that prints the full [[n, k; c]] bookkeeping."""
    # g generators with c ebits hold an isotropic subspace of dimension
    # g - c <= n, so a negative k = n - g + c means a wrong count.
    if p.logical < 0:
        raise InternalInvariantError(f"logical qubit count is negative ({p.logical})")
    fields = {key: getattr(p, key) for key in _CORE_COUNTS}
    text = [f"{key}: {value}" for key, value in fields.items()]
    if p.distance is not None:
        fields["distance"] = p.distance
    return fields, [*text, f"parameters: {p.bracket()}"], quiet


def _ebits(args, h):
    from .symplectic import ebit_count

    return _count("ebits", ebit_count(h), h.n, h.generators)


def _params(args, h):
    from .symplectic import code_parameters

    p = code_parameters(h)
    return _parameters(p, p.bracket())


def _sgsop(args, h):
    from .symplectic import symplectic_gram_schmidt

    result = symplectic_gram_schmidt(h)
    transform = result.transform.to_strings()
    transformed = formats.qcheck_rows(result.transformed.hz, result.transformed.hx)
    pairs, isotropic = [list(p) for p in result.pairs], list(result.isotropic)
    text = [
        f"ebits: {result.ebits}",
        "pairs: " + (" ".join(f"({a},{b})" for a, b in pairs) or "none"),
        "isotropic: " + (" ".join(map(str, isotropic)) or "none"),
        "transform:",
        *transform,
        "transformed:",
        *transformed,
    ]
    fields = dict(n=h.n, generators=h.generators, ebits=result.ebits, pairs=pairs)
    fields.update(isotropic=isotropic, transform=transform, transformed=transformed)
    return fields, text, result.ebits


def _check_css(args) -> None:
    if (args.d1 is None) != (args.d2 is None):
        raise _UsageError("--d1 and --d2 must be given together")
    if args.d1 is not None and min(args.d1, args.d2) < 1:
        raise _UsageError("--d1 and --d2 must be positive")


def _css(args, h1, h2):
    from .classical import css_parameters

    p = css_parameters(h1, h2, args.d1, args.d2)
    return _parameters(p, p.ebits)


def _gf4(args, h):
    from .classical import gf4_parameters

    p = gf4_parameters(h)
    return _parameters(p, p.ebits)


def _gf4_expand(args, h):
    from .classical import gf4_symplectic_rows

    hz, hx = gf4_symplectic_rows(h)
    rendered = formats.format_qcheck(hz, hx).rstrip("\n")
    lines = rendered.split("\n")
    return dict(n=hz.cols, generators=hz.rows, check_matrix=lines[1:]), lines, rendered


def _qudit(args, rows):
    from .qudit import qudit_ebits

    hz, hx = rows
    return _count("edits", qudit_ebits(hz, hx), hz.cols, hz.rows, modulus=hz.modulus)


def _check_cv(args) -> None:
    if args.tol is not None and not 0 <= args.tol < 1:
        raise _UsageError(f"--tol must be a nonnegative number below 1, got {args.tol}")


def _cv(args, rows):
    from .cv import DEFAULT_TOLERANCE, cv_ebit_count

    hz, hx = rows
    tol = DEFAULT_TOLERANCE if args.tol is None else args.tol
    generators, n = hz.shape
    return _count("entangled modes", cv_ebit_count(hz, hx, tol), n, generators, tolerance=tol)


def _conv(args, rows):
    from .laurent import conv_ebits

    hz, hx = rows
    return _count("ebits per frame", conv_ebits(hz, hx), hz.cols, hz.rows, conjectured=True)


def _conv4(args, m):
    from .laurent import gf4_conv_ebits

    return _count("ebits per frame", gf4_conv_ebits(m), m.cols, m.rows, conjectured=True)


def _conv_css(args, m1, m2):
    from .laurent import css_conv_ebits

    c = css_conv_ebits(m1, m2)
    return _count("ebits per frame", c, m1.cols, m1.rows + m2.rows, conjectured=True)


def _check_verify(args) -> None:
    if (args.file is None) == (args.random is None):
        raise _UsageError("verify needs a file or --random <count>, not both")
    if args.random is None:
        if args.max_n is not None or args.seed is not None:
            raise _UsageError("--max-n and --seed apply to --random, not to a file")
    elif args.max_n is None:
        raise _UsageError("--random needs --max-n")
    elif args.random < 1 or args.max_n < 1:
        raise _UsageError("--random and --max-n must be positive")


def _verify(args, h):
    from .verify import DEFAULT_SEED, run_random_sweep, verify_code

    if h is None:
        seed = DEFAULT_SEED if args.seed is None else args.seed
        sweep = run_random_sweep(args.random, args.max_n, seed=seed)
        failures, agreement = list(sweep.failures), sweep.agreement
        fields = dict(cases=sweep.cases, seed=sweep.seed, failures=failures, agreement=agreement)
        text = [f"cases: {sweep.cases}", f"seed: {sweep.seed}", f"failures: {len(failures)}"]
        text += [*failures, f"agreement: {'yes' if agreement else 'NO'}"]
        return fields, text, len(failures)
    r = verify_code(h)
    c, oracle = r.formula_value, "skipped" if r.oracle_value is None else r.oracle_value
    text = [f"subject: {r.subject}", f"formula: {c}", f"procedure: {r.procedure_value}"]
    text += [f"enumeration: {oracle}", f"agreement: {'yes' if r.agreement else 'NO'}"]
    fields = dict(n=h.n, generators=h.generators, ebits=c, subject=r.subject, formula=c)
    fields.update(procedure=r.procedure_value, enumeration=r.oracle_value, agreement=r.agreement)
    return fields, text, c


class _Command:
    """A row of the command table; ``files`` holds (kind, argument) pairs."""

    def __init__(self, help, run, files, *options, check=lambda args: None):
        self.help, self.run, self.files = help, run, files
        self.options, self.check = options, check


def _arg(*names: str, **options) -> tuple:
    return names, options


_QCHECK = [("qcheck", _arg("file", help="qcheck file"))]
_GF4 = [("gf4", _arg("file", help="gf4 file"))]

# name -> row, in ``--help`` order
_COMMANDS = {
    "ebits": _Command("ebit count of a generator set", _ebits, _QCHECK),
    "params": _Command("[[n, k+c; c]] parameters", _params, _QCHECK),
    "sgsop": _Command("symplectic Gram-Schmidt pairing", _sgsop, _QCHECK),
    "css": _Command(
        "import two binary parity checks",
        _css,
        [
            ("gf2", _arg("file1", help="gf2 file (bit-flip checks)")),
            ("gf2", _arg("file2", help="gf2 file (phase-flip checks)")),
        ],
        _arg("--d1", type=int, help="distance of the first code"),
        _arg("--d2", type=int, help="distance of the second code"),
        check=_check_css,
    ),
    "gf4": _Command("import a quaternary parity check", _gf4, _GF4),
    "gf4-expand": _Command(
        "print the binary generator set of a quaternary import", _gf4_expand, _GF4
    ),
    "qudit": _Command(
        "edit count over a prime modulus", _qudit, [("qcheckd", _arg("file", help="qcheckd file"))]
    ),
    "cv": _Command(
        "entangled-mode count of a real generator set",
        _cv,
        [("cvcheck", _arg("file", help="cvcheck file"))],
        _arg(
            "--tol",
            type=float,
            help="relative rank tolerance (default: ebitcalc.cv.DEFAULT_TOLERANCE)",
        ),
        check=_check_cv,
    ),
    "conv": _Command(
        "conjectured per-frame ebits, convolutional",
        _conv,
        [("conv", _arg("file", help="conv file (Z|X pair form)"))],
    ),
    "conv4": _Command(
        "conjectured per-frame ebits, quaternary convolutional import",
        _conv4,
        [("conv4", _arg("file", help="conv4 file (plain matrix form)"))],
    ),
    "conv-css": _Command(
        "per-frame ebits for two binary convolutional parity checks",
        _conv_css,
        [
            ("conv-plain", _arg("file1", help="conv file (plain matrix form)")),
            ("conv-plain", _arg("file2", help="conv file (plain matrix form)")),
        ],
    ),
    "verify": _Command(
        "cross-check formula against procedure",
        _verify,
        [("qcheck", _arg("file", nargs="?", help="qcheck file"))],
        _arg("--random", type=int, metavar="COUNT", help="run a random sweep"),
        _arg("--max-n", type=int, help="largest qubit count"),
        _arg("--seed", type=int, help="sweep seed (default: ebitcalc.verify.DEFAULT_SEED)"),
        check=_check_verify,
    ),
}


def _plain(argv: list[str]) -> SimpleNamespace | None:
    """The arguments of a plain command line, or None for argparse to parse.

    Plain is a command name, then only exact flags and option names, each
    option with a value not starting with ``-`` that its type takes, and as
    many file names, none starting with ``-``, as the row takes.
    """
    row = _COMMANDS.get(argv[0]) if argv else None
    if row is None:
        return None
    # option name -> (dest, type); argparse's dest drops the "--" and reads "-" as "_"
    options = {n[0]: (n[0][2:].replace("-", "_"), spec["type"]) for n, spec in row.options}
    fields = dict.fromkeys(dest for dest, _ in options.values())
    fields.update(command=argv[0], json=False, quiet=False)
    files = []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("--json", "--quiet"):
            fields[token[2:]] = True
        elif token in options:
            dest, convert = options[token]
            value = next(tokens, "-")
            if value.startswith("-"):
                return None
            try:
                fields[dest] = convert(value)
            except ValueError:
                return None
        elif token.startswith("-"):
            return None
        else:
            files.append(token)
    positionals = [names[0] for _, (names, _) in row.files]
    needed = sum(spec.get("nargs") != "?" for _, (_, spec) in row.files)
    if not needed <= len(files) <= len(positionals):
        return None
    fields.update(zip(positionals, files + [None] * len(positionals)))
    return SimpleNamespace(**fields)


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    class _Parser(argparse.ArgumentParser):
        # argparse exits 2 on bad usage; this CLI reserves 2 for parse errors.
        def error(self, message):
            raise _UsageError(message)

    parser = _Parser(
        prog="ebitcalc",
        description="Entanglement cost of stabilizer generator sets: "
        "ebit/edit/entangled-mode counts from check matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")
    for name, row in _COMMANDS.items():
        p = sub.add_parser(name, help=row.help)
        p.add_argument("--json", action="store_true", help="emit one JSON object")
        p.add_argument("--quiet", action="store_true", help="print only the primary result")
        for _, (names, options) in row.files:
            p.add_argument(*names, **options)
        for names, options in row.options:
            p.add_argument(*names, **options)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _plain(sys.argv[1:] if argv is None else argv) or _build_parser().parse_args(argv)
        row = _COMMANDS[args.command]
        if args.json and args.quiet:
            raise _UsageError("--json and --quiet cannot be given together")
        row.check(args)
        inputs = []
        for kind, ((name,), _) in row.files:
            path = getattr(args, name)
            inputs.append(None if path is None else _READERS[kind](_read(path)))
        fields, text, quiet = row.run(args, *inputs)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except EbitcalcError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DOMAIN

    if args.json:
        import json  # text output never loads it

        core = {**dict.fromkeys(_CORE_COUNTS), "conjectured": False}
        print(json.dumps({"command": args.command, **core, **fields}, sort_keys=True))
    elif args.quiet:
        print(quiet)
    else:
        for line in text:
            print(line)
    return EXIT_OK
