"""Command-line front end: argument parsing and the subcommands.

Subcommands: info, dual, tri-dual, contrary, code, reduce, distance,
verify, random, export.  All user-facing labels are 1-based; every output
is deterministic for fixed inputs and seeds.

Argv takes one of two routes, both read from one table, :data:`COMMANDS`.
A known command's plain argv (FILE first where the command takes one, then
exact long options, each at most once, with their values) is read by
:func:`_read_plain` without argparse; any other argv, or a value that an
option's type or choices refuse, goes to the top-level argparse parser,
built from the table on first need, which reads it and reports its errors.

Exit codes: 0 success, 1 output not written (stdout closed or failing),
2 parse error, 3 validation error, 4 internal invariant breach.
"""

from __future__ import annotations

import functools
import os
import sys
from collections import namedtuple
from collections.abc import Callable, Iterable
from types import SimpleNamespace

from .chain import (
    EDGE,
    FACE,
    FULL,
    CommutationError,
    QuotientCode,
    edge_code,
    face_code,
    full_code,
)
from .css import distance, stabilizer_strings
from .export import export_json, export_walsh_dot
from .gf2 import dense_block, dense_rows
from .hypermap import (
    Hypermap,
    ParseError,
    _special_line,
    contrary,
    dual,
    euler_characteristic,
    format_hypermap,
    genus,
    parse_hypermap,
    random_hypermap,
    triangle_dual,
)
from .perm import MAX_DARTS, _read_labels
from .reduce import reduce_to_surface, validate_surface
from .verify import run_verification

EXIT_OK = 0
EXIT_OUTPUT = 1
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_INTERNAL = 4

DEFAULT_DISTANCE_BUDGET = 6


class UnreadableInput(Exception):
    """Opening or reading the input file failed; carries the OSError's text."""


def load_hypermap(path: str) -> tuple[Hypermap, frozenset[int] | None]:
    """Read and parse a hypermap file: UnreadableInput if unreadable, ParseError if not UTF-8."""
    try:
        with open(path, "rb", buffering=0) as fh:
            data = fh.readall()
    except OSError as exc:
        raise UnreadableInput(exc) from exc
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:  # placed as parse_hypermap places a character there
        lines = (data[:exc.start].decode("utf-8") + "x").splitlines()
        raise ParseError(len(lines), len(lines[-1]), f"not UTF-8 text ({exc.reason})") from exc
    return parse_hypermap(text)


def _usage_error(args) -> str | None:
    """The usage error for options that do not go together, or None: a --special
    or --kind given where another option leaves it unused, or DOT export of
    anything but the hypermap."""
    what = getattr(args, "what", "code")  # export's; code, distance and reduce build a code
    dot = getattr(args, "format", None) == "dot"
    if dot:
        used, option = (), "--format dot"
    elif what == "hypermap":
        used, option = (), "--what hypermap"
    elif what == "complex":  # the face code's special set, no kind
        used, option = ("special",), "--what complex"
    elif getattr(args, "kind", None) == FULL:
        used, option = ("kind",), "--kind full"
    else:
        return None
    for flag in ("special", "kind"):
        if getattr(args, flag, None) is not None and flag not in used:
            return f"argument --{flag}: has no effect with {option}"
    if dot and what != "hypermap":
        return "argument --what: DOT export is only available for the hypermap itself"
    return None


def _build_quotient(h: Hypermap, kind: str, cli_special, file_special) -> QuotientCode:
    """The code of ``kind``.  Its special darts, a 0-based set passed on as it
    is: the --special flag's, else, for a face code, the file's special line
    (one dart per edge), else the orbit minima.  The code builder validates them."""
    if kind == FULL:
        return full_code(h)
    special = file_special if cli_special is None and kind == FACE else cli_special
    return face_code(h, special) if kind == FACE else edge_code(h, special)


# ---------------------------------------------------------------------------
# commands

def _write_matrix(block: str | None, lines: Iterable[str]) -> None:
    """Write a matrix's text: its one block where it has one, else each line
    as it is produced, so a matrix over ``gf2.BLOCK_BYTES`` is never held whole."""
    write = sys.stdout.write
    if block is not None:
        write(block)
        return
    for line in lines:
        write(line)
        write("\n")


def _print_orbits(title: str, prefix: str, orbits) -> None:
    print(f"{title}: {len(orbits)}")
    for i, orbit in enumerate(orbits):
        cycle = "(" + " ".join(str(x + 1) for x in orbit) + ")"
        print(f"  {prefix}{i + 1}: {cycle}")


def cmd_info(args) -> int:
    h, special = load_hypermap(args.file)
    sys.stdout.write(format_hypermap(h, special))
    _print_orbits("vertices", "v", h.vertices)
    _print_orbits("edges", "e", h.edges)
    _print_orbits("faces", "f", h.faces)
    print(f"euler-characteristic: {euler_characteristic(h)}")
    print(f"genus: {genus(h)}")
    return EXIT_OK


def _cmd_transform(args, op) -> int:
    h, special = load_hypermap(args.file)
    sys.stdout.write(format_hypermap(op(h), special))
    return EXIT_OK


def cmd_code(args) -> int:
    h, file_special = load_hypermap(args.file)
    code = _build_quotient(h, args.kind, args.special, file_special)
    k = code.k  # the commutation guard runs before any output
    print(f"kind: {code.kind}")
    print(f"darts: {h.n}")
    if code.special is not None:
        print(_special_line(h, code.special))
    print("qubits: " + " ".join(str(i + 1) for i in code.qubit_labels))
    print(f"n: {code.n}")
    print(f"k: {k}")
    z_prefix = "e" if code.kind == EDGE else "f"
    x_checks, z_checks = len(code.x_labels), len(code.z_labels)
    print(f"H_X (rows X_v1..X_v{x_checks}):")
    _write_matrix(dense_block(code.ends, x_checks), dense_rows(code.ends, x_checks))
    print(f"H_Z (rows Z_{z_prefix}1..Z_{z_prefix}{z_checks}):")
    _write_matrix(dense_block(code.sides, z_checks), dense_rows(code.sides, z_checks))
    sys.stdout.write("\n".join(["generators:", *stabilizer_strings(code), ""]))
    return EXIT_OK


def cmd_reduce(args) -> int:
    h, file_special = load_hypermap(args.file)
    code = _build_quotient(h, FACE, args.special, file_special)
    complex_ = reduce_to_surface(h, code)
    print(f"zero-cells: {len(complex_.zero_cells)}")
    print("one-cells: " + " ".join(str(i + 1) for i in complex_.one_cells))
    print(f"two-cells: {len(complex_.two_cells)}")
    print("incidence 2->1 counts (rows = 1-cells, cols = 2-cells):")
    _write_matrix(complex_.count_block(" "), complex_.count_lines(" "))
    print("incidence 1->0 (rows = 0-cells, cols = 1-cells):")
    zero_cells = len(complex_.zero_cells)
    _write_matrix(dense_block(complex_.ends, zero_cells), dense_rows(complex_.ends, zero_cells))
    print(validate_surface(complex_, code).render())
    return EXIT_OK


def cmd_distance(args) -> int:
    h, file_special = load_hypermap(args.file)
    code = _build_quotient(h, args.kind, args.special, file_special)
    result = distance(code, budget=args.budget)  # its guards all run before any output
    print(f"kind: {code.kind}")
    print(f"n: {code.n}")
    print(f"k: {code.k}")
    print(f"budget: {result.budget}")
    if result.no_logicals:
        print("status: no-logical-operators")
        return EXIT_OK
    for name, weight in (("d_X", result.dx), ("d_Z", result.dz), ("d", result.d)):
        print(f"{name}: {weight if weight is not None else f'>{result.budget}'}")
    print("status: " + ("exact" if result.exact
                        else f"lower-bound (every logical operator has weight >= {result.budget + 1})"))
    return EXIT_OK


def cmd_verify(args) -> int:
    report = run_verification(args.trials, args.max_darts, args.seed)
    sys.stdout.write(report.render())
    return EXIT_OK if report.passed else EXIT_INVALID


def cmd_random(args) -> int:
    h = random_hypermap(args.darts, args.seed)
    sys.stdout.write(format_hypermap(h))
    return EXIT_OK


def cmd_export(args) -> int:
    h, file_special = load_hypermap(args.file)
    if args.format == "dot":
        sys.stdout.write(export_walsh_dot(h))
        return EXIT_OK
    if args.what == "hypermap":
        sys.stdout.write(export_json(h, special=file_special))
    elif args.what == "code":
        code = _build_quotient(h, args.kind or FACE, args.special, file_special)
        sys.stdout.write(export_json(code))  # export_json reads k before anything is written
    else:
        code = _build_quotient(h, FACE, args.special, file_special)
        sys.stdout.write(export_json(reduce_to_surface(h, code)))
    return EXIT_OK


def _int_in_range(low: int | None = None, high: int | None = None) -> Callable[[str], int]:
    """An option's type: ASCII ``-?[0-9]+`` read past its zero padding,
    >= ``low`` and <= ``high`` where given.  A ValueError refuses the text, and
    argparse's ArgumentTypeError, whose words argparse prints as they are, a
    value out of range."""
    def parse(text: str) -> int:
        digits = text.removeprefix("-")
        if not (text.isascii() and digits.isdigit()):
            raise ValueError(text)  # argparse: "invalid int value: '+3'"
        sign = text[:len(text) - len(digits)]
        significant = digits.lstrip("0") or "0"
        try:
            value = shown = int(sign + significant)
        except ValueError:  # int() refuses more than 4300 digits: past any bound on its side
            value = float(sign + "inf")
            shown = f"a {'negative ' if sign else ''}number of {len(significant)} digits"
        below = low is not None and value < low
        if below or (high is not None and value > high):
            from argparse import ArgumentTypeError
            raise ArgumentTypeError(f"must be at {'least' if below else 'most'} "
                                    f"{low if below else high}, got {shown}")
        if shown is not value:
            raise ValueError(text)  # unbounded on its side: "invalid int value"
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


# An option of a command: ``read`` is its list of choices or its type, which
# reads its one value.  nargs 0 marks a flag, which stores True, and nargs "+"
# the --special list: ``read`` reads its labels as one list by the rule of a
# file's special line (perm._read_labels), each in 1..MAX_DARTS and each once,
# to the set of 0-based darts that line gives; a ValueError names its first
# fault.  Whether each is a dart of the map, and one per edge or face, is
# checked when the code is built.
_Option = namedtuple("_Option", "read default required help nargs metavar",
                     defaults=(None, False, None, None, None))
_KIND = _Option([FACE, EDGE, FULL], required=True)
_SPECIAL = _Option(lambda labels: _read_labels(labels, MAX_DARTS), nargs="+", metavar="DART",
                   help="1-based special darts (overrides the file's choice)")

# command -> (handler, help, whether it takes FILE, its options by flag), each in
# argparse's order: the one description that _read_plain and build_parser read
COMMANDS = {
    "info": (cmd_info, "orbits, Euler characteristic, genus", True, {}),
    "dual": (lambda args: _cmd_transform(args, dual), "print the dual hypermap", True, {}),
    "tri-dual": (lambda args: _cmd_transform(args, triangle_dual),
                 "print the triangle dual", True, {}),
    "contrary": (lambda args: _cmd_transform(args, contrary),
                 "print the contrary map", True, {}),
    "code": (cmd_code, "build a CSS code", True, {"--kind": _KIND, "--special": _SPECIAL}),
    "reduce": (cmd_reduce, "surface-code cell complex of the face code", True,
               {"--special": _SPECIAL}),
    "distance": (cmd_distance, "minimum-distance search", True, {
        "--kind": _KIND, "--special": _SPECIAL,
        "--budget": _Option(_int_in_range(0), DEFAULT_DISTANCE_BUDGET,
                            help="maximum logical-operator weight to search "
                                 f"(default {DEFAULT_DISTANCE_BUDGET})"),
        "--allow-large": _Option(None, False, nargs=0, help="no effect; still accepted")}),
    "verify": (cmd_verify, "run the identity/equivalence suite on random hypermaps", False, {
        "--trials": _Option(_int_in_range(1), 500),
        "--max-darts": _Option(_int_in_range(1, MAX_DARTS), 10),
        "--seed": _Option(_int_in_range(), 7)}),
    "random": (cmd_random, "emit a random hypermap file", False, {
        "--darts": _Option(_int_in_range(1, MAX_DARTS), required=True),
        "--seed": _Option(_int_in_range(), 0)}),
    "export": (cmd_export, "DOT or JSON export", True, {
        "--format": _Option(["dot", "json"], required=True),
        "--what": _Option(["hypermap", "code", "complex"], "hypermap"),
        "--kind": _Option(_KIND.read, help="code kind when --what code (default face)"),
        "--special": _SPECIAL}),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of :data:`COMMANDS`.  It reads and words every argv
    that :func:`_read_plain` leaves, and prints help and usage errors."""
    import argparse

    class SpecialDarts(argparse.Action):
        """--special: its labels read as one list, as the plain reader reads them."""

        def __call__(self, parser, namespace, values, option_string=None):
            try:
                setattr(namespace, self.dest, _SPECIAL.read(values))
            except ValueError as exc:
                raise argparse.ArgumentError(self, f"special dart {exc}") from None

    parser = argparse.ArgumentParser(
        prog="hypermap-codes",
        description="CSS codes from combinatorial hypermaps: construction, "
                    "dualities, surface reduction, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, text, takes_file, options) in COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if takes_file:
            p.add_argument("file", metavar="FILE", help="hypermap text file")
        for flag, option in options.items():
            if option.nargs == 0:
                p.add_argument(flag, action="store_true", help=option.help)
            elif option.nargs == "+":
                p.add_argument(flag, nargs="+", action=SpecialDarts, metavar=option.metavar,
                               help=option.help)
            else:  # one value, through its choices or its type
                kind = "choices" if isinstance(option.read, list) else "type"
                p.add_argument(flag, default=option.default, required=option.required,
                               help=option.help, **{kind: option.read})
        p.set_defaults(func=handler)
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Built by the first argv that needs it, not at import, then reused.
    return build_parser()


def _read_plain(argv: list[str]) -> SimpleNamespace | None:
    """The namespace of a known command's plain ``argv``, read from
    :data:`COMMANDS`, or None.

    Plain: the command, then FILE where it takes one, then exact long options
    of the command, each at most once, each followed by its values up to the
    next token that starts with ``-``: one for an option with a type or
    choices, one or more for ``--special``, none for a flag; and every
    required option given.  The namespace holds what the command's subparser
    would store.  A list that ``--special``'s reader refuses exits through
    the subparser, as argparse reports it.  Any other argv, or a value that a
    type or a choice refuses, returns None: the top-level parser reads it and
    words the error as its version does.
    """
    entry = COMMANDS.get(argv[0]) if argv else None
    if entry is None:
        return None
    handler, _, takes_file, options = entry
    bounds = [i for i, token in enumerate(argv) if token.startswith("-")]
    if (bounds[0] if bounds else len(argv)) != 1 + takes_file:
        return None
    given = {}  # flag -> (its option, its values)
    for i, stop in zip(bounds, [*bounds[1:], len(argv)]):
        option, count = options.get(argv[i]), stop - i - 1
        if (option is None or argv[i] in given  # one value, none for a flag, 1+ for a list
                or (count < 1 if option.nargs == "+" else count != (option.nargs is None))):
            return None
        given[argv[i]] = option, argv[i + 1:stop]
    if any(option.required and flag not in given for flag, option in options.items()):
        return None
    values = {flag[2:].replace("-", "_"): option.default for flag, option in options.items()}
    if takes_file:
        values["file"] = argv[1]
    for flag, (option, tokens) in given.items():
        read = option.read
        if option.nargs == 0:
            value = True
        elif option.nargs == "+":
            try:
                value = read(tokens)
            except ValueError as exc:  # the subparser's usage and words, as argparse reports them
                (sub,) = [a for a in _shared_parser()._actions if a.dest == "command"]
                sub.choices[argv[0]].error(f"argument {flag}: special dart {exc}")
        elif isinstance(read, list):
            if tokens[0] not in read:
                return None
            value = tokens[0]
        else:
            try:
                value = read(tokens[0])
            except Exception:  # ValueError or, out of range, ArgumentTypeError: argparse words it
                return None
        values[flag[2:].replace("-", "_")] = value
    return SimpleNamespace(command=argv[0], func=handler, **values)


def _parse_args(argv: list[str]) -> SimpleNamespace | argparse.Namespace:
    """The namespace of ``argv``: :func:`_read_plain` reads a known command's
    plain argv, and the shared top-level parser any other."""
    return _read_plain(argv) or _shared_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    if (message := _usage_error(args)) is not None:
        _shared_parser().error(message)
    path = getattr(args, "file", None)
    try:
        status = args.func(args)
        sys.stdout.flush()  # so that a failing stdout raises here, not at exit
        return status
    except ParseError as exc:
        print(f"error: {path}:{exc.line}:{exc.col}: {exc.message}", file=sys.stderr)
        return EXIT_PARSE
    except UnreadableInput as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # stdout failed: devnull takes exit's flush (Python's SIGPIPE note)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a closed stdout is no error to report
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        return EXIT_OUTPUT
    except CommutationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
