"""Command-line front end: argument parsing and the subcommands.

Subcommands: info, dual, tri-dual, contrary, code, reduce, distance,
verify, random, export.  All user-facing labels are 1-based; every output
is deterministic for fixed inputs and seeds.

Argv takes one of two routes.  A known command's plain argv (FILE first
where the command takes one, then exact long options, each at most once,
with their values) is read by :func:`_read_plain` from the command's own
Action objects, which report a refusal of their own, as argparse does; any
other argv, or a value that an option's type or choices refuse, goes to the
top-level parser, which reads it and reports its errors.

Exit codes: 0 success, 1 output not written (stdout closed or failing),
2 parse error, 3 validation error, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections.abc import Callable, Iterable

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
from .gf2 import dense_rows
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
# Largest qubit count ``distance`` searches without --allow-large.
DISTANCE_QUBIT_CAP = 28


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
    except UnicodeDecodeError as exc:
        line_start = data.rfind(b"\n", 0, exc.start) + 1
        raise ParseError(data.count(b"\n", 0, exc.start) + 1, exc.start - line_start + 1,
                         f"not UTF-8 text ({exc.reason})") from exc
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

def _write_lines(lines: Iterable[str]) -> None:
    """Write each line as it is produced, so a dense block is never held whole."""
    write = sys.stdout.write
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
        print(_special_line(code.special))
    print("qubits: " + " ".join(str(i + 1) for i in code.qubit_labels))
    print(f"n: {code.n}")
    print(f"k: {k}")
    z_prefix = "e" if code.kind == EDGE else "f"
    print(f"H_X (rows X_v1..X_v{len(code.x_labels)}):")
    _write_lines(dense_rows(code.ends, len(code.x_labels)))
    print(f"H_Z (rows Z_{z_prefix}1..Z_{z_prefix}{len(code.z_labels)}):")
    _write_lines(dense_rows(code.sides, len(code.z_labels)))
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
    _write_lines(complex_.count_lines(" "))
    print("incidence 1->0 (rows = 0-cells, cols = 1-cells):")
    _write_lines(dense_rows(complex_.ends, len(complex_.zero_cells)))
    print(validate_surface(complex_, code).render())
    return EXIT_OK


def cmd_distance(args) -> int:
    h, file_special = load_hypermap(args.file)
    code = _build_quotient(h, args.kind, args.special, file_special)
    # reading k runs the commutation guard, before any output
    if code.k and code.n > DISTANCE_QUBIT_CAP and not args.allow_large:
        raise ValueError(f"distance search on {code.n} qubits exceeds the cap of "
                         f"{DISTANCE_QUBIT_CAP}; pass --allow-large to force it")
    result = distance(code, budget=args.budget)
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
    """An argparse ``type=``: ASCII ``-?[0-9]+`` read past its zero padding,
    >= ``low`` and <= ``high`` where given."""
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
        if low is not None and value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {shown}")
        if high is not None and value > high:
            raise argparse.ArgumentTypeError(f"must be at most {high}, got {shown}")
        if shown is not value:
            raise ValueError(text)  # unbounded on its side: "invalid int value"
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return parse


class _DistinctDarts(argparse.Action):
    """The --special action: reads its labels as one list by the rule of a file's
    special line (:func:`~hypermap_codes.perm._read_labels`), each in
    1..MAX_DARTS and each once, to the set of 0-based darts a file's line gives.
    Whether each is a dart of the map, and one per edge or face, is checked
    when the code is built."""

    def __call__(self, parser, namespace, values, option_string=None):
        try:
            darts = _read_labels(values, MAX_DARTS)
        except ValueError as exc:
            raise argparse.ArgumentError(self, f"special dart {exc}") from None
        setattr(namespace, self.dest, darts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypermap-codes",
        description="CSS codes from combinatorial hypermaps: construction, "
                    "dualities, surface reduction, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_file(p):
        return p.add_argument("file", metavar="FILE", help="hypermap text file")

    def add_special(p):
        return p.add_argument("--special", nargs="+", action=_DistinctDarts,
                              metavar="DART",
                              help="1-based special darts (overrides the file's choice)")

    p = sub.add_parser("info", help="orbits, Euler characteristic, genus")
    _plain_arguments(p, add_file(p))
    p.set_defaults(func=cmd_info)

    for name, op, blurb in [("dual", dual, "the dual hypermap"),
                            ("tri-dual", triangle_dual, "the triangle dual"),
                            ("contrary", contrary, "the contrary map")]:
        p = sub.add_parser(name, help=f"print {blurb}")
        _plain_arguments(p, add_file(p))
        p.set_defaults(func=lambda a, op=op: _cmd_transform(a, op))

    p = sub.add_parser("code", help="build a CSS code")
    _plain_arguments(p, add_file(p),
                     p.add_argument("--kind", choices=[FACE, EDGE, FULL], required=True),
                     add_special(p))
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("reduce", help="surface-code cell complex of the face code")
    _plain_arguments(p, add_file(p), add_special(p))
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("distance", help="minimum-distance search")
    _plain_arguments(
        p, add_file(p),
        p.add_argument("--kind", choices=[FACE, EDGE, FULL], required=True),
        add_special(p),
        p.add_argument("--budget", type=_int_in_range(0), default=DEFAULT_DISTANCE_BUDGET,
                       help="maximum logical-operator weight to search "
                            f"(default {DEFAULT_DISTANCE_BUDGET})"),
        p.add_argument("--allow-large", action="store_true",
                       help=f"search even with more than {DISTANCE_QUBIT_CAP} qubits"))
    p.set_defaults(func=cmd_distance)

    p = sub.add_parser("verify", help="run the identity/equivalence suite on random hypermaps")
    _plain_arguments(p, p.add_argument("--trials", type=_int_in_range(1), default=500),
                     p.add_argument("--max-darts", type=_int_in_range(1, MAX_DARTS), default=10),
                     p.add_argument("--seed", type=_int_in_range(), default=7))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("random", help="emit a random hypermap file")
    _plain_arguments(p,
                     p.add_argument("--darts", type=_int_in_range(1, MAX_DARTS), required=True),
                     p.add_argument("--seed", type=_int_in_range(), default=0))
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("export", help="DOT or JSON export")
    _plain_arguments(
        p, add_file(p),
        p.add_argument("--format", choices=["dot", "json"], required=True),
        p.add_argument("--what", choices=["hypermap", "code", "complex"], default="hypermap"),
        p.add_argument("--kind", choices=[FACE, EDGE, FULL],
                       help="code kind when --what code (default face)"),
        add_special(p))
    p.set_defaults(func=cmd_export)

    parser.commands = sub.choices  # command name -> its subparser, read by _parse_args
    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    # Built by the first main() call, not at import, then reused.  It binds the
    # cmd_* functions once, so rebinding one later does not reach main().
    return build_parser()


def _plain_arguments(p: argparse.ArgumentParser, *actions: argparse.Action) -> None:
    """Keep on ``p`` the Action objects of its arguments that :func:`_read_plain`
    reads: its FILE action (None for a command without one) and its options
    by option string."""
    positional = [action for action in actions if not action.option_strings]
    p.plain = (positional[0] if positional else None,
               {option: action for action in actions for option in action.option_strings})


# the value tokens each nargs of a plain option takes
_VALUE_COUNTS = {None: range(1, 2), 0: range(1), "+": range(1, sys.maxsize)}


def _read_plain(subparser: argparse.ArgumentParser, argv: list[str],
                namespace: argparse.Namespace) -> argparse.Namespace | None:
    """The namespace ``subparser`` reads from a plain ``argv`` into ``namespace``, or None.

    Plain: FILE first where the command takes one, then exact long options
    of the command, each at most once, each followed by its values up to
    the next token that starts with ``-``: one for an option that takes a
    value, one or more for ``--special``, none for a flag; and every
    required option given.  Each value goes through its action's ``type``
    and ``choices`` and then the action object, as argparse's
    ``_get_values`` sends it.  An action's refusal exits through
    ``subparser.error``, as argparse reports it.  Any other argv, or a value
    that a type or a choice refuses, returns None: the top-level parser reads
    it and words the error as its version does.
    """
    file_action, options = subparser.plain
    start = 0 if file_action is None else 1  # FILE's tokens
    bounds = [i for i, token in enumerate(argv) if token.startswith("-")]
    if (bounds[0] if bounds else len(argv)) != start:
        return None
    given = {file_action: (None, argv[:1])} if start else {}  # action -> (option, values)
    for i, stop in zip(bounds, [*bounds[1:], len(argv)]):
        action = options.get(argv[i])
        if (action is None or action in given
                or stop - i - 1 not in _VALUE_COUNTS.get(action.nargs, ())):
            return None
        given[action] = (argv[i], argv[i + 1:stop])
    if any(action.required and action not in given for action in options.values()):
        return None
    for action in options.values():  # FILE, always given, stores its own value
        setattr(namespace, action.dest, action.default)
    namespace.func = subparser.get_default("func")
    try:
        for action, (option, values) in given.items():
            if action.type is not None:
                values = list(map(action.type, values))
            if action.choices is not None and not all(v in action.choices for v in values):
                return None
            action(subparser, namespace, values[0] if action.nargs is None else values, option)
    except argparse.ArgumentError as exc:  # an action's refusal: only actions raise it
        subparser.error(str(exc))
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return namespace


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """``parser.parse_args(argv)``: :func:`_read_plain` reads a known command's
    plain argv, and ``parser`` itself reads any other argv."""
    args = None
    if argv and argv[0] in parser.commands:
        args = _read_plain(parser.commands[argv[0]], argv[1:], argparse.Namespace(command=argv[0]))
    return parser.parse_args(argv) if args is None else args


def main(argv=None) -> int:
    parser = _shared_parser()
    args = _parse_args(parser, sys.argv[1:] if argv is None else list(argv))
    if (message := _usage_error(args)) is not None:
        parser.error(message)
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
