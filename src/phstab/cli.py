"""Command-line front end.

Subcommands:

    validate    check that a file is a complex with monotone functions
    order       print the canonical simplex order of one function
    diagram     print the persistence diagram of one function
    bottleneck  exact bottleneck distance between two diagrams
    crossings   where the interpolated simplex order changes
    verify      run the full stability certification pipeline
    gen         write a random instance file

Exit status 0 means success, 1 means bad input or usage, and 2 is reserved
for internal-consistency failures (a certified inequality or an
order-invariance check failing), which indicate a bug rather than bad input.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .bottleneck import bottleneck_bijection, bottleneck_diagonal
from .complexes import find_duplicate_value, validate_filtration
from .errors import InternalProofViolation, PhstabError
from .generate import GeneratorConfig, generate_instance
from .instances import InstanceFile, format_instance, parse_instance
from .interpolation import crossing_times, sup_norm
from .ordering import total_order
from .persistence import diagram, format_diagram
from .rational import approx_string, format_value
from .stability import verify_stability


class _Exit(Exception):
    """Carries an exit status and message out of argparse without killing
    the process, so run_command can stay a pure function."""

    def __init__(self, status: int, message: str = ""):
        self.status = status
        self.message = message
        super().__init__(message)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _Exit(1, f"{self.format_usage().rstrip()}\nerror: {message}")

    def exit(self, status=0, message=None):
        raise _Exit(0 if status == 0 else 1, (message or "").rstrip())

    def print_help(self, file=None):
        raise _Exit(0, self.format_help().rstrip())


def _ranged(convert, option: str, low, high=None):
    """Argument type that rejects values outside [low, high].

    Text ``convert`` cannot read gets argparse's usual usage error; a value
    out of range stops parsing with a one-line message naming ``option``.
    """
    def parse(text):
        value = convert(text)
        if not (low <= value and (high is None or value <= high)):
            rule = f"at least {low}" if high is None else f"in [{low}, {high}]"
            raise _Exit(1, f"error: {option} must be {rule}, got {text}")
        return value

    parse.__name__ = convert.__name__  # argparse names the type in its errors
    return parse


def _add_generator_options(p) -> None:
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument(
        "--vertices", type=_ranged(int, "--vertices", 1), default=5, metavar="V"
    )
    p.add_argument(
        "--max-dim", type=_ranged(int, "--max-dim", 0), default=3, metavar="D"
    )
    p.add_argument(
        "--prob", type=_ranged(float, "--prob", 0, 1), default=0.5, metavar="P"
    )


def _fmt_t(t) -> str:
    exact = format_value(t)
    return f"{exact} (~{approx_string(t)})" if "/" in exact else exact


def _pick_function(inst: InstanceFile, k: int):
    if not 0 <= k < len(inst.functions):
        raise PhstabError(
            f"file defines {len(inst.functions)} function(s); there is no f{k}"
        )
    return inst.functions[k]


def _two_functions(inst: InstanceFile):
    if len(inst.functions) < 2:
        raise PhstabError(
            "this command needs two functions; add a second value column"
        )
    return inst.functions[0], inst.functions[1]


def _cmd_validate(args) -> tuple[int, str]:
    inst = parse_instance(args.file)
    problems = []
    for k, f in enumerate(inst.functions):
        for issue in validate_filtration(inst.complex, f):
            problems.append(f"f{k}: {issue}")
    if problems:
        return 1, "\n".join(problems)
    lines = [
        f"complex: {len(inst.complex)} simplices, dimension {inst.complex.dim}"
    ]
    for k, f in enumerate(inst.functions):
        distinct = find_duplicate_value(f) is None
        tag = "all values distinct" if distinct else "tied values"
        lines.append(f"f{k}: monotone, {tag}")
    return 0, "\n".join(lines)


def _cmd_order(args) -> tuple[int, str]:
    inst = parse_instance(args.file)
    f = _pick_function(inst, args.function)
    lines = []
    for pos, cpos in enumerate(total_order(inst.complex, f)):
        s = inst.complex.simplices[cpos]
        lines.append(f"{pos} {s} {format_value(f.values[cpos])}")
    return 0, "\n".join(lines)


def _cmd_diagram(args) -> tuple[int, str]:
    inst = parse_instance(args.file)
    f = _pick_function(inst, args.function)
    diag = diagram(inst.complex, f)
    return 0, format_diagram(inst.complex, diag, args.dim)


def _cmd_bottleneck(args) -> tuple[int, str]:
    if args.file2 is None:
        if args.function is not None:  # one file compares its two columns
            raise _Exit(1, "error: --function needs two files")
        inst = parse_instance(args.file)
        f0, f1 = _two_functions(inst)
        D0 = diagram(inst.complex, f0)
        D1 = diagram(inst.complex, f1)
        bound = sup_norm(f0, f1)  # by the stability theorem, for both variants
    else:
        inst0 = parse_instance(args.file)
        inst1 = parse_instance(args.file2)
        k = args.function or 0
        D0 = diagram(inst0.complex, _pick_function(inst0, k))
        D1 = diagram(inst1.complex, _pick_function(inst1, k))
        bound = None  # two complexes: no bound is known
    distance = bottleneck_diagonal if args.diagonal else bottleneck_bijection
    dist, matching = distance(D0, D1, bound=bound, witness=args.matching)
    lines = [f"distance {format_value(dist)}"]
    if args.matching:
        for i, j in matching.pairs:
            p = "diagonal" if i is None else D0.points[i]
            q = "diagonal" if j is None else D1.points[j]
            dim = D1.points[j].dim if i is None else D0.points[i].dim
            lines.append(f"{dim} {p} -> {q}")
    return 0, "\n".join(lines)


def _cmd_crossings(args) -> tuple[int, str]:
    inst = parse_instance(args.file)
    f0, f1 = _two_functions(inst)
    schedule = crossing_times(f0, f1)
    K = inst.complex
    lines = [f"crossings {len(schedule)}"]
    for t, pairs in zip(schedule.times, schedule.pairs_at):
        names = " ".join(
            f"{{{K.simplices[i]}}}={{{K.simplices[j]}}}" for i, j in pairs
        )
        lines.append(f"t = {_fmt_t(t)}: {names}")
    return 0, "\n".join(lines)


def _report_lines(report, machine: bool) -> list[str]:
    if machine:
        return [
            f"sup_norm={format_value(report.sup_norm_value)}",
            f"crossings={len(report.schedule)}",
            f"intervals={len(report.schedule) + 1}",
            f"composed_cost={format_value(report.composed_cost)}",
            f"exact_bottleneck={format_value(report.exact_bottleneck)}",
            "holds=true",
        ]
    lines = [
        f"sup norm: {format_value(report.sup_norm_value)}",
        f"crossings: {len(report.schedule)}",
    ]
    for cert in report.certificates:
        share = format_value(cert.share)
        lines.append(
            f"interval [{_fmt_t(cert.t_lo)}, {_fmt_t(cert.t_hi)}]: "
            f"cost {share} <= bound {share}"
        )
    lines.append(f"composed matching cost: {format_value(report.composed_cost)}")
    lines.append(f"exact bottleneck: {format_value(report.exact_bottleneck)}")
    lines.append(
        f"HOLDS: exact bottleneck {format_value(report.exact_bottleneck)} "
        f"<= sup norm {format_value(report.sup_norm_value)}"
    )
    return lines


def _cmd_verify(args) -> tuple[int, str]:
    if args.random:
        lines = []
        for trial in range(args.trials):
            cfg = GeneratorConfig(
                seed=args.seed + trial,
                num_vertices=args.vertices,
                max_dimension=args.max_dim,
                fill_prob=args.prob,
            )
            inst = generate_instance(cfg)
            report = verify_stability(inst.complex, *inst.functions)
            lines.append(
                f"trial {trial}: {len(inst.complex)} simplices, "
                f"{len(report.schedule)} crossings, "
                f"exact {format_value(report.exact_bottleneck)} <= "
                f"sup {format_value(report.sup_norm_value)} HOLDS"
            )
        lines.append(f"{args.trials} trial(s): all hold")
        return 0, "\n".join(lines)
    if args.file is None:
        raise _Exit(1, "error: verify needs an instance file (or --random)")
    inst = parse_instance(args.file)
    f0, f1 = _two_functions(inst)
    report = verify_stability(inst.complex, f0, f1)
    return 0, "\n".join(_report_lines(report, args.machine))


def _cmd_gen(args) -> tuple[int, str]:
    cfg = GeneratorConfig(
        seed=args.seed,
        num_vertices=args.vertices,
        max_dimension=args.max_dim,
        fill_prob=args.prob,
        value_range=args.value_range,
        unique=not args.ties,
    )
    inst = generate_instance(cfg)
    text = format_instance(inst)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        return 0, f"wrote {args.out}: {len(inst.complex)} simplices, 2 functions"
    return 0, text.rstrip("\n")


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parsing leaves no
    state in it, as every call gets a fresh namespace."""
    parser = _Parser(
        prog="phstab",
        description=(
            "Persistence diagrams of piecewise-constant filtrations, exact "
            "bottleneck distances, and certified stability checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("order", help="print the simplex order of one function")
    p.add_argument("file")
    p.add_argument("--function", type=int, default=0, metavar="K")
    p.set_defaults(handler=_cmd_order)

    p = sub.add_parser("diagram", help="print a persistence diagram")
    p.add_argument("file")
    p.add_argument("--function", type=int, default=0, metavar="K")
    p.add_argument("--dim", type=int, default=None, metavar="D")
    p.set_defaults(handler=_cmd_diagram)

    p = sub.add_parser(
        "bottleneck",
        help="bottleneck distance between two functions' diagrams",
        description=(
            "With one file, compares its two value columns.  With two "
            "files, compares function K (default 0) of each."
        ),
    )
    p.add_argument("file")
    p.add_argument("file2", nargs="?", default=None)
    p.add_argument("--function", type=int, default=None, metavar="K")
    p.add_argument(
        "--diagonal",
        action="store_true",
        help="allow matching points to the diagonal",
    )
    p.add_argument(
        "--matching", action="store_true", help="print the optimal matching"
    )
    p.set_defaults(handler=_cmd_bottleneck)

    p = sub.add_parser(
        "crossings", help="parameters where the interpolated order changes"
    )
    p.add_argument("file")
    p.set_defaults(handler=_cmd_crossings)

    p = sub.add_parser(
        "verify",
        help="certify the stability bound for the two functions of a file",
    )
    p.add_argument("file", nargs="?", default=None)
    p.add_argument(
        "--machine", action="store_true", help="key=value output for scripts"
    )
    p.add_argument(
        "--random",
        action="store_true",
        help="verify randomly generated instances instead of a file",
    )
    p.add_argument(
        "--trials", type=_ranged(int, "--trials", 1), default=10, metavar="N"
    )
    _add_generator_options(p)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("gen", help="generate a random instance file")
    _add_generator_options(p)
    p.add_argument(
        "--value-range",
        type=_ranged(int, "--value-range", 1),
        default=4,
        metavar="R",
    )
    p.add_argument(
        "--ties",
        action="store_true",
        help="skip the uniqueness offsets (values may repeat)",
    )
    p.add_argument("--out", default=None, metavar="PATH")
    p.set_defaults(handler=_cmd_gen)

    return parser


def run_command(argv) -> tuple[int, str]:
    """Run one CLI invocation; returns (exit status, output text)."""
    try:
        args = build_parser().parse_args(list(argv))
        return args.handler(args)
    except _Exit as stop:
        return stop.status, stop.message
    except InternalProofViolation as exc:
        return 2, f"internal consistency failure: {exc}"
    except PhstabError as exc:
        return 1, f"error: {exc}"
    except OSError as exc:
        return 1, f"error: {exc}"


def main(argv=None) -> int:
    status, text = run_command(sys.argv[1:] if argv is None else argv)
    if text:
        print(text, file=sys.stdout if status == 0 else sys.stderr)
    return status


if __name__ == "__main__":
    sys.exit(main())
