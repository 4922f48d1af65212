"""Command-line entry point.

Exit codes: 0 success (including BothStuck verdicts), 1 source diagnostics,
2 Disagree, 3 Budget (out of fuel), 4 internal error, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fg_ast as fg
from . import fg_interp
from . import tl_ast as tl
from . import tl_interp
from .diagnostics import FgError
from .fg_parser import parse_program, print_expr, print_program
from .gen import GenConfig, gen_program
from .outcome import StuckOutcome, Value
from .relate import (
    AGREE, BOTH_STUCK, BUDGET, DEFAULT_EVAL_FUEL, DEFAULT_RELATION_FUEL,
    DISAGREE, diff_run, program_hash, verdict_json,
)
from .translate import require_translation

EXIT_OK = 0
EXIT_DIAGNOSTICS = 1
EXIT_DISAGREE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _non_negative(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {n}")
    return n


def _build_parser():
    p = _Parser(prog="fgdict",
                description="Compile a Go-like structurally-typed core language "
                            "to an untyped functional target via dictionary "
                            "passing, and compare their behavior.")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        """A subcommand on FG programs, in core or extension mode."""
        sp = sub.add_parser(name, **kw)
        sp.add_argument("--ext", action="store_true",
                        help="enable int/bool primitives and var bindings")
        return sp

    sp = add("parse", help="parse a source file and echo its canonical form")
    sp.add_argument("file")

    sp = add("check", help="report well-formedness and type diagnostics")
    sp.add_argument("file")

    sp = add("compile", help="translate a source file to the target language")
    sp.add_argument("file")
    sp.add_argument("-o", "--output", metavar="OUT.tl")
    sp.add_argument("--hoist-helpers", action="store_true",
                    help="emit shared upcast/downcast helpers as named bindings")

    sp = add("run-fg", help="evaluate main under the source semantics")
    sp.add_argument("file")
    sp.add_argument("--steps", type=_non_negative, default=DEFAULT_EVAL_FUEL)
    sp.add_argument("--trace", action="store_true")

    sp = sub.add_parser("run-tl", help="evaluate a compiled target-language file")
    sp.add_argument("file")
    sp.add_argument("--steps", type=_non_negative, default=DEFAULT_EVAL_FUEL)
    sp.add_argument("--trace", action="store_true")

    sp = add("diff", help="run both semantics and relate the results")
    sp.add_argument("file")
    sp.add_argument("--steps", type=_non_negative, default=DEFAULT_EVAL_FUEL)
    sp.add_argument("--rel-fuel", type=_non_negative, default=DEFAULT_RELATION_FUEL)
    sp.add_argument("--json", action="store_true")

    sp = add("fuzz", help="generate random programs and diff each one")
    sp.add_argument("--count", type=_non_negative, default=100)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--steps", type=_non_negative, default=DEFAULT_EVAL_FUEL)
    sp.add_argument("--rel-fuel", type=_non_negative, default=DEFAULT_RELATION_FUEL)
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--keep-failures", metavar="DIR",
                    help="write programs with Disagree verdicts to DIR")
    return p


def _mode(args):
    return fg.EXT if args.ext else fg.CORE


def _read(path):
    """The text of the source file at `path`.  Raises OSError if it cannot
    be read or is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as err:
        raise OSError(f"{path}: not UTF-8 ({err.reason} at byte {err.start})") from err
    # As Go allows, a byte order mark at the start of the file is not read.
    return text.removeprefix("\ufeff")


def _load(args):
    return parse_program(_read(args.file), mode=_mode(args), filename=args.file)


def _print_diags(err: FgError):
    for d in err.diagnostics:
        print(str(d), file=sys.stderr)


def _cmd_parse(args):
    prog = _load(args)
    sys.stdout.write(print_program(prog))
    return EXIT_OK


def _cmd_check(args):
    res = require_translation(_load(args))
    print(f"ok: main has type {res.main_type}")
    return EXIT_OK


def _cmd_compile(args):
    prog = _load(args)
    res = require_translation(prog, hoist_helpers=args.hoist_helpers)
    text = tl.print_program(res.tl_program)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _report_eval(out, value_printer):
    if isinstance(out, Value):
        print(f"{value_printer(out.value)}")
        print(f"-- {out.steps} steps", file=sys.stderr)
        return EXIT_OK
    if isinstance(out, StuckOutcome):
        print(f"stuck after {out.steps} steps: {out.reason}: {out.detail}",
              file=sys.stderr)
        return EXIT_OK
    print(f"out of fuel after {out.steps} steps", file=sys.stderr)
    return EXIT_BUDGET


def _cmd_run_fg(args):
    prog = _load(args)
    require_translation(prog)
    trace = None
    if args.trace:
        trace = lambda n, rule, text: print(f"[{n}] {rule}: {text}", file=sys.stderr)
    out = fg_interp.fg_eval(prog.table, prog.main, args.steps, trace=trace)
    return _report_eval(out, print_expr)


def _cmd_run_tl(args):
    prog = tl.parse_program(_read(args.file), filename=args.file)
    problems = tl.validate_program(prog)
    if problems:
        for msg in problems:
            print(f"{args.file}: {msg}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    trace = None
    if args.trace:
        trace = lambda n, rule, text: print(f"[{n}] {rule}: {text}", file=sys.stderr)
    out = tl_interp.run_program(prog, args.steps, trace=trace)
    return _report_eval(out, tl.print_expr)


def _emit_verdict(prog, verdict, args, seed=None):
    if args.json:
        print(json.dumps(verdict_json(prog, verdict, args.steps, args.rel_fuel,
                                      seed=seed)))
        return
    line = f"{verdict.kind}"
    if verdict.kind == AGREE:
        line += f": {print_expr(verdict.fg_value)}"
    elif verdict.kind == BOTH_STUCK:
        line += f": fg {verdict.fg_reason}, tl {verdict.tl_reason}"
    elif verdict.detail:
        line += f": {verdict.detail}"
    line += f" (fg {verdict.fg_steps} steps, tl {verdict.tl_steps} steps)"
    if seed is not None:
        line = f"seed {seed}: {line}"
    print(line)


def _cmd_diff(args):
    prog = _load(args)
    verdict = diff_run(prog, fuel=args.steps, rel_fuel=args.rel_fuel)
    _emit_verdict(prog, verdict, args)
    return verdict.exit_code()


def _cmd_fuzz(args):
    worst = EXIT_OK
    counts = {AGREE: 0, BOTH_STUCK: 0, DISAGREE: 0, BUDGET: 0}
    for i in range(args.count):
        seed = args.seed + i
        prog = gen_program(GenConfig(seed=seed, mode=_mode(args)))
        verdict = diff_run(prog, fuel=args.steps, rel_fuel=args.rel_fuel)
        counts[verdict.kind] += 1
        _emit_verdict(prog, verdict, args, seed=seed)
        if verdict.kind == DISAGREE and args.keep_failures:
            os.makedirs(args.keep_failures, exist_ok=True)
            mode = "ext-" if args.ext else ""
            path = os.path.join(args.keep_failures,
                                f"seed-{seed}-{mode}{program_hash(prog)}.fg")
            with open(path, "w", encoding="utf-8") as f:
                f.write(print_program(prog))
        worst = max(worst, verdict.exit_code())
    summary = ", ".join(f"{k} {v}" for k, v in counts.items())
    print(f"-- {args.count} programs: {summary}", file=sys.stderr)
    return worst


_COMMANDS = {
    "parse": _cmd_parse,
    "check": _cmd_check,
    "compile": _cmd_compile,
    "run-fg": _cmd_run_fg,
    "run-tl": _cmd_run_tl,
    "diff": _cmd_diff,
    "fuzz": _cmd_fuzz,
}


def cli_dispatch(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return e.code if isinstance(e.code, int) else EXIT_USAGE
    try:
        return _COMMANDS[args.command](args)
    except FgError as err:
        _print_diags(err)
        return EXIT_DIAGNOSTICS
    except OSError as err:
        print(f"fgdict: {err}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except Exception as err:  # internal error
        print(f"fgdict: internal error: {err!r}", file=sys.stderr)
        return EXIT_INTERNAL


def main():
    raise SystemExit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
