"""Command line driver.

Three commands over one source file:

    mvsl run FILE [--stats] [--timings] [--no-move-opt] [--no-cow] [--oracle]
                  [--dump=ast|ir|types]
    mvsl check FILE
    mvsl diff FILE | mvsl diff [--seed=N] [--trials=N]

`run` prints the program's formatted final value, and nothing else, on
stdout; stats, phase timings and diagnostics go to stderr so output stays
scriptable.  Exit codes: 0 success or PASS, 1 syntax/type error, 2 runtime
trap, 3 differential FAIL, 4 usage error, 141 stdout closed before the
output was written.  A diff FAIL is a disagreement, or a configuration
that crashed (a leak, an internal error or a RecursionError), which its
result reports in a "crash" field instead of a traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .ast import Binding, Chain, Program, dump_ast
from .diagnostics import RuntimeTrap, SourceError, UsageError
from .difftest import differential_run, differential_seed_run
from .ir import apply_move_optimization, dump_ir, lower_program
from .lexer import tokenize
from .oracle import interpret_eager
from .parser import parse_program, parse_source
from .typechecker import check_program
from .vm import execute

# What a shell reports for a writer killed by a closed pipe: 128 + SIGPIPE.
EXIT_BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: A002 - argparse hook
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="mvsl", add_help=True)
    sub = p.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a program")
    run.add_argument("input")
    run.add_argument("--stats", action="store_true", help="print counter JSON to stderr")
    run.add_argument(
        "--timings", action="store_true", help="print each phase's seconds as JSON to stderr"
    )
    run.add_argument("--no-move-opt", action="store_true", help="keep every copy explicit")
    run.add_argument("--no-cow", action="store_true", help="copy arrays eagerly")
    run.add_argument("--oracle", action="store_true", help="use the naive interpreter")
    run.add_argument(
        "--dump",
        choices=["ast", "ir", "types"],
        help="print the chosen intermediate form instead of executing",
    )

    check = sub.add_parser("check", help="type-check only")
    check.add_argument("input")

    diff = sub.add_parser("diff", help="differential-test a file or generated programs")
    diff.add_argument("input", nargs="?")
    diff.add_argument("--seed", type=int, help="first generator seed")
    diff.add_argument("--trials", type=int, help="number of generated programs")
    return p


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as f:
            return f.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise UsageError(f"cannot read {path}: not valid UTF-8 at byte {e.start}") from e


def _dump_types(program: Program) -> str:
    """One line per struct and per chain binding, plus the final type."""
    tp = check_program(program)
    lines = []
    for name, info in tp.structs.items():
        fields = ", ".join(f"{f}: {t}" for f, t in zip(info.field_names, info.field_types))
        lines.append(f"struct {name} {{ {fields} }}")
    e = tp.program.entry
    while isinstance(e, Chain):
        for s in e.stmts:
            if isinstance(s, Binding) and s.name != "_":
                assert s.init.ty is not None
                lines.append(f"{s.name}: {s.init.ty}")
        e = e.tail
    lines.append(f"result: {tp.entry_type}")
    return "\n".join(lines)


def _timed(timings: dict[str, float], phase: str, f, *args):
    """f(*args), with its wall time in seconds filed under phase, also
    when it raises."""
    t = time.perf_counter()
    try:
        return f(*args)
    finally:
        timings[phase] = time.perf_counter() - t


def _cmd_run(args) -> int:
    if args.oracle and (args.dump == "ir" or args.no_cow or args.no_move_opt):
        raise UsageError("--oracle runs no IR: it takes no --dump=ir, --no-cow or --no-move-opt")
    if args.dump and (args.stats or args.timings or args.oracle or args.no_cow):
        raise UsageError(
            "--dump runs nothing: it takes no --stats, --timings, --oracle or --no-cow"
        )
    if args.dump in ("ast", "types") and args.no_move_opt:
        raise UsageError(f"--dump={args.dump} lowers nothing: it takes no --no-move-opt")
    source = _read(args.input)
    timings: dict[str, float] = {}
    try:
        if args.dump:
            return _dump(args, source)
        tokens = _timed(timings, "lex", tokenize, source)
        program = _timed(timings, "parse", parse_program, tokens, len(source))
        tp = _timed(timings, "check", check_program, program)
        if args.oracle:
            print(_timed(timings, "oracle", interpret_eager, tp))
            return 0
        ir = _timed(timings, "lower", lower_program, tp)
        if not args.no_move_opt:
            ir = _timed(timings, "move_opt", apply_move_optimization, ir)
        text, stats = _timed(timings, "execute", execute, ir, not args.no_cow, False, timings)
        print(text)
        if args.stats:
            print(stats.as_json(), file=sys.stderr)
        return 0
    except RuntimeTrap as t:
        print(f"{args.input}:{t.render(source)}", file=sys.stderr)
        return 2
    except SourceError as e:
        print(f"{args.input}:{e.render(source)}", file=sys.stderr)
        return 1
    finally:
        if args.timings:
            print(json.dumps(timings, separators=(",", ":")), file=sys.stderr)


def _dump(args, source: str) -> int:
    program = parse_source(source)
    if args.dump == "ast":
        print(dump_ast(program))
    elif args.dump == "types":
        print(_dump_types(program))
    else:
        ir = lower_program(check_program(program))
        if not args.no_move_opt:
            ir = apply_move_optimization(ir)
        print(dump_ir(ir))
    return 0


def _cmd_check(args) -> int:
    source = _read(args.input)
    try:
        check_program(parse_source(source))
    except SourceError as e:
        print(f"{args.input}:{e.render(source)}", file=sys.stderr)
        return 1
    print("ok")
    return 0


def _cmd_diff(args) -> int:
    reports = []
    if args.seed is not None or args.trials is not None:
        if args.input is not None:
            raise UsageError("diff takes a file or --seed/--trials, not both")
        seed = args.seed if args.seed is not None else 0
        trials = args.trials if args.trials is not None else 1
        if trials < 1:
            raise UsageError("--trials must be at least 1")
        reports = [differential_seed_run(s) for s in range(seed, seed + trials)]
    elif args.input is not None:
        source = _read(args.input)
        try:
            reports = [differential_run(parse_source(source))]
        except SourceError as e:
            print(f"{args.input}:{e.render(source)}", file=sys.stderr)
            return 1
    else:
        raise UsageError("diff needs a file or --seed/--trials")
    for r in reports:
        print(json.dumps(r, separators=(",", ":")))
    return 0 if all(r["status"] == "PASS" for r in reports) else 3


def main(argv: list[str]) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "check":
            return _cmd_check(args)
        return _cmd_diff(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 4


def entry() -> None:
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout early, as in `mvsl run ... | head -1`.
        # Point stdout at the null device so the flush at exit cannot
        # fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)
