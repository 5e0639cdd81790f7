"""Differential harness: the naive interpreter versus the VM under
every combination of copy-on-write and move optimization.

A report is plain data; disagreement is a FAIL status, never an
exception, so harness users can collect mismatches.
"""

from __future__ import annotations

from .ast import Program, pretty_program
from .diagnostics import RuntimeTrap
from .generator import GenConfig, generate_program
from .ir import apply_move_optimization, lower_program
from .oracle import interpret_eager
from .parser import parse_source
from .typechecker import check_program
from .vm import execute

_CONFIGS = (
    ("vm cow=off move_opt=off", False, False),
    ("vm cow=on move_opt=off", True, False),
    ("vm cow=off move_opt=on", False, True),
    ("vm cow=on move_opt=on", True, True),
)


def differential_run(program: Program, source: str | None = None) -> dict:
    """Run one program under the oracle and all four VM configurations.

    Returns {"program", "results": [{"config", "output", "trap", "span",
    "stats"}], "status"}; program is source, by default program printed,
    trap is the trap kind and span its [start, end] source offsets, both
    None for a run that does not trap.  status is PASS iff every
    configuration produced the same formatted value or the same trap kind
    at the same span.
    """
    if source is None:
        source = pretty_program(program)
    tp = check_program(program)
    results: list[dict] = []

    try:
        results.append(_row("oracle", interpret_eager(tp), None, None))
    except RuntimeTrap as t:
        results.append(_row("oracle", None, t, None))

    base = lower_program(tp)
    optimized = apply_move_optimization(base)
    for name, cow, opt in _CONFIGS:
        ir = optimized if opt else base
        try:
            text, stats = execute(ir, cow=cow)
            results.append(_row(name, text, None, stats.as_dict()))
        except RuntimeTrap as t:
            results.append(_row(name, None, t, None))

    outcomes = {(r["output"], r["trap"], tuple(r["span"] or ())) for r in results}
    return {
        "program": source,
        "results": results,
        "status": "PASS" if len(outcomes) == 1 else "FAIL",
    }


def _row(config: str, output: str | None, trap: RuntimeTrap | None, stats: dict | None) -> dict:
    span = trap and [trap.span.start, trap.span.end]
    return {"config": config, "output": output, "trap": trap and trap.code, "span": span,
            "stats": stats}


def differential_seed_run(seed: int) -> dict:
    """Generate the program for one seed and differential-test it as
    parsed from its printed form, so that every span, a trap's too,
    points into the report's program."""
    source = pretty_program(generate_program(GenConfig(seed)))
    return differential_run(parse_source(source), source)
