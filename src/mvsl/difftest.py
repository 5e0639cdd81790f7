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
from .typechecker import check_program
from .vm import execute

_CONFIGS = (
    ("vm cow=off move_opt=off", False, False),
    ("vm cow=on move_opt=off", True, False),
    ("vm cow=off move_opt=on", False, True),
    ("vm cow=on move_opt=on", True, True),
)


def differential_run(program: Program) -> dict:
    """Run one program under the oracle and all four VM configurations.

    Returns {"program", "results": [{"config", "output", "trap",
    "stats"}], "status"}; status is PASS iff every configuration
    produced the same formatted value or the same trap kind.
    """
    source = pretty_program(program)
    tp = check_program(program)
    results: list[dict] = []

    try:
        out: str | None = interpret_eager(tp)
        trap: str | None = None
    except RuntimeTrap as t:
        out, trap = None, t.code
    results.append({"config": "oracle", "output": out, "trap": trap, "stats": None})

    base = lower_program(tp)
    optimized = apply_move_optimization(base)
    for name, cow, opt in _CONFIGS:
        ir = optimized if opt else base
        try:
            text, stats = execute(ir, cow=cow)
            results.append(
                {"config": name, "output": text, "trap": None, "stats": stats.as_dict()}
            )
        except RuntimeTrap as t:
            results.append({"config": name, "output": None, "trap": t.code, "stats": None})

    outcomes = {(r["output"], r["trap"]) for r in results}
    return {
        "program": source,
        "results": results,
        "status": "PASS" if len(outcomes) == 1 else "FAIL",
    }


def differential_seed_run(seed: int) -> dict:
    """Generate the program for one seed and differential-test it."""
    return differential_run(generate_program(GenConfig(seed)))
