"""Differential harness: the naive interpreter versus the VM under
every combination of copy-on-write and move optimization.

A report is plain data; disagreement is a FAIL status, never an
exception, so harness users can collect mismatches.  So is a crash: a
leak or refcount imbalance that execute asserts, any other internal
error, or a RecursionError, in the oracle, in lowering or in the VM.
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
    None for a run that does not trap.  A configuration that crashes
    instead has output, trap, span and stats None and a "crash" key, the
    first line of the exception; a crash in lowering or move elision is
    reported by every VM configuration.  status is PASS iff nothing
    crashed and every configuration produced the same formatted value or
    the same trap kind at the same span.  Only a program that does not
    type-check raises, a SourceError, as check_program does.
    """
    if source is None:
        source = pretty_program(program)
    tp = check_program(program)
    results = [_outcome("oracle", lambda: (interpret_eager(tp), None))]
    try:
        base = lower_program(tp)
        optimized = apply_move_optimization(base)
    except Exception as e:  # noqa: BLE001 - a crash is a FAIL row
        results += [_crash(name, e) for name, _, _ in _CONFIGS]
    else:
        for name, cow, opt in _CONFIGS:
            ir = optimized if opt else base
            results.append(_outcome(name, lambda: _vm_run(ir, cow)))

    outcomes = {(r["output"], r["trap"], tuple(r["span"] or ())) for r in results}
    crashed = any("crash" in r for r in results)
    return {
        "program": source,
        "results": results,
        "status": "PASS" if len(outcomes) == 1 and not crashed else "FAIL",
    }


def _vm_run(ir, cow: bool) -> tuple[str, dict]:
    text, stats = execute(ir, cow=cow)
    return text, stats.as_dict()


def _outcome(config: str, run) -> dict:
    """The result row of run(), which returns (output, stats)."""
    try:
        output, stats = run()
    except RuntimeTrap as t:
        return _row(config, None, t, None)
    except Exception as e:  # noqa: BLE001 - a crash is a FAIL row
        return _crash(config, e)
    return _row(config, output, None, stats)


def _row(config: str, output: str | None, trap: RuntimeTrap | None, stats: dict | None) -> dict:
    span = trap and [trap.span.start, trap.span.end]
    return {"config": config, "output": output, "trap": trap and trap.code, "span": span,
            "stats": stats}


def _crash(config: str, e: Exception) -> dict:
    row = _row(config, None, None, None)
    row["crash"] = f"{type(e).__name__}: {e}".splitlines()[0]
    return row


def differential_seed_run(seed: int) -> dict:
    """Generate the program for one seed and differential-test it as
    parsed from its printed form, so that every span, a trap's too,
    points into the report's program."""
    source = pretty_program(generate_program(GenConfig(seed)))
    return differential_run(parse_source(source), source)
