"""Timed passes over a workload, their output checks, and the counters.

Four phases run over one batch per pass:

- compile: tokenize, parse_program, check_program, lower_program,
  apply_move_optimization (what `mvsl run` does before executing);
- execute: execute(ir, cow=True) on the move-optimized IR;
- diff: differential_run, after generate_program on diff_sweep;
- extra (traced runs only): verify_linearity and execute(debug=True).

Traced runs add a scaling pass that times the same layers on `base` and
on `doubled`.  Every call into the package goes through a tracer, which
records a span in traced blocks and only calls through otherwise.
"""

from __future__ import annotations

import dataclasses
import gc
from collections import defaultdict
from contextlib import nullcontext
from statistics import mean, median
from time import perf_counter

from mvsl import (
    RuntimeTrap,
    apply_move_optimization,
    check_program,
    differential_run,
    execute,
    generate_program,
    interpret_eager,
    lower_program,
    parse_program,
    tokenize,
)
from mvsl.ir import CondBr, Copy, verify_linearity
from mvsl.types import ArrayType, FuncType, StructType

from calibration import CAL_REF, calibrate
from tracing import NullTracer, Tracer, traced_difftest
from workloads import Input, Workload

CONFIGS = {
    "vm cow=on move_opt=on": "cow_opt",
    "vm cow=on move_opt=off": "cow_noopt",
    "vm cow=off move_opt=on": "nocow_opt",
    "vm cow=off move_opt=off": "nocow_noopt",
}
PHASES = ("compile", "execute", "diff")
# The layers whose self time is read from each traced block.
LAYERS = {
    "compile": ("lexer", "parser", "typechecker", "ir.lower", "ir.move_opt"),
    "diff": (
        "generator",
        "ast.pretty",
        "oracle",
        *(f"vm.{cfg}" for cfg in CONFIGS.values()),
        "difftest",
    ),
    "extra": ("ir.verify", "vm.debug"),
}
SCALED = ("lexer", "parser", "typechecker", "ir.lower", "ir.move_opt", "vm.cow_opt", "oracle")

# (block, traced, share of --seconds) and the number of rounds the blocks
# are interleaved over, so that drift in machine speed reaches every phase
# alike.  Untraced runs split the time evenly between the three phases;
# traced runs also time the phases untraced, to show the tracing
# overhead, and use fewer rounds because a debug-mode pass can take
# over a second.
UNTRACED_PLAN = ([(phase, False, 1 / 3) for phase in PHASES], 6)
TRACED_PLAN = (
    [(phase, False, 0.4 / 3) for phase in PHASES]
    + [(phase, True, 0.35 / 3) for phase in PHASES]
    + [("extra", True, 0.1), ("scale", True, 0.15)],
    3,
)

_NULL = NullTracer()

def settle_heap() -> None:
    """Collect, then freeze what is left: the benchmark's own inputs, IR
    and spans.  Python's cyclic collector walks every live container, so
    unfrozen it would bill the passes for the harness's heap (about 25 %
    more compile time on diff_sweep) instead of for their own garbage."""
    gc.collect()
    gc.freeze()


def count_nodes(program) -> int:
    """AST nodes reachable through the fields that take part in equality
    (checker annotations do not)."""
    n = 0
    stack = [program]
    while stack:
        x = stack.pop()
        if isinstance(x, (list, tuple)):
            stack.extend(x)
        elif dataclasses.is_dataclass(x) and type(x).__module__ == "mvsl.ast":
            n += 1
            stack.extend(getattr(x, f.name) for f in dataclasses.fields(x) if f.compare)
    return n


def ir_size(ir) -> tuple[int, int]:
    """(instructions, Copy instructions) over every routine and branch."""
    instrs = copies = 0
    stack = [routine.body for routine in ir.routines.values()]
    while stack:
        for ins in stack.pop():
            instrs += 1
            if isinstance(ins, Copy):
                copies += 1
            elif isinstance(ins, CondBr):
                stack += [ins.then_block, ins.else_block]
    return instrs, copies


def captures_array(ir) -> bool:
    """Whether a closure of the program captures a value that can hold an
    array: an array, a closure, or a struct with such a field."""

    def holds(t, seen: set[str]) -> bool:
        if isinstance(t, (ArrayType, FuncType)):
            return True
        if isinstance(t, StructType) and t.name not in seen:
            seen.add(t.name)
            return any(holds(f, seen) for f in ir.structs[t.name].field_types)
        return False

    return any(holds(t, set()) for r in ir.routines.values() for _, t in r.env_fields or ())


def compile_counts(tokens, program, base, optimized) -> dict[str, int]:
    lower_instrs, lower_copies = ir_size(base)
    opt_instrs, opt_copies = ir_size(optimized)
    return {
        "lexer.tokens": len(tokens),
        "parser.nodes": count_nodes(program),
        "ir.lower.instrs": lower_instrs,
        "ir.lower.copies": lower_copies,
        "ir.move_opt.instrs": opt_instrs,
        # Move elision only rewrites Copy to Move (and drops the source's
        # Destroy), so the Copies it removed are the rewrites.
        "ir.move_opt.elided": lower_copies - opt_copies,
    }


def _vm(t, name, ir, **kwargs):
    try:
        text, stats = t.call(name, execute, ir, **kwargs)
        return text, None, stats.as_dict()
    except RuntimeTrap as trap:
        return None, trap.code, None


def _oracle(t, typed):
    try:
        return t.call("oracle", interpret_eager, typed), None, None
    except RuntimeTrap as trap:
        return None, trap.code, None


def _compile(t, source):
    tokens = t.call("lexer", tokenize, source)
    program = t.call("parser", parse_program, tokens, len(source))
    typed = t.call("typechecker", check_program, program)
    base = t.call("ir.lower", lower_program, typed)
    return tokens, program, typed, base, t.call("ir.move_opt", apply_move_optimization, base)


# Each pass runs one batch and returns one result per input: the
# artifacts or outcome the check needs, or the exception it raised.


def _each(batch: list[Input], run) -> list:
    out = []
    for inp in batch:
        try:
            out.append(run(inp))
        except Exception as e:  # noqa: BLE001 - every failure is counted
            out.append(e)
    return out


def compile_pass(t, batch: list[Input]) -> list:
    return _each(batch, lambda inp: _compile(t, inp.source))


def execute_pass(t, batch: list[Input]) -> list:
    return _each(batch, lambda inp: _vm(t, "vm.cow_opt", inp.ir, cow=True))


def diff_pass(t, batch: list[Input]) -> list:
    def diff(inp: Input):
        program = t.call("generator", generate_program, inp.gen) if inp.gen else inp.program
        return t.call("difftest", differential_run, program)

    return _each(batch, diff)


def extra_pass(t, batch: list[Input]) -> list:
    def verify_and_debug(inp: Input):
        t.call("ir.verify", verify_linearity, inp.ir)
        return _vm(t, "vm.debug", inp.ir, cow=True, debug=True)

    return _each(batch, verify_and_debug)


def scale_pass(t, batch: list[Input]) -> list:
    def compile_and_run(inp: Input):
        _, _, typed, _, optimized = _compile(t, inp.source)
        return _vm(t, "vm.cow_opt", optimized, cow=True), _oracle(t, typed)

    return _each(batch, compile_and_run)


PASSES = {
    "compile": compile_pass,
    "execute": execute_pass,
    "diff": diff_pass,
    "extra": extra_pass,
}


class Bench:
    def __init__(self, workload: Workload):
        self.wl = workload
        self.tracer = Tracer()
        # Pass times as (seconds, pass, batch) and traced roots as (block
        # name, batch, root span, pass); factors[pass] is a pass's speed
        # factor.
        self.samples: dict[tuple[str, bool], list[tuple[float, int, int]]] = defaultdict(list)
        self.roots: list[tuple[str, int, int, int]] = []
        self.factors: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self._cursor: dict[tuple[str, bool], int] = defaultdict(int)

    # -- checks -------------------------------------------------------------

    def fail(self, inp: Input, what: str, detail: str) -> None:
        for group, inputs in (("input", self.wl.inputs()), ("doubled input", self.wl.doubled)):
            index = next((i for i, x in enumerate(inputs) if x is inp), None)
            if index is not None:
                break
        self.failures.append(f"{self.wl.name} {group} {index}: {what}: {detail}")

    def observe(self, inp: Input, values: dict[str, int]) -> None:
        """Record deterministic counters; a value that differs from an
        earlier pass over the same input is a failure."""
        for key, value in values.items():
            seen = inp.counts.setdefault(key, value)
            if seen != value:
                self.fail(inp, "counter", f"{key} was {seen}, now {value}")

    def check_outcome(self, inp: Input, what: str, outcome) -> bool:
        if isinstance(outcome, Exception):
            self.fail(inp, what, f"{type(outcome).__name__}: {outcome}")
            return False
        if (outcome[0], outcome[1]) != inp.expected:
            self.fail(inp, what, f"got {outcome[:2]!r}, expected {inp.expected!r}")
            return False
        return True

    def check(self, block: str, batch: list[Input], results: list) -> None:
        for inp, res in zip(batch, results):
            self.attempted += 1
            if block == "compile":
                if isinstance(res, Exception):
                    self.fail(inp, "compile", f"{type(res).__name__}: {res}")
                    continue
                tokens, program, _, base, optimized = res
                self.observe(inp, compile_counts(tokens, program, base, optimized))
            elif block == "execute":
                if self.check_outcome(inp, "execute", res) and res[2]:
                    self.observe(inp, {f"vm.cow_opt.{k}": v for k, v in res[2].items()})
            elif block == "extra":
                # The debug audit counts a closure's environment twice while
                # the closure runs (the callee's borrowed env slot and the
                # caller's FuncVal), so its drift assertion fires on correct
                # runs of closures that capture arrays.  Only there is it
                # counted in vm.debug.audit_failures instead of as a failed
                # program; drift in any other program fails it.
                drift = (isinstance(res, AssertionError) and str(res).startswith("refcount drift")
                         and captures_array(inp.ir))
                self.observe(inp, {"vm.debug.audit_failures": int(drift)})
                if not drift:
                    self.check_outcome(inp, "debug execute", res)
            elif block == "scale":
                if not isinstance(res, Exception):
                    self.check_outcome(inp, "scaled execute", res[0])
                    res = res[1]
                self.check_outcome(inp, "scaled oracle", res)
            else:
                self.check_report(inp, res)

    def check_report(self, inp: Input, report) -> None:
        if isinstance(report, Exception):
            self.fail(inp, "diff", f"{type(report).__name__}: {report}")
            return
        if report["status"] != "PASS":
            self.fail(inp, "diff", "status FAIL")
        for r in report["results"]:
            if (r["output"], r["trap"]) != inp.expected:
                self.fail(inp, f"diff {r['config']}",
                          f"got {(r['output'], r['trap'])!r}, expected {inp.expected!r}")
            elif r["stats"] is not None:
                cfg = CONFIGS[r["config"]]
                self.observe(inp, {f"vm.{cfg}.{k}": v for k, v in r["stats"].items()})

    # -- running ------------------------------------------------------------

    def ensure_ir(self, batch: list[Input]) -> None:
        """Compile, untimed, the IR the execute and extra passes run; a
        failure shows when it runs."""
        missing = [inp for inp in batch if inp.ir is None]
        for inp, res in zip(missing, compile_pass(_NULL, missing)):
            if not isinstance(res, Exception):
                inp.ir = res[4]
        if missing:
            settle_heap()

    def run_pass(self, block: str, traced: bool) -> None:
        t = self.tracer if traced else _NULL
        if block == "scale":
            for tag, batch in (("scale.1", self.wl.base), ("scale.2", self.wl.doubled)):
                self.factors.append(CAL_REF / calibrate())
                self.roots.append((tag, 0, len(self.tracer.spans), len(self.factors) - 1))
                self.check("scale", batch, t.call(tag, scale_pass, t, batch))
            return
        key = (block, traced)
        index = self._cursor[key] % len(self.wl.batches)
        self._cursor[key] += 1
        batch = self.wl.batches[index]
        self.factors.append(CAL_REF / calibrate())
        if traced:
            self.roots.append((block, index, len(self.tracer.spans), len(self.factors) - 1))
        start = perf_counter()
        results = t.call(block, PASSES[block], t, batch)
        self.samples[key].append((perf_counter() - start, len(self.factors) - 1, index))
        self.check(block, batch, results)

    def run_block(self, block: str, traced: bool, seconds: float) -> None:
        """Run whole passes until `seconds` have gone by, at least one."""
        settle_heap()
        end = perf_counter() + seconds
        with traced_difftest(self.tracer) if traced and block == "diff" else nullcontext():
            self.run_pass(block, traced)
            while perf_counter() < end:
                self.run_pass(block, traced)

    def run(self, seconds: float, traced: bool) -> None:
        plan, rounds = TRACED_PLAN if traced else UNTRACED_PLAN
        for batch in self.wl.batches:
            self.ensure_ir(batch)
        for _ in range(rounds):
            for block, block_traced, share in plan:
                self.run_block(block, block_traced, seconds * share / rounds)

    def times(self, phase: str, traced: bool = False, scaled: bool = True) -> list[tuple[int, float]]:
        """(batch, seconds) of each pass of a phase, scaled to the
        reference machine speed unless `scaled` is false."""
        return [(batch, dt * self.factors[b] if scaled else dt)
                for dt, b, batch in self.samples[(phase, traced)]]

    def whole_pass(self, times: list[tuple[int, float]]) -> tuple[float, list[float]]:
        """The time of one pass over all the workload's programs, and
        every sample rescaled to such a pass.

        Batches differ in cost, so the median of batch times would depend
        on which batches the run happened to visit most.  Instead each
        batch's median is summed; a batch the run did not reach counts at
        the mean of the others.  A sample is rescaled by the whole pass
        over its own batch's median."""
        groups: dict[int, list[float]] = defaultdict(list)
        for batch, seconds in times:
            groups[batch].append(seconds)
        medians = {batch: median(xs) for batch, xs in groups.items()}
        total = len(self.wl.batches) * mean(medians.values())
        return total, [seconds * total / medians[batch] for batch, seconds in times]

    # -- counters -----------------------------------------------------------

    def complete_counts(self) -> None:
        """Run, untimed, whatever pass an input still lacks counters from."""
        for inp in self.wl.inputs():
            if "lexer.tokens" not in inp.counts:
                self.check("compile", [inp], compile_pass(_NULL, [inp]))
            if not any(key.startswith("vm.nocow_noopt.") for key in inp.counts):
                self.check("diff", [inp], diff_pass(_NULL, [inp]))
            if "vm.debug.audit_failures" not in inp.counts:
                self.ensure_ir([inp])
                self.check("extra", [inp], extra_pass(_NULL, [inp]))

    def count_totals(self) -> dict[str, int]:
        totals: dict[str, int] = defaultdict(int)
        for inp in self.wl.inputs():
            for key, value in inp.counts.items():
                totals[key] += value
        return dict(totals)

    # -- per-layer figures from the spans -------------------------------------

    def layer_metrics(self, counts: dict[str, int]) -> dict[str, float]:
        per_root = self.tracer.self_times_by_root()
        per_pass: dict[str, dict[str, list[tuple[int, float]]]] = defaultdict(
            lambda: defaultdict(list)
        )
        lexed_tokens = 0
        for block, index, root, b in self.roots:
            for layer, seconds in per_root[root].items():
                per_pass[block][layer].append((index, seconds * self.factors[b]))
            if block == "compile":
                lexed_tokens += sum(inp.counts["lexer.tokens"] for inp in self.wl.batches[index])

        m: dict[str, float] = {}
        for block, layers in LAYERS.items():
            for layer in layers:
                times = per_pass[block][layer]
                m[f"{layer}.time_s"] = self.whole_pass(times)[0] if times else 0.0
        m["difftest.self_s"] = m.pop("difftest.time_s")
        lexer_total = sum(seconds for _, seconds in per_pass["compile"]["lexer"])
        m["lexer.tokens_per_s"] = lexed_tokens / lexer_total if lexer_total else 0.0

        def scaled(tag: str, layer: str) -> float:
            times = per_pass[tag][layer]
            return median(seconds for _, seconds in times) if times else 0.0

        for layer in SCALED:
            base = scaled("scale.1", layer)
            m[f"{layer}.x2_ratio"] = scaled("scale.2", layer) / base if base else 0.0
        m.update(counts)
        copies = counts["ir.lower.copies"]
        m["ir.move_opt.elided_ratio"] = counts["ir.move_opt.elided"] / copies if copies else 0.0
        retains = counts["vm.cow_opt.retains"]
        m["vm.cow_opt.cow_copy_ratio"] = counts["vm.cow_opt.cow_copies"] / retains if retains else 0.0
        vm_time = m["vm.cow_opt.time_s"]
        m["vm.speedup_vs_oracle"] = m["oracle.time_s"] / vm_time if vm_time else 0.0
        for phase in PHASES:
            traced = self.whole_pass(self.times(phase, True))[0]
            untraced = self.whole_pass(self.times(phase))[0]
            m[f"traced.{phase}_s"] = traced
            m[f"untraced.{phase}_s"] = untraced
            m[f"trace_overhead.{phase}"] = traced / untraced
        return m
