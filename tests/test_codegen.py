"""Compiled routines against the interpreter.

The VM compiles a routine to a Python function (mvsl.codegen) at its
COMPILE_THRESHOLD-th entry in a run.  Here the threshold is 1, so every
routine a run enters is compiled at its first entry, the entry routine
too, and each program runs in all four cow x move_opt configurations
both compiled and interpreted (threshold inf).  Output, trap kind, trap
span, trap message and every RuntimeStats field must be equal.  The programs are the
corpus, generated seeds 0-199 at size budget 50 and 0-19 at budget 400,
and the three benchmark workloads at seed 0.  Each IR runs compiled twice
in each configuration: its first compiled run emits its routines, and
every later one binds the code that IR keeps.

Which routines compile at the default threshold is pinned per workload,
so that a change of threshold shows here.
"""

import gc
import math
import weakref

import pytest

from mvsl import (
    GenConfig,
    RuntimeTrap,
    SourceError,
    apply_move_optimization,
    check_program,
    generate_program,
    lower_program,
    parse_source,
    pretty_program,
)
from mvsl import codegen, vm
from mvsl.ir import BinaryInstr, Instr

from conftest import corpus_sources, lower_source, workloads


def outcome(ir, cow: bool) -> tuple:
    try:
        text, stats = vm.execute(ir, cow=cow)
    except RuntimeTrap as t:
        return None, t.code, (t.span.start, t.span.end), t.message
    return text, None, None, stats.as_dict()


COMPILE = codegen.compile_routine


def compiled_or_fail(vm_, routine):
    code = COMPILE(vm_, routine)
    assert code is not None, f"{routine.id} was not compiled"
    return code


def check_sources(monkeypatch, sources: list[str]) -> int:
    """Compare each source's runs, compiled and interpreted; returns
    how many compiled."""
    monkeypatch.setattr(codegen, "compile_routine", compiled_or_fail)
    n = 0
    for source in sources:
        try:
            base = lower_program(check_program(parse_source(source)))
        except SourceError:
            continue
        n += 1
        for ir in (base, apply_move_optimization(base)):
            for cow in (False, True):
                monkeypatch.setattr(vm, "COMPILE_THRESHOLD", math.inf)
                interpreted = outcome(ir, cow)
                monkeypatch.setattr(vm, "COMPILE_THRESHOLD", 1)
                for run in ("first", "second"):
                    assert outcome(ir, cow) == interpreted, (source, cow, run)
    return n


def generated(budget: int, seeds: range) -> list[str]:
    return [pretty_program(generate_program(GenConfig(s, size_budget=budget))) for s in seeds]


@pytest.mark.parametrize(
    "sources",
    [
        lambda: [source for _, source in corpus_sources()],
        lambda: generated(50, range(200)),
        lambda: generated(400, range(20)),
        lambda: [inp.source for name in workloads.NAMES for inp in workloads.build(name, 0).inputs()],
    ],
    ids=["corpus", "seeds@50", "seeds@400", "workloads"],
)
def test_compiled_runs_equal_interpreted_runs(monkeypatch, sources):
    assert check_sources(monkeypatch, sources()) > 0


def count_emissions(monkeypatch) -> list[str]:
    """The ids of the routines emitted from now on, one per emission."""
    emitted = []
    function = codegen._Emitter.function

    def counted(e):
        emitted.append(e.routine.id)
        return function(e)

    monkeypatch.setattr(codegen._Emitter, "function", counted)
    return emitted


@pytest.mark.parametrize("name", ["fib_closure", "cow_inout"])
def test_emission_runs_once_per_ir(monkeypatch, name):
    # Three runs of one IR at the default threshold: each compiles the
    # hot routine at its 50th entry, and only the first emits it.
    ir = lower_source(workloads.build(name, 0).inputs()[0].source)
    monkeypatch.setattr(vm, "COMPILE_THRESHOLD", math.inf)
    interpreted = outcome(ir, True)
    monkeypatch.setattr(vm, "COMPILE_THRESHOLD", 50)
    emitted = count_emissions(monkeypatch)
    assert [outcome(ir, True) for _ in range(3)] == [interpreted] * 3
    assert emitted == ["@fn0"]
    assert list(ir.compiled) == ["@fn0"]


def test_no_run_outlives_itself(monkeypatch):
    # The IR keeps the emitted code, but nothing bound to the run that
    # emitted it: that run's VM is gone once the run is.
    runs = []

    def record(vm_, routine):
        runs.append(weakref.ref(vm_))
        return COMPILE(vm_, routine)

    monkeypatch.setattr(codegen, "compile_routine", record)
    ir = lower_source(workloads.build("fib_closure", 0).inputs()[0].source)
    outcome(ir, True)
    gc.collect()
    assert len(runs) == 1 and runs[0]() is None
    assert ir.compiled["@fn0"] is not None


def test_the_naive_and_the_optimized_ir_never_share_an_entry(monkeypatch):
    # Move-opt shares the entry routine between the two IRs and rewrites
    # the routine it makes a closure of: the entry's code must make each
    # IR's own closure, so the code is kept per IR, not per Routine.
    source = dict(corpus_sources())["closure_of_rewritten_routine.mvs"]
    interpreted = {}
    monkeypatch.setattr(vm, "COMPILE_THRESHOLD", math.inf)
    for move_opt in (False, True):
        for cow in (False, True):
            interpreted[move_opt, cow] = outcome(lower_source(source, move_opt), cow)
    monkeypatch.setattr(vm, "COMPILE_THRESHOLD", 1)
    for order in ((False, True), (True, False)):
        base = lower_source(source, move_opt=False)
        irs = {False: base, True: apply_move_optimization(base)}
        assert irs[True].routines["@entry"] is base.routines["@entry"]
        assert irs[True].routines["@fn0"] is not base.routines["@fn0"]
        for move_opt in order:
            for cow in (False, True):
                assert outcome(irs[move_opt], cow) == interpreted[move_opt, cow], (order, cow)
        assert base.compiled.keys() == irs[True].compiled.keys() == {"@entry", "@fn0", "@fn1"}
        assert all(base.compiled[r] is not irs[True].compiled[r] for r in base.compiled)


def test_a_trap_does_not_spoil_the_kept_code(monkeypatch):
    # overflow.mvs traps in its compiled entry, on the run that emits it
    # and on the run that binds the kept code alike.
    ir = lower_source(dict(corpus_sources())["overflow.mvs"])
    monkeypatch.setattr(vm, "COMPILE_THRESHOLD", math.inf)
    interpreted = outcome(ir, True)
    assert interpreted[1] == "IntegerOverflow"
    monkeypatch.setattr(vm, "COMPILE_THRESHOLD", 1)
    emitted = count_emissions(monkeypatch)
    assert [outcome(ir, True) for _ in range(2)] == [interpreted] * 2
    assert emitted == ["@entry"]


def test_a_routine_nested_past_the_indentation_limit_stays_interpreted(monkeypatch):
    # 100 nested conditionals in the callee's arm: CPython refuses 100
    # levels of indentation, so the routine is interpreted on every one
    # of its 61 entries, and compiling it is tried once per run and
    # emitted once per IR.
    arms = "".join(f"if n < {i + 1} then {i} else " for i in range(100)) + "7"
    source = (
        "struct F { var fn: (F, Int) -> Int } in\n"
        "let r: (F, Int) -> Int = (s: F, n: Int) -> Int "
        f"{{ if n < 1 then 0 else s.fn(s, n - 1) + ({arms}) }} in\n"
        "let box: F = F(r) in box.fn(box, 60)\n"
    )
    ir = apply_move_optimization(lower_program(check_program(parse_source(source))))
    tried = []

    def record(vm_, routine):
        code = COMPILE(vm_, routine)
        tried.append((routine.id, code is not None))
        return code

    monkeypatch.setattr(codegen, "compile_routine", record)
    monkeypatch.setattr(vm, "COMPILE_THRESHOLD", 1)
    emitted = count_emissions(monkeypatch)
    assert outcome(ir, True)[0] == "1830"
    assert tried == [("@entry", True), ("@fn0", False)]
    assert outcome(ir, True)[0] == "1830"
    assert tried == [("@entry", True), ("@fn0", False)] * 2
    assert emitted == ["@entry", "@fn0"]
    assert ir.compiled["@fn0"] is None


def test_every_instruction_kind_has_a_template():
    assert set(codegen.TEMPLATES) == set(Instr.__subclasses__())


# Routines compiled by one optimized execute pass at seed 0 and the
# default threshold, as (input index, routine id).  diff_sweep's busiest
# routines are entered 26 times, so it compiles none.
EXPECTED_COMPILED = {
    "fib_closure": [(0, "@fn0")],
    "cow_inout": [(0, "@fn0")],
    "diff_sweep": [],
}


def test_which_routines_compile_is_pinned(monkeypatch):
    seen: dict[str, list] = {}
    for name in EXPECTED_COMPILED:
        compiled = seen[name] = []
        for i, inp in enumerate(workloads.build(name, 0).inputs()):

            def record(vm_, routine, i=i):
                compiled.append((i, routine.id))
                return COMPILE(vm_, routine)

            monkeypatch.setattr(codegen, "compile_routine", record)
            ir = apply_move_optimization(lower_program(check_program(parse_source(inp.source))))
            outcome(ir, True)
    assert vm.COMPILE_THRESHOLD == 50
    assert seen == EXPECTED_COMPILED


# Scalar edge cases, as (lhs, op, rhs, the run's value or its trap as
# "kind: message").  Int literals are at most INT_MAX and mvsl has no
# unary minus, so INT_MIN and negative operands are computed.
MAX = "9223372036854775807"
MIN = f"(0 - {MAX} - 1)"
NAN = "(0.0 / 0.0)"
NEG_ZERO = "(0.0 * (0.0 - 1.0))"
OVERFLOW = "IntegerOverflow: integer overflow in '{}'"
BY_ZERO = "DivisionByZero: division by zero"
SCALAR_EDGES = [
    (MAX, "+", "1", OVERFLOW.format("+")),
    (MIN, "-", "1", OVERFLOW.format("-")),
    (MIN, "*", "(0 - 1)", OVERFLOW.format("*")),
    (MIN, "/", "(0 - 1)", OVERFLOW.format("/")),
    (MIN, "%", "(0 - 1)", "0"),
    ("7", "/", "0", BY_ZERO),
    ("7", "%", "0", BY_ZERO),
    (MAX, "-", MIN, OVERFLOW.format("-")),
    ("0", "-", MIN, OVERFLOW.format("-")),
    (MAX, "*", "2", OVERFLOW.format("*")),
    (MAX, "+", "0", MAX),
    (MIN, "-", "0", "-9223372036854775808"),
    (MIN, "+", MAX, "-1"),
    ("(0 - 7)", "/", "2", "-3"),
    ("(0 - 7)", "%", "2", "-1"),
    (MIN, "<", MAX, "1"),
    ("1.0", "/", "0.0", "inf"),
    ("(0.0 - 1.0)", "/", "0.0", "-inf"),
    ("1.0", "/", NEG_ZERO, "-inf"),
    ("0.0", "/", "0.0", "nan"),
    (NAN, "==", NAN, "0"),
    (NAN, "!=", NAN, "1"),
    (NAN, "<", "1.0", "0"),
    ("1.0", ">=", NAN, "0"),
    (NAN, "<=", NAN, "0"),
    (NAN, ">", "1.0", "0"),
    (NEG_ZERO, "==", "0.0", "1"),
    (NEG_ZERO, "!=", "0.0", "0"),
    (NEG_ZERO, "<", "0.0", "0"),
    ("0.0", "<=", NEG_ZERO, "1"),
    (NEG_ZERO, "+", "0.0", "0.0"),
    ("0.1", "+", "0.2", "0.30000000000000004"),
]


def edge_sources(lhs: str, op: str, rhs: str) -> list[str]:
    """lhs op rhs inline, in a routine on two parameters, and in one on a
    parameter and rhs as written, so that a literal rhs is a constant."""
    t = "Float" if "." in lhs + rhs else "Int"
    r = "Int" if op in vm._COMPARISONS else t
    return [
        f"{lhs} {op} {rhs}",
        f"let f: ({t}, {t}) -> {r} = (a: {t}, b: {t}) -> {r} {{ a {op} b }} in f({lhs}, {rhs})",
        f"let f: ({t}) -> {r} = (a: {t}) -> {r} {{ a {op} {rhs} }} in f({lhs})",
    ]


@pytest.mark.parametrize(
    "lhs, op, rhs, expected", SCALAR_EDGES, ids=[" ".join(case[:3]) for case in SCALAR_EDGES]
)
def test_scalar_edge_cases_run_alike_compiled(monkeypatch, lhs, op, rhs, expected):
    sources = edge_sources(lhs, op, rhs)
    assert check_sources(monkeypatch, sources) == len(sources)
    for source in sources:  # compiled, as check_sources leaves the threshold
        text, code, _, message = outcome(lower_source(source), True)
        assert (text if code is None else f"{code}: {message}") == expected, source


def test_the_corpus_catches_a_dropped_overflow_check(monkeypatch):
    # A mutant of the binary template that emits no overflow check: the
    # corpus's overflow.mvs, and only it, then runs differently compiled.
    binary = codegen.TEMPLATES[BinaryInstr]

    def unchecked(e, ins, depth):
        n = len(e.lines)
        binary(e, ins, depth)
        e.lines[n:] = [line for line in e.lines[n:] if "_overflow(" not in line]

    monkeypatch.setitem(codegen.TEMPLATES, BinaryInstr, unchecked)
    failing = []
    for name, source in corpus_sources():
        try:
            check_sources(monkeypatch, [source])
        except AssertionError:
            failing.append(name)
    assert failing == ["overflow.mvs"]


def test_compiled_arithmetic_calls_only_the_division_helpers(monkeypatch):
    # Compiled + - * and comparisons are inline Python: fib's compiled
    # routine binds none of the interpreter's operator functions.  Int and
    # Float division and Int remainder still call the VM's helpers.
    compiled = {}

    def record(vm_, routine):
        compiled[routine.id] = code = COMPILE(vm_, routine)
        return code

    def bound(routine_id: str) -> set[int]:
        return set(map(id, compiled[routine_id].__globals__.values()))

    monkeypatch.setattr(codegen, "compile_routine", record)
    outcome(lower_source(workloads.build("fib_closure", 0).inputs()[0].source), True)
    operators = {*vm._INT_OPS.values(), *vm._FLOAT_OPS.values()}
    assert not bound("@fn0") & set(map(id, operators))

    monkeypatch.setattr(vm, "COMPILE_THRESHOLD", 1)
    for lhs, op, rhs, helper in [("7.0", "/", "2.0", vm._float_div), ("7", "/", "2", vm._int_div),
                                 ("7", "%", "2", vm._int_rem)]:
        outcome(lower_source(edge_sources(lhs, op, rhs)[1]), True)
        assert id(helper) in bound("@fn0"), (lhs, op, rhs)
