"""Compiled routines against the interpreter.

The VM compiles a routine to a Python function (mvsl.codegen) at its
COMPILE_THRESHOLD-th entry in a run.  Here each program runs in all four
cow x move_opt configurations interpreted (threshold inf), then at the
default threshold 50, where a routine entered 50 times compiles part way
through the run, then twice at threshold 1, where every routine a run
enters is compiled at its first entry, the entry routine too.  Output,
trap kind, trap span, trap message and every RuntimeStats field must be
equal.  The programs are the corpus, generated seeds 0-199 at size budget
50 and 0-19 at budget 400, and the three benchmark workloads at seed 0.
A routine's first compiled run on an IR emits it, and every later one
binds the code that IR keeps.

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
from mvsl.ir import BinaryInstr, Instr, LoadPath, StorePath

from conftest import corpus_expected, corpus_sources, lower_source, workloads


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
                for threshold, run in ((50, "hot"), (1, "first"), (1, "second")):
                    monkeypatch.setattr(vm, "COMPILE_THRESHOLD", threshold)
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
    # Three runs of one IR at the default threshold: the first compiles
    # the hot routine at its 50th entry and emits it, and each later one
    # binds the code the IR keeps at the routine's first entry.
    ir = lower_source(workloads.build(name, 0).inputs()[0].source)
    monkeypatch.setattr(vm, "COMPILE_THRESHOLD", math.inf)
    interpreted = outcome(ir, True)
    monkeypatch.setattr(vm, "COMPILE_THRESHOLD", 50)
    emitted = count_emissions(monkeypatch)
    assert [outcome(ir, True) for _ in range(3)] == [interpreted] * 3
    assert emitted == ["@fn0"]
    assert list(ir.compiled) == ["@fn0"]


@pytest.mark.parametrize("name", ["fib_closure", "cow_inout"])
def test_kept_code_is_bound_at_a_routines_first_entry(monkeypatch, name):
    # Three runs of one IR at the default threshold: the first interprets
    # @fn0's first 49 entries and binds it at its 50th, and the later ones
    # bind the code the IR keeps at their first entry and interpret none.
    inp = workloads.build(name, 0).inputs()[0]
    ir = lower_source(inp.source)
    body = ir.routines["@fn0"].body
    interpreted: list[int] = []  # entries of @fn0 interpreted, per run
    bound = []  # (routine id, entries of @fn0 interpreted before it was bound)
    exec_block = vm.VM.exec_block

    def counted(self, block, frame):
        interpreted[-1] += block is body
        return exec_block(self, block, frame)

    def record(vm_, routine):
        bound.append((routine.id, interpreted[-1]))
        return COMPILE(vm_, routine)

    monkeypatch.setattr(vm.VM, "exec_block", counted)
    monkeypatch.setattr(codegen, "compile_routine", record)
    assert vm.COMPILE_THRESHOLD == 50
    for _ in range(3):
        interpreted.append(0)
        assert outcome(ir, True)[0] == inp.expected[0]
    assert bound == [("@fn0", 49), ("@fn0", 0), ("@fn0", 0)]
    assert interpreted == [49, 0, 0]


def test_an_infinite_threshold_compiles_nothing_on_an_ir_that_keeps_code(monkeypatch):
    # check_sources takes its interpreted reference at math.inf, also on
    # an IR whose earlier run kept code: that code must not be bound.
    ir = lower_source(workloads.build("fib_closure", 0).inputs()[0].source)
    compiled_run = outcome(ir, True)
    assert ir.compiled["@fn0"] is not None
    tried = []

    def record(vm_, routine):
        tried.append(routine.id)
        return COMPILE(vm_, routine)

    monkeypatch.setattr(codegen, "compile_routine", record)
    monkeypatch.setattr(vm, "COMPILE_THRESHOLD", math.inf)
    assert outcome(ir, True) == compiled_run
    assert tried == []


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
    (MIN, "/", "2", "-4611686018427387904"),
    (MIN, "%", "2", "0"),
    (MAX, "/", "1", MAX),
    (MAX, "%", "3", "1"),
    ("(0 - 7)", "%", "1", "0"),
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
    # A comparison that only a branch reads is tested in the branch's if:
    # a NaN operand must still take the else arm of < and the then arm of
    # !=.
    (f"(if {NAN} < 1.0 then 1.0 else 2.0)", "+", "0.0", "2.0"),
    (f"(if {NAN} != {NAN} then 1.0 else 2.0)", "+", "0.0", "1.0"),
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


def corpus_failing_without(monkeypatch, kinds: list[type], dropped: str) -> list[str]:
    """The corpus programs that run differently compiled, or index past a
    list's end, when the templates of kinds emit no line containing
    dropped."""
    for kind in kinds:

        def mutant(e, ins, depth, template=codegen.TEMPLATES[kind]):
            n = len(e.lines)
            template(e, ins, depth)
            e.lines[n:] = [line for line in e.lines[n:] if dropped not in line]

        monkeypatch.setitem(codegen.TEMPLATES, kind, mutant)
    failing = []
    for name, source in corpus_sources():
        try:
            check_sources(monkeypatch, [source])
        except (AssertionError, IndexError):
            failing.append(name)
    return failing


def test_the_corpus_catches_a_dropped_overflow_check(monkeypatch):
    # A mutant of the binary template that emits no overflow check: the
    # corpus's overflow.mvs, and only it, then runs differently compiled.
    assert corpus_failing_without(monkeypatch, [BinaryInstr], "_overflow(") == ["overflow.mvs"]


def test_the_corpus_catches_a_dropped_bounds_check(monkeypatch):
    # The load and store templates without their inline bounds check:
    # index_oob.mvs's read past the end then crashes compiled.  The
    # corpus's other bounds traps are in a resolution, whose template
    # keeps its own check.
    failing = corpus_failing_without(monkeypatch, [LoadPath, StorePath], "_bounds(")
    assert failing == ["index_oob.mvs"]


def test_the_corpus_catches_a_dropped_cow_check(monkeypatch):
    # The store template without its inline copy-on-write of a shared
    # block: a store then writes through to every holder of the block.
    assert corpus_failing_without(monkeypatch, [StorePath], ".r > 1") == [
        "closure_capture_inout.mvs",
        "closure_capture_nested.mvs",
        "cow_conditional_taken.mvs",
        "inout_copied_in_callee.mvs",
        "inout_forwarding.mvs",
        "lend_inout_overlap.mvs",
        "scalar_arrays.mvs",
        "unit_values.mvs",
    ]


def test_cow_inouts_compiled_walks_are_inline(monkeypatch):
    # fill's loads and stores walk their places inline, its inout
    # parameter from the Location's endpoint, with no walk of its trail;
    # its Int elements are read and overwritten with no copy or destroy;
    # and its division by a constant is inline: its function calls none
    # of _place, follow, copy_value, destroy_value on an element or
    # _int_div.
    compiled = {}

    def record(vm_, routine):
        compiled[routine.id] = code = COMPILE(vm_, routine)
        return code

    monkeypatch.setattr(codegen, "compile_routine", record)
    ir = lower_source(workloads.build("cow_inout", 0).inputs()[0].source)
    outcome(ir, True)
    source = codegen._Emitter(ir, ir.routines["@fn0"]).function()
    for call in ("_place(", "_follow(", "_copy(", "_destroy(_old)"):
        assert call not in source, call
    bound = compiled["@fn0"].__globals__
    assert "_follow" not in bound and "_place" not in bound and "_copy" not in bound
    assert not any(v is vm._int_div or getattr(v, "__func__", None) in (vm.VM._place, vm.VM.follow)
                   for v in bound.values())


def test_cow_inouts_fill_neither_makes_nor_destroys_a_u(monkeypatch):
    # fill returns the field-less U, which owns nothing: move-opt destroys
    # no value of it, and each leaf binds the routine's one U.  fib's
    # compiled routine, which neither makes nor destroys a struct, is as
    # FIB_FN0 pins it.
    ir = lower_source(workloads.build("cow_inout", 0).inputs()[0].source)
    source = codegen._Emitter(ir, ir.routines["@fn0"]).function()
    assert "_destroy(" not in source and "_Struct(" not in source
    compiled = {}

    def record(vm_, routine):
        compiled[routine.id] = code = COMPILE(vm_, routine)
        return code

    monkeypatch.setattr(codegen, "compile_routine", record)
    outcome(ir, True)
    units = [v for v in compiled["@fn0"].__globals__.values() if type(v) is vm.StructVal]
    assert [(u.name, u.fields) for u in units] == [("U", [])]
    assert "_destroy" not in compiled["@fn0"].__globals__


def test_a_field_less_struct_is_one_value_per_compiled_routine(monkeypatch):
    # unit_values.mvs's tick and walk are entered 61 times each, so both
    # compile at the default threshold.  tick makes U in both arms and
    # walk in its base case: each routine binds one U for all of them.
    # check_sources compares the runs with the interpreter's.
    compiled = {}

    def record(vm_, routine):
        compiled[routine.id] = code = COMPILE(vm_, routine)
        return code

    monkeypatch.setattr(codegen, "compile_routine", record)
    ir = lower_source(dict(corpus_sources())["unit_values.mvs"])
    assert outcome(ir, True)[0] == corpus_expected("unit_values.mvs")
    assert sorted(compiled) == ["@fn0", "@fn1"]
    for rid, code in compiled.items():
        assert "_Struct('U'" not in codegen._Emitter(ir, ir.routines[rid]).function()
        units = [v for v in code.__globals__.values() if type(v) is vm.StructVal]
        assert [(u.name, u.fields) for u in units] == [("U", [])], rid


# fib's compiled routine: each comparison that only its branch reads is
# the branch's test, with no 1 or 0 made first.
FIB_FN0 = """\
def _routine(s0, s1, s2):
    if s2 < 2:
        if s2 < 1:
            s3 = 90
        else:
            s3 = 69
    else:
        s12 = s2 - 1
        if not -9223372036854775808 <= s12: _overflow('-', _k7)
        _fn = s1.fields[0]
        _f = _code[_fn.routine.id]
        s13 = _f(_fn, s1, s12) if _f is not None else _enter(_fn, [s1, s12], [])
        s16 = s2 - 2
        if not -9223372036854775808 <= s16: _overflow('-', _k8)
        _fn = s1.fields[0]
        _f = _code[_fn.routine.id]
        s17 = _f(_fn, s1, s16) if _f is not None else _enter(_fn, [s1, s16], [])
        s3 = s13 + s17
        if not -9223372036854775808 <= s3 <= 9223372036854775807: _overflow('+', _k9)
    return s3"""


def test_fibs_comparisons_are_its_branch_tests():
    ir = lower_source(workloads.build("fib_closure", 0).inputs()[0].source)
    source = codegen._Emitter(ir, ir.routines["@fn0"]).function()
    assert source == FIB_FN0
    assert "1 if " not in source


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
