import builtins
import functools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsl import (
    GenConfig,
    RuntimeTrap,
    Span,
    check_program,
    differential_run,
    execute,
    generate_program,
    parse_source,
    serialize_array_layout,
)
from mvsl import difftest
from mvsl.diagnostics import NO_SPAN
from mvsl import oracle as oracle_module
from mvsl import vm as vm_module
from mvsl.ir import (
    ENTRY_ID,
    P_ENV,
    P_INOUT,
    CallInstr,
    Destroy,
    IRProgram,
    LoadPath,
    MakeArray,
    MakeClosure,
    MakeInt,
    ResolveLocation,
    Return,
    Routine,
    StorePath,
    apply_move_optimization,
    lower_program,
)
from mvsl.types import INT
from mvsl.vm import VM, Block, Location, StructVal, check_dynamic_overlap, format_value

from conftest import corpus_expected, corpus_sources, lower_source, run_source

PAIR = "struct Pair { var fs: Int; var sn: Int } in "


def fresh_vm(cow=True):
    return VM(lower_source("0"), cow=cow, debug=False)


# -- block primitives ----------------------------------------------------------


def test_copy_retains_under_cow():
    vm = fresh_vm(cow=True)
    a = vm.alloc([1, 2])
    b = vm.copy_value(a)
    assert b is a
    assert a.r == 2
    assert vm.stats.retains == 1 and vm.stats.deep_copies == 0
    vm.destroy_value(b)
    assert a.r == 1
    vm.destroy_value(a)
    assert a.r == 0
    assert vm.stats.allocs == vm.stats.frees == 1


def test_copy_duplicates_without_cow():
    vm = fresh_vm(cow=False)
    a = vm.alloc([1, 2])
    b = vm.copy_value(a)
    assert b is not a and b.elems == a.elems
    assert a.r == b.r == 1
    assert vm.stats.deep_copies == 1 and vm.stats.retains == 0
    vm.destroy_value(a)
    vm.destroy_value(b)
    assert a.r == b.r == 0
    assert vm.stats.allocs == vm.stats.frees == 2


def test_nested_destroy_releases_inner_blocks():
    vm = fresh_vm()
    inner = vm.alloc([7])
    outer = vm.alloc([inner])
    vm.destroy_value(outer)
    assert inner.r == outer.r == 0
    assert vm.stats.frees == 2


def test_second_destroy_of_a_freed_array_is_caught():
    # Built by running MakeArray, so the test holds whatever an array value is.
    vm = fresh_vm()
    frame = vm_module.Frame(Routine(ENTRY_ID, [], [], 2))
    vm.exec_block([MakeInt(0, 1), MakeArray(1, INT, [0])], frame)
    a = frame.slots[1]
    vm.destroy_value(a)
    with pytest.raises(AssertionError, match="destroy of a dead block"):
        vm.destroy_value(a)


def test_trivial_copy_touches_no_counters():
    vm = fresh_vm()
    v = vm.copy_value(4)
    assert v == 4
    s = vm.copy_value(StructVal("Pair", [4, 2]))
    assert s.fields == [4, 2]
    assert vm.stats.retains == vm.stats.deep_copies == 0


def test_cow_dup_on_shared_mutation():
    # q = p then q[0] = 9: the write duplicates the shared block lazily
    out, stats = run_source("var p: [Int] = [1, 2] in var q: [Int] = p in q[0] = 9 in p[0] + q[0]")
    assert out == "10"
    assert stats.cow_copies == 1
    assert stats.retains >= 1


def test_unshared_mutation_stays_in_place():
    out, stats = run_source("var p: [Int] = [1, 2] in p[0] = 9 in p[0]")
    assert out == "9"
    assert stats.cow_copies == 0


# -- serialization ---------------------------------------------------------------


def test_layout_frozen_values():
    assert serialize_array_layout([42, 1337], 2, "little") == (1, 2, 4, bytes([42, 0, 57, 5]))
    assert serialize_array_layout([], 2, "little") == (1, 0, 0, b"")
    assert serialize_array_layout([1], 8, "little") == (1, 1, 8, bytes([1, 0, 0, 0, 0, 0, 0, 0]))
    assert serialize_array_layout([42, 1337], 2, "big") == (1, 2, 4, bytes([0, 42, 5, 57]))


def byte_oracle(values, size, order):
    # Independent re-derivation: two's complement by hand, byte at a time.
    out = []
    for v in values:
        u = v + (1 << (8 * size)) if v < 0 else v
        chunk = [(u >> (8 * i)) & 0xFF for i in range(size)]
        out.extend(chunk if order == "little" else chunk[::-1])
    return bytes(out)


def test_layout_random_arrays_against_byte_oracle():
    rng = random.Random(2026)
    for _ in range(100):
        size = rng.choice([1, 2, 4, 8])
        lo, hi = -(1 << (8 * size - 1)), (1 << (8 * size - 1)) - 1
        values = [rng.randint(lo, hi) for _ in range(rng.randint(0, 6))]
        order = rng.choice(["little", "big"])
        r, n, k, payload = serialize_array_layout(values, size, order)
        assert (r, n, k) == (1, len(values), len(values) * size)
        assert payload == byte_oracle(values, size, order)


def test_layout_rejects_misfit():
    with pytest.raises(ValueError):
        serialize_array_layout([128], 1, "little")
    with pytest.raises(ValueError):
        serialize_array_layout([-129], 1, "little")
    with pytest.raises(ValueError):
        serialize_array_layout([1], 2, "middle")


# -- formatting -------------------------------------------------------------------


def test_format_examples():
    out, _ = run_source(PAIR + "var p: Pair = Pair(4, 2) in p")
    assert out == "Pair(4, 2)"
    out, _ = run_source("var a: [Int] = [1, 2] in a")
    assert out == "[1, 2]"
    out, _ = run_source(PAIR + "let a: [Pair] = [Pair(4, 2), Pair(5, 3)] in a")
    assert out == "[Pair(4, 2), Pair(5, 3)]"
    out, _ = run_source("var f: () -> Int = () -> Int { 4 } in f")
    assert out == "<function>"
    out, _ = run_source("1.5 + 0.25")
    assert out == "1.75"


def test_format_floats_round_trip():
    assert format_value(0.1) == "0.1"
    assert format_value(2.0) == "2.0"
    assert format_value(float("inf")) == "inf"


STRAY_BOOLS = [[1, 2, True], [True, 1, 2], [1.5, True]]


@pytest.mark.parametrize("elems", STRAY_BOOLS)
def test_a_stray_bool_in_an_array_is_still_caught(elems):
    # Only arrays of exact ints or exact floats take the one-step paths.
    with pytest.raises(AssertionError, match="boolean leaked"):
        format_value(Block(elems))
    with pytest.raises(AssertionError, match="cannot copy"):
        fresh_vm(cow=False).copy_value(Block(elems))
    with pytest.raises(AssertionError, match="cannot destroy"):
        fresh_vm().destroy_value(Block(elems))
    with pytest.raises(AssertionError, match="boolean leaked"):
        oracle_module.render(elems)


# -- traps -----------------------------------------------------------------------


def trap_code(source, **kw):
    with pytest.raises(RuntimeTrap) as e:
        run_source(source, **kw)
    return e.value.code


def test_index_out_of_bounds():
    assert trap_code("var a: [Int] = [1, 2] in a[5]") == "IndexOutOfBounds"
    assert trap_code("var a: [Int] = [1, 2] in a[0 - 1]") == "IndexOutOfBounds"
    assert trap_code("var a: [Int] = [1] in a[1] = 0 in a") == "IndexOutOfBounds"


def test_division_by_zero_int_only():
    assert trap_code("var z: Int = 0 in 1 / z") == "DivisionByZero"
    assert trap_code("var z: Int = 0 in 1 % z") == "DivisionByZero"
    out, _ = run_source("var z: Float = 0.0 in 1.0 / z")
    assert out == "inf"
    out, _ = run_source("var z: Float = 0.0 in (0.0 - 1.0) / z")
    assert out == "-inf"
    out, _ = run_source("var z: Float = 0.0 in z / z")
    assert out == "nan"


def test_integer_overflow():
    assert trap_code("var b: Int = 9223372036854775807 in b + 1") == "IntegerOverflow"
    assert trap_code("var b: Int = 9223372036854775807 in 0 - b - 2") == "IntegerOverflow"
    assert trap_code("var b: Int = 4611686018427387904 in b * 2") == "IntegerOverflow"
    # INT_MIN / -1 is the remaining overflow corner
    assert (
        trap_code("var b: Int = 0 - 9223372036854775807 - 1 in var m: Int = 0 - 1 in b / m")
        == "IntegerOverflow"
    )


def test_truncating_division():
    out, _ = run_source("var a: Int = 0 - 7 in a / 2")
    assert out == "-3"
    out, _ = run_source("var a: Int = 0 - 7 in a % 2")
    assert out == "-1"
    out, _ = run_source("var a: Int = 7 in var b: Int = 0 - 2 in a % b")
    assert out == "1"


def _outcome(f):
    try:
        v = f()
    except RuntimeTrap as t:
        return ("trap", t.code, t.message)
    return ("value", type(v), repr(v))


@pytest.mark.parametrize(
    "table, values",
    [
        ("_INT_OPS", [-(2**63), -7, -2, -1, 0, 1, 2, 7, 2**62, 2**63 - 1]),
        ("_FLOAT_OPS", [float("-inf"), -2.5, -0.0, 0.0, 1.0, 3.0, float("inf"), float("nan")]),
    ],
    ids=["Int", "Float"],
)
def test_binary_operator_table_agrees_with_the_oracle(table, values):
    # The VM dispatches a BinaryInstr through one table per operand type;
    # each entry must compute, and trap, exactly as the oracle's _arith.
    ops = getattr(vm_module, table)
    assert set(ops) == {"==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/"} | (
        {"%"} if table == "_INT_OPS" else set()
    )
    span = Span(3, 9)
    for op, f in ops.items():
        for a in values:
            for b in values:
                expected = _outcome(lambda: oracle_module._arith(op, a, b, span))
                assert _outcome(lambda: f(a, b, span)) == expected, (op, a, b)


@pytest.mark.parametrize(
    "name",
    [
        "call_frame_layout.mvs",
        "callee_in_place.mvs",
        "callee_temporary.mvs",
        "inout_forwarding.mvs",
        "lend_captured_callee.mvs",
        "lend_captured_callee_writer.mvs",
        "scalar_arrays.mvs",
    ],
)
def test_call_programs_under_every_config_and_the_debug_audit(name):
    # The calls fill the callee's frame from lent, owned, scalar and inout
    # arguments, directly and through a closure held in a struct.
    # callee_in_place.mvs calls through every form of callee path and
    # ends in the trap of an indexed callee, which comes before its
    # argument's.
    # callee_temporary.mvs calls a temporary closure that captures an
    # array and one chosen by a conditional: each is destroyed after its
    # call.
    # inout_forwarding.mvs passes inout parameters on whole, so the debug
    # runs of the move-optimized IR check each lent Location against a
    # fresh resolution.
    # scalar_arrays.mvs shares an [Int], a [Float] holding -0.0, nan and
    # inf, an [[Int]] and an [S] with a let copy and then writes each:
    # deep copies without COW, cow_dup with it.
    source = dict(corpus_sources())[name]
    for move_opt in (False, True):
        for cow in (False, True):
            try:
                out, _ = run_source(source, cow=cow, move_opt=move_opt, debug=True)
            except RuntimeTrap as t:
                out = f"trap[{t.code}]: {t.message}"
            assert out == corpus_expected(name), (move_opt, cow)
    assert differential_run(parse_source(source))["status"] == "PASS"


def test_trap_carries_position():
    with pytest.raises(RuntimeTrap) as e:
        run_source("var a: [Int] = [1] in\na[3]")
    rendered = e.value.render("var a: [Int] = [1] in\na[3]")
    assert rendered.startswith("2:1: trap[IndexOutOfBounds]")


# -- dynamic overlap ---------------------------------------------------------------


SWAP_ARR = (
    "struct U {} in "
    "let swap: (inout Int, inout Int) -> U = (a: inout Int, b: inout Int) -> U "
    "{ let t = a in a = b in b = t in U() } in "
)


def test_same_element_traps():
    src = SWAP_ARR + "var a: [Int] = [1, 2] in var i: Int = 0 in var j: Int = 0 in _ = swap(&a[i], &a[j]) in a"
    assert trap_code(src) == "OverlapViolation"


def test_distinct_elements_ok():
    src = SWAP_ARR + "var a: [Int] = [1, 2] in var i: Int = 0 in var j: Int = 1 in _ = swap(&a[i], &a[j]) in a"
    out, _ = run_source(src)
    assert out == "[2, 1]"


def test_containment_traps():
    src = (
        "struct U {} in "
        "let f: (inout [Int], inout Int) -> U = (a: inout [Int], b: inout Int) -> U { U() } in "
        "var m: [[Int]] = [[1, 2], [3, 4]] in var i: Int = 0 in "
        "_ = f(&m[i], &m[0][1]) in m"
    )
    assert trap_code(src) == "OverlapViolation"


def test_disjoint_rows_ok():
    src = (
        "struct U {} in "
        "let f: (inout [Int], inout Int) -> U = (a: inout [Int], b: inout Int) -> U { U() } in "
        "var m: [[Int]] = [[1, 2], [3, 4]] in var i: Int = 1 in "
        "_ = f(&m[i], &m[0][1]) in m"
    )
    out, _ = run_source(src)
    assert out == "[[1, 2], [3, 4]]"


def test_check_dynamic_overlap_unit():
    same = Location((("slot", 0, 3), ("elem", 7, 2)))
    sibling = Location((("slot", 0, 3), ("elem", 7, 1)))
    deeper = Location((("slot", 0, 3), ("elem", 7, 2), ("field", "fs")))
    check_dynamic_overlap([same, sibling], NO_SPAN)  # distinct elements: fine
    with pytest.raises(RuntimeTrap):
        check_dynamic_overlap([same, same], NO_SPAN)
    with pytest.raises(RuntimeTrap):
        check_dynamic_overlap([same, deeper], NO_SPAN)  # prefix containment
    with pytest.raises(RuntimeTrap):
        check_dynamic_overlap([deeper, same], NO_SPAN)  # in either order
    check_dynamic_overlap([sibling, deeper], NO_SPAN)
    # one pass over three: only the first and the last overlap
    other = Location((("slot", 0, 4),))
    check_dynamic_overlap([same, sibling, other], NO_SPAN)
    with pytest.raises(RuntimeTrap):
        check_dynamic_overlap([same, other, deeper], NO_SPAN)
    with pytest.raises(RuntimeTrap):
        check_dynamic_overlap([deeper, other, sibling, same], NO_SPAN)


# -- whole-run invariants -----------------------------------------------------------


def test_leak_freedom_on_corpus():
    for name, source in corpus_sources():
        try:
            ir = lower_source(source)
        except Exception:
            continue
        try:
            _, stats = execute(ir, cow=True)
        except RuntimeTrap:
            continue
        assert stats.allocs == stats.frees, name
        assert stats.retains == stats.releases, name


def test_refcount_audit_debug_mode():
    # the store-scan audit runs after every instruction in debug mode
    for name, source in corpus_sources():
        try:
            ir = lower_source(source)
        except Exception:
            continue
        try:
            execute(ir, cow=True, debug=True)
            execute(ir, cow=False, debug=True)
        except RuntimeTrap:
            continue


def test_refcount_audit_does_not_count_a_borrowed_env():
    # a closure's env is lent to its call, so the array it captured has
    # one reference, held by the closure value
    src = "var a: [Int] = [1, 2] in let f: () -> Int = () -> Int { a[0] } in f()"
    assert run_source(src, debug=True)[0] == "1"
    # a callee that is an owned temporary keeps its env counted once
    assert run_source("var a: [Int] = [1, 2] in (() -> Int { a[1] })()", debug=True)[0] == "2"
    nested = (
        "var a: [Int] = [1, 2] in "
        "let f: () -> Int = () -> Int { let g: () -> Int = () -> Int { a[1] } in g() } in f()"
    )
    for cow in (True, False):
        assert run_source(nested, cow=cow, debug=True)[0] == "2"


def test_refcount_audit_catches_a_leaked_retain(monkeypatch):
    copy_value = VM.copy_value

    def leaky_copy(self, v):
        out = copy_value(self, v)
        if type(out) is Block:
            out.r += 1
        return out

    monkeypatch.setattr(VM, "copy_value", leaky_copy)
    # without move elision the capture is a copy of a: a and the env hold
    # the block, whose r is one too many
    src = "var a: [Int] = [1, 2] in let f: () -> Int = () -> Int { a[0] } in f()"
    with pytest.raises(AssertionError, match=r"refcount drift: .*\(references, r\) \[\(2, 3\)\]"):
        run_source(src, move_opt=False, debug=True)


def test_refcount_audit_catches_a_leaked_free(monkeypatch):
    # The first destroy is dropped: the array stays live, held by nothing.
    destroy_value = VM.destroy_value
    dropped = []

    def dropping_destroy(self, v):
        if dropped:
            destroy_value(self, v)
        else:
            dropped.append(v)

    monkeypatch.setattr(VM, "destroy_value", dropping_destroy)
    ir = hand_ir([MakeInt(0, 1), MakeArray(1, INT, [0]), Destroy(1), MakeInt(2, 0), Return(2)], 3)
    with pytest.raises(AssertionError, match="refcount drift"):
        execute(ir, debug=True)
    assert len(dropped) == 1
    dropped.clear()
    with pytest.raises(AssertionError):  # leak freedom at exit
        execute(ir)


def test_refcount_audit_generated():
    for seed in range(40):
        ir = apply_move_optimization(
            lower_program(check_program(generate_program(GenConfig(seed, size_budget=35))))
        )
        try:
            execute(ir, cow=True, debug=True)
        except RuntimeTrap:
            pass


def test_cow_transparency_on_corpus():
    for name, source in corpus_sources():
        try:
            ir = lower_source(source)
        except Exception:
            continue
        try:
            on = execute(ir, cow=True)[0]
        except RuntimeTrap as t:
            on = t.code
        try:
            off = execute(ir, cow=False)[0]
        except RuntimeTrap as t:
            off = t.code
        assert on == off, name


# -- value independence ---------------------------------------------------------------


MUTATIONS = [
    "q[0] = 99",
    "q[1] = q[0] + 7",
    "q = [5, 6, 7]",
    "q[0] = q[1]",
]


@settings(deadline=None, max_examples=40)
@given(
    muts=st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=4),
    elems=st.lists(st.integers(-50, 50), min_size=2, max_size=5),
)
def test_value_independence_arrays(muts, elems):
    lit = "[" + ", ".join(f"0 - {-v}" if v < 0 else str(v) for v in elems) + "]"
    baseline, _ = run_source(f"var p: [Int] = {lit} in p")
    chain = " in ".join(muts)
    out, _ = run_source(f"var p: [Int] = {lit} in var q: [Int] = p in {chain} in p")
    assert out == baseline


def test_value_independence_structs():
    src = (
        PAIR
        + "var p: Pair = Pair(4, 2) in var q: Pair = p in q.sn = 8 in q.fs = 9 in p"
    )
    out, _ = run_source(src)
    assert out == "Pair(4, 2)"


def test_closure_value_independence():
    # copying a closure copies its environment; the copy counts alone
    src = (
        "var n: Int = 0 in "
        "var f: () -> Int = () -> Int { n = n + 1 in n } in "
        "var g: () -> Int = f in "
        "_ = f() in _ = f() in g() * 100 + f()"
    )
    out, _ = run_source(src)
    assert out == "103"


def test_closure_env_persists_across_calls():
    src = "var n: Int = 10 in var f: () -> Int = () -> Int { n = n + 1 in n } in _ = f() in f()"
    out, _ = run_source(src)
    assert out == "12"
    # and in every configuration
    for cow in (True, False):
        for opt in (True, False):
            assert run_source(src, cow=cow, move_opt=opt)[0] == "12"


# -- dispatch ------------------------------------------------------------------------


FIB_BOX = (
    "struct F { var fn: (F, Int) -> Int } in "
    "let fib: (F, Int) -> Int = (s: F, n: Int) -> Int { "
    "if n < 2 then n else s.fn(s, n - 1) + s.fn(s, n - 2) } in "
    "let box: F = F(fib) in box.fn(box, 16)"
)


def test_dispatch_uses_exact_types(monkeypatch):
    # Instructions and values dispatch on type(x) is C: fib(16) through a
    # closure box runs 3193 calls with a few isinstance tests in total.
    calls = 0

    def counting_isinstance(obj, cls):
        nonlocal calls
        calls += 1
        return builtins.isinstance(obj, cls)

    ir = lower_source(FIB_BOX)
    monkeypatch.setattr(vm_module, "isinstance", counting_isinstance, raising=False)
    out, _ = execute(ir)
    assert out == "987"
    assert calls <= 50_000


def test_a_field_callee_is_read_in_place(monkeypatch):
    # box.fn and s.fn are field steps: the call reads the closure there,
    # so fib(16) builds no Location; the arms of the conditional produce
    # into its result slot and the entry's bindings are produced in place,
    # so nothing is moved.
    made = 0
    init = Location.__init__

    def counting_init(self, *args):
        nonlocal made
        made += 1
        init(self, *args)

    ir = lower_source(FIB_BOX)
    monkeypatch.setattr(Location, "__init__", counting_init)
    out, stats = execute(ir)
    assert (out, made, stats.moves) == ("987", 0, 0)
    # An inout argument still travels as a Location.
    execute(lower_source("var a: [Int] = [1] in let f: (inout Int) -> Int = "
                         "(x: inout Int) -> Int { x } in f(&a[0])"))
    assert made == 1


# -- place checks on hand-built IR ---------------------------------------------------


def hand_ir(body, n_slots, immutable=(), routines=()):
    entry = Routine(ENTRY_ID, [], body, n_slots, immutable_slots=frozenset(immutable))
    return IRProgram({ENTRY_ID: entry, **{r.id: r for r in routines}}, ENTRY_ID, {})


def test_store_through_immutable_binding():
    body = [MakeInt(0, 1), MakeInt(1, 2), StorePath(0, [], 1), Return(0)]
    with pytest.raises(AssertionError, match="write through an immutable binding"):
        execute(hand_ir(body, 2, immutable={0}), debug=True)
    assert execute(hand_ir(body, 2, immutable={0}), debug=False)[0] == "2"


# An inout callee that returns its argument's value.
READ_INOUT = Routine(
    "@fn0", [(P_ENV, None), (P_INOUT, INT)], [LoadPath(2, 1, []), Return(2)], 3, env_fields=[]
)


def resolve_and_call(base, borrow=False):
    """%0 = 5; %1 = &%base; call a routine that reads through it."""
    return [
        MakeInt(0, 5),
        ResolveLocation(1, base, [], borrow=borrow),
        MakeClosure(2, "@fn0", []),
        CallInstr(3, 2, [], [1]),
        Destroy(0),
        Return(3),
    ]


def test_resolution_of_immutable_binding():
    ir = hand_ir(resolve_and_call(0), 4, immutable={0}, routines=[READ_INOUT])
    with pytest.raises(AssertionError, match="inout resolution of an immutable binding"):
        execute(ir, debug=True)
    assert execute(ir, debug=False)[0] == "5"
    borrowed = hand_ir(resolve_and_call(0, borrow=True), 4, immutable={0}, routines=[READ_INOUT])
    assert execute(borrowed, debug=True)[0] == "5"


def test_immutability_checks_skip_location_bases():
    # The callee stores through, and resolves, an inout parameter whose
    # slot is marked immutable: both checks apply only to owned bases.
    body = [
        MakeInt(2, 6),
        StorePath(1, [], 2),
        ResolveLocation(3, 1, []),
        LoadPath(4, 3, []),
        Return(4),
    ]
    callee = Routine(
        "@fn0", [(P_ENV, None), (P_INOUT, INT)], body, 5, env_fields=[],
        immutable_slots=frozenset({1}),
    )
    ir = hand_ir(resolve_and_call(0), 4, routines=[callee])
    assert execute(ir, debug=True)[0] == "6"


# %3 locates %1[0]; then %1 is replaced by a new array.
STALE_PREFIX = [
    MakeInt(0, 7),
    MakeArray(1, INT, [0]),
    MakeInt(2, 0),
    ResolveLocation(3, 1, [("index", 2)]),
    MakeInt(4, 8),
    MakeArray(5, INT, [4]),
    StorePath(1, [], 5),
    MakeInt(6, 9),
]


@pytest.mark.parametrize(
    "use",
    [LoadPath(7, 3, []), StorePath(3, [], 6), ResolveLocation(7, 3, [])],
    ids=["load", "store", "resolve"],
)
def test_stale_location_is_caught(use):
    with pytest.raises(AssertionError, match="stale location"):
        execute(hand_ir([*STALE_PREFIX, use, Return(7)], 8))


def test_a_lent_location_is_checked_against_a_fresh_resolution(monkeypatch):
    # With debug on, a call lent an inout parameter's Location walks its
    # trail again.  A block on the trail that has become shared would be
    # duplicated by a fresh resolution, so the lent Location is stale: a
    # run that shares one is a FAIL row of the harness, with the assertion
    # as its crash, not a traceback.  Only the move-optimized IR lends.
    source = dict(corpus_sources())["inout_forwarding.mvs"]
    monkeypatch.setattr(difftest, "execute", functools.partial(execute, debug=True))
    assert differential_run(parse_source(source))["status"] == "PASS"
    call = VM.exec_call

    def sharing(self, frame, ins):
        for a in ins.locations:
            if a in ins.lent:
                next(hop for hop in frame.slots[a].trail if hop[0] == "elem")[1].r += 1
        return call(self, frame, ins)

    monkeypatch.setattr(VM, "exec_call", sharing)
    report = differential_run(parse_source(source))
    assert report["status"] == "FAIL"
    for row in report["results"]:
        if "move_opt=on" in row["config"]:
            assert row["crash"].startswith("AssertionError: stale location"), row
        else:
            assert row["trap"] == "OverlapViolation", row
