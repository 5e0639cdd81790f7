import re

import pytest

from mvsl import check_program, dump_ir, execute, generate_program, parse_source, GenConfig
from mvsl import ir as ir_module
from mvsl.diagnostics import ParseError, TypeCheckError
from mvsl.ir import (
    ENTRY_ID,
    CallInstr,
    CondBr,
    Copy,
    Destroy,
    IRProgram,
    LoadPath,
    MakeInt,
    MakeStruct,
    Move,
    OverlapCheck,
    P_INOUT,
    ResolveLocation,
    Return,
    Routine,
    StorePath,
    apply_move_optimization,
    lower_program,
    verify_linearity,
)
from mvsl.types import INT

from conftest import corpus_sources, lower_source

PAIR = "struct Pair { var fs: Int; var sn: Int } in "


def walk(block):
    for ins in block:
        yield ins
        if hasattr(ins, "then_block"):
            yield from walk(ins.then_block)
            yield from walk(ins.else_block)


def all_instrs(ir):
    for r in ir.routines.values():
        yield from walk(r.body)


# -- lowering shape -----------------------------------------------------------


def test_closure_lowering_synthesizes_one_routine():
    src = "var foo: Int = 42 in var fn: () -> Int { foo = foo + 1 in foo } in fn()"
    ir = lower_source(src, move_opt=False)
    fns = [r for rid, r in ir.routines.items() if rid != ir.entry]
    assert len(fns) == 1
    assert fns[0].env_fields == [("foo", INT)]
    # the env parameter is the routine's first parameter
    assert fns[0].params[0] == ("env", None)


def test_copy_then_destroy_for_binding():
    ir = lower_source(PAIR + "var p: Pair = Pair(4, 2) in var q: Pair = p in q", move_opt=False)
    body = ir.routines[ir.entry].body
    copies = [i for i in body if isinstance(i, Copy)]
    destroys = [i for i in body if isinstance(i, Destroy)]
    assert copies, "binding initialization must copy before optimization"
    assert destroys, "bindings must be destroyed at scope exit"


def test_inout_call_lowering():
    src = (
        "struct U {} in "
        "let swap: (inout Int, inout Int) -> U = (a: inout Int, b: inout Int) -> U "
        "{ let t = a in a = b in b = t in U() } in "
        "var xs: [Int] = [1, 2] in var i: Int = 0 in var j: Int = 1 in "
        "_ = swap(&xs[i], &xs[j]) in xs"
    )
    ir = lower_source(src, move_opt=False)
    body = ir.routines[ir.entry].body
    resolves = [x for x in body if isinstance(x, ResolveLocation) and not x.borrow]
    checks = [x for x in body if isinstance(x, OverlapCheck)]
    calls = [x for x in body if isinstance(x, CallInstr)]
    assert len(resolves) == 2
    assert len(checks) == 1  # xs[i] vs xs[j] is MaybeOverlap
    assert len(calls) == 1
    # the check runs between resolution and the call
    assert body.index(checks[0]) > body.index(resolves[1])
    assert body.index(checks[0]) < body.index(calls[0])


def test_statically_disjoint_pair_needs_no_check():
    src = (
        PAIR + "struct U {} in "
        "let swap: (inout Int, inout Int) -> U = (a: inout Int, b: inout Int) -> U "
        "{ let t = a in a = b in b = t in U() } in "
        "var p: Pair = Pair(4, 2) in _ = swap(&p.fs, &p.sn) in p"
    )
    ir = lower_source(src, move_opt=False)
    assert not [x for x in all_instrs(ir) if isinstance(x, OverlapCheck)]


def test_wildcard_lowers_to_evaluate_then_destroy():
    ir = lower_source("var x: [Int] = [1] in _ = x in 0", move_opt=False)
    body = ir.routines[ir.entry].body
    # the wildcard's value is copied (or later moved) and then destroyed
    # without ever being stored to a named slot
    assert any(isinstance(i, Destroy) for i in body)


# -- move optimization ----------------------------------------------------------


def fetch(src):
    base = lower_program(check_program(parse_source(src)))
    return base, apply_move_optimization(base)


def test_last_use_becomes_move():
    src = "let f: ([Int]) -> Int = (a: [Int]) -> Int { a[0] } in let x: [Int] = [1, 2] in f(x)"
    base, opt = fetch(src)
    base_copies = [i for i in base.routines[base.entry].body if isinstance(i, Copy)]
    opt_copies = [i for i in opt.routines[opt.entry].body if isinstance(i, Copy)]
    opt_moves = [i for i in opt.routines[opt.entry].body if isinstance(i, Move)]
    assert len(base_copies) >= 2
    assert len(opt_copies) == 0
    assert len(opt_moves) >= 2


def test_repeated_use_keeps_first_copy():
    src = (
        "let g: ([Int]) -> Int = (a: [Int]) -> Int { a[0] } in "
        "let h: ([Int]) -> Int = (a: [Int]) -> Int { a[1] } in "
        "let x: [Int] = [1, 2] in g(x) + h(x)"
    )
    _, opt = fetch(src)
    body = opt.routines[opt.entry].body
    # x's slot: find the argument transfers reading it
    copies = [i for i in body if isinstance(i, Copy)]
    moves = [i for i in body if isinstance(i, Move)]
    # first argument stays a copy, the last use moves
    assert len(copies) == 1
    assert any(isinstance(i, Move) for i in moves)
    # and the runtime agrees: one deep copy with cow off
    _, stats = execute(opt, cow=False)
    assert stats.deep_copies == 1
    _, stats_base = execute(lower_source(src, move_opt=False), cow=False)
    assert stats_base.deep_copies == 3


def test_trivial_type_unchanged_semantics():
    src = "var x: Int = 4 in var y: Int = x in x + y"
    base, opt = fetch(src)
    assert execute(base)[0] == execute(opt)[0] == "8"


def test_optimization_preserves_output_on_corpus():
    for name, source in corpus_sources():
        try:
            base = lower_source(source, move_opt=False)
        except Exception:
            continue  # type-error corpus entries
        opt = lower_source(source, move_opt=True)
        try:
            out_base = execute(base)[0]
        except Exception as e:
            out_base = type(e).__name__
        try:
            out_opt = execute(opt)[0]
        except Exception as e:
            out_opt = type(e).__name__
        assert out_base == out_opt, name


def base_programs():
    """Naive IR of the type-correct corpus and of a few generated seeds."""
    for _, source in corpus_sources():
        try:
            yield lower_source(source, move_opt=False)
        except (ParseError, TypeCheckError):
            continue
    for seed in (0, 1, 2, 7, 42):
        yield lower_program(check_program(generate_program(GenConfig(seed, size_budget=50))))


def count(block, kind):
    return sum(isinstance(i, kind) for i in walk(block))


def test_optimization_leaves_base_alone_and_shares_it():
    changed = unchanged = 0
    for base in base_programs():
        before = dump_ir(base)
        opt = apply_move_optimization(base)
        assert dump_ir(base) == before
        base_ids = {id(i) for i in all_instrs(base)}
        for rid, routine in base.routines.items():
            new = opt.routines[rid]
            elided = count(new.body, Move) - count(routine.body, Move)
            if elided == 0:
                assert new is routine, rid
                unchanged += 1
                continue
            changed += 1
            assert new.body is not routine.body
            assert count(routine.body, Copy) == count(new.body, Copy) + elided
            # Only the new Moves and the CondBrs above them are new objects.
            fresh = [i for i in walk(new.body) if id(i) not in base_ids]
            assert all(isinstance(i, (Move, CondBr)) for i in fresh), rid
    assert changed and unchanged


def single_routine(body, n_slots):
    routine = Routine(ENTRY_ID, [], body, n_slots)
    return IRProgram({ENTRY_ID: routine}, ENTRY_ID, {})


def copy_chain(n):
    """n straight-line pairs: copy %k -> %k+1, then destroy %k."""
    body = [MakeInt(0, 0)]
    for k in range(n):
        body += [Copy(k + 1, k), Destroy(k)]
    body.append(Return(n))
    return single_routine(body, n + 1)


def test_move_elision_work_is_linear(monkeypatch):
    calls = 0
    operands = ir_module._operands

    def counted(ins):
        nonlocal calls
        calls += 1
        return operands(ins)

    monkeypatch.setattr(ir_module, "_operands", counted)
    work = {}
    for n in (500, 1000):
        calls = 0
        body = apply_move_optimization(copy_chain(n)).routines[ENTRY_ID].body
        work[n] = calls
        assert sum(isinstance(i, Move) for i in body) == n
        assert not any(isinstance(i, (Copy, Destroy)) for i in body)
    assert work[1000] <= 2.5 * work[500]


def test_destroy_only_in_branch_keeps_copy():
    # %0 is destroyed on both paths, but only inside the branches.
    body = [
        MakeInt(0, 0),
        MakeInt(1, 1),
        Copy(2, 0),
        CondBr(1, [Destroy(0)], [Destroy(0)]),
        Return(2),
    ]
    base = single_routine(body, 3)
    opt = apply_move_optimization(base)
    assert opt.routines[ENTRY_ID] is base.routines[ENTRY_ID]
    assert isinstance(opt.routines[ENTRY_ID].body[2], Copy)


def test_read_in_nested_block_keeps_copy():
    # The only later use of %0 in its own block is its Destroy, but a
    # branch reads it in between.
    body = [
        MakeInt(0, 0),
        MakeInt(1, 1),
        Copy(2, 0),
        CondBr(1, [Copy(3, 0), Destroy(3)], []),
        Destroy(0),
        Return(2),
    ]
    base = single_routine(body, 4)
    opt = apply_move_optimization(base)
    assert opt.routines[ENTRY_ID] is base.routines[ENTRY_ID]
    assert isinstance(opt.routines[ENTRY_ID].body[2], Copy)


def test_copy_in_branch_moves_when_branch_destroys_source():
    then_block = [Copy(3, 0), Destroy(0), Destroy(3)]
    body = [
        MakeInt(0, 0),
        MakeInt(1, 1),
        CondBr(1, then_block, [Destroy(0)]),
        MakeInt(2, 2),
        Return(2),
    ]
    base = single_routine(body, 4)
    opt = apply_move_optimization(base)
    new_body = opt.routines[ENTRY_ID].body
    assert [type(i) for i in new_body[2].then_block] == [Move, Destroy]
    assert new_body[2].else_block is body[2].else_block
    assert all(new_body[k] is body[k] for k in (0, 1, 3, 4))
    assert [type(i) for i in body[2].then_block] == [Copy, Destroy, Destroy]


# -- linearity ------------------------------------------------------------------


def test_linearity_on_corpus_and_generated():
    for _, source in corpus_sources():
        try:
            base = lower_source(source, move_opt=False)
        except Exception:
            continue
        verify_linearity(base)
        verify_linearity(lower_source(source, move_opt=True))
    for seed in range(60):
        base = lower_program(
            check_program(generate_program(GenConfig(seed, size_budget=40)))
        )
        verify_linearity(base)
        verify_linearity(apply_move_optimization(base))



@pytest.mark.parametrize(
    "params, body, message",
    [
        ([], [MakeInt(0, 0), MakeInt(0, 1), Return(0)], "slot 0 already live"),
        ([], [MakeInt(0, 0), Destroy(0), Destroy(0)], "slot 0 not owned"),
        # an inout parameter is a location the routine does not own
        ([(P_INOUT, INT)], [Destroy(0), MakeInt(1, 0), Return(1)], "slot 0 not owned"),
        ([], [Copy(1, 0), Return(1)], "slot 0 not readable"),
        # a path's base is read before its index slots are consumed
        ([], [StorePath(0, [("index", 1)], 2)], "slot 0 not readable"),
        ([], [MakeInt(0, 0), LoadPath(2, 0, [("index", 1)])], "slot 1 not owned"),
        ([], [MakeInt(0, 0), MakeInt(1, 1), Return(1)], "slot 0 leaks at exit"),
        (
            [],
            [MakeInt(0, 0), MakeInt(1, 1), CondBr(1, [Destroy(0)], []), Return(0)],
            "branch end states differ",
        ),
        ([], [MakeInt(0, 0), Return(0), MakeInt(1, 1)], "Return must end the routine body"),
        (
            [],
            [MakeInt(0, 0), MakeInt(1, 1), CondBr(1, [Return(0)], [Destroy(0)])],
            "Return must end the routine body",
        ),
        ([], [MakeInt(0, 0), Destroy(0)], "body must end with Return"),
        ([], [], "body must end with Return"),
    ],
)
def test_linearity_rejections(params, body, message):
    routine = Routine(ENTRY_ID, params, body, 4)
    with pytest.raises(AssertionError) as e:
        verify_linearity(IRProgram({ENTRY_ID: routine}, ENTRY_ID, {}))
    text = str(e.value)
    assert text.startswith(f"linearity violation in {ENTRY_ID}")
    assert text.endswith(f": {message}")


def test_linearity_consumes_operands_before_producing():
    # The struct's only operand is its own destination slot.
    verify_linearity(single_routine([MakeInt(0, 0), MakeStruct(0, "S", [0]), Return(0)], 1))


# -- dump -----------------------------------------------------------------------


def test_dump_is_stable():
    src = PAIR + "var p: Pair = Pair(4, 2) in p"
    assert dump_ir(lower_source(src)) == dump_ir(lower_source(src))


def test_dump_golden_small_program():
    text = dump_ir(lower_source("var x: Int = 4 in x", move_opt=False))
    lines = [l.strip() for l in text.splitlines() if l.strip()]
    assert lines[0].startswith("routine @entry")
    assert any("make_int 4" in l for l in lines)
    assert any(l.split(": ", 1)[1].startswith("copy") for l in lines if ": " in l)
    ret = re.fullmatch(r"\d+: return %(\d+)", lines[-1])
    assert ret, lines[-1]
    # The returned slot is the copy of x made for the result.
    assert any(re.fullmatch(rf"\d+: copy %\d+ -> %{ret[1]}", l) for l in lines)
