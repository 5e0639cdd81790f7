import re
from collections import Counter
from dataclasses import replace

import pytest

from mvsl import (
    GenConfig,
    RuntimeTrap,
    check_program,
    dump_ir,
    execute,
    generate_program,
    interpret_eager,
    parse_source,
    pretty_program,
)
from mvsl import ir as ir_module
from mvsl.diagnostics import ParseError, TypeCheckError
from mvsl.ir import (
    ENTRY_ID,
    BinaryInstr,
    CallInstr,
    CondBr,
    Copy,
    Destroy,
    Instr,
    IRProgram,
    LoadPath,
    MakeArray,
    MakeInt,
    MakeStruct,
    Move,
    OverlapCheck,
    P_INOUT,
    P_LENT,
    P_VALUE,
    ResolveLocation,
    Return,
    Routine,
    StorePath,
    apply_move_optimization,
    lower_program,
    verify_linearity,
)
from mvsl.types import INT, StructType

from conftest import (
    corpus_expected,
    corpus_files,
    corpus_sources,
    line_events,
    lower_source,
    workloads,
)

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
    # x and y are read at their last uses, each by a Copy that becomes a
    # Move: another instruction runs between each of them and the one
    # that made its source, so no source can be produced in the Move's
    # place.  n and k are Int operands at their last uses: each binary
    # consumes its binding's slot, with no Move into a temporary.
    src = (
        "let f: ([Int]) -> [Int] = (a: [Int]) -> [Int] { a } in let x: [Int] = [1, 2] in "
        "let k: Int = x[1] in let y: [Int] = f(x) in let n: Int = y[0] in "
        "let z: [Int] = y in z[1] + n + k"
    )
    base, opt = fetch(src)
    base_copies = [i for i in base.routines[base.entry].body if isinstance(i, Copy)]
    opt_copies = [i for i in opt.routines[opt.entry].body if isinstance(i, Copy)]
    opt_moves = [i for i in opt.routines[opt.entry].body if isinstance(i, Move)]
    assert len(base_copies) >= 2
    assert len(opt_copies) == 0
    assert len(opt_moves) == 2
    assert dump_ir(opt).splitlines()[8:13] == [
        "  7: load_path %6[#0] -> %8",
        "  8: move %6 -> %10",
        "  9: load_path %10[#1] -> %11",
        "  10: binary + %11, %8 -> %13",
        "  11: binary + %13, %4 -> %15",
    ]
    assert execute(opt)[0] == execute(base)[0] == "5"
    assert execute(opt)[1].moves == 3  # and @fn0's return of its parameter


def test_initializer_is_produced_into_its_binding():
    # Lowering produces a computed initializer straight into its
    # binding's slot, so the naive IR copies only where a place is read:
    # a, s and t.  In the optimized IR a chain of Moves collapses into its
    # first producer, and a's last use is an operand, which consumes a's
    # own slot.
    src = "var a: Int = 3 in let s: Int = a * 2 + 1 in let t: Int = s in t"
    base, opt = fetch(src)
    body = base.routines[base.entry].body
    assert [type(i) for i in body] == [
        MakeInt, Copy, BinaryInstr, BinaryInstr, Copy, Copy, Destroy, Destroy, Destroy, Return,
    ]
    assert [i.dst for i in body[:4]] == [0, 2, 4, 1]  # a, a's copy, a * 2, s
    assert dump_ir(opt).splitlines()[1:] == [
        "  0: make_int 3 -> %0",
        "  1: binary * %0, #2 -> %4",
        "  2: binary + %4, #1 -> %7",
        "  3: return %7",
    ]
    for ir in (base, opt):
        assert execute(ir)[0] == "7"
    assert execute(opt)[1].moves == 0


def test_repeated_use_keeps_first_copy():
    # x feeds two bindings, then two fields of one struct
    for src, base_copies in (
        ("let x: [Int] = [1, 2] in let y: [Int] = x in let z: [Int] = x in y[0] + z[1]", 2),
        (
            "struct W { var a: [Int]; var b: [Int] } in let x: [Int] = [1, 2] in "
            "let w: W = W(x, x) in w.a[0] + w.b[1]",
            2,
        ),
    ):
        _, opt = fetch(src)
        body = opt.routines[opt.entry].body
        x = body[[type(i) for i in body].index(MakeArray)].dst  # made in x's slot
        # the first read of x stays a copy, the last one moves
        assert [type(i) for i in body if getattr(i, "src", None) == x] == [Copy, Move]
        # and the runtime agrees: one deep copy with cow off
        _, stats = execute(opt, cow=False)
        assert stats.deep_copies == 1
        _, stats_base = execute(lower_source(src, move_opt=False), cow=False)
        assert stats_base.deep_copies == base_copies


def test_repeated_argument_is_lent():
    src = (
        "let g: ([Int]) -> Int = (a: [Int]) -> Int { a[0] } in "
        "let h: ([Int]) -> Int = (a: [Int]) -> Int { a[1] } in "
        "let x: [Int] = [1, 2] in g(x) + h(x)"
    )
    _, opt = fetch(src)
    body = opt.routines[opt.entry].body
    calls = [i for i in body if isinstance(i, CallInstr)]
    # neither call copies x: g reads it in place, and h reads it at its
    # last use, after which the caller destroys it
    assert not [i for i in body if isinstance(i, Copy)]
    x = calls[0].args[0]
    assert [c.lent for c in calls] == [(x,), (x,)]
    assert body[body.index(calls[1]) + 1] == Destroy(x, calls[1].span)
    for cow in (True, False):
        _, stats = execute(opt, cow=cow)
        assert (stats.deep_copies, stats.retains) == (0, 0)
    _, stats_base = execute(lower_source(src, move_opt=False), cow=False)
    assert stats_base.deep_copies == 2


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


def blocks(block):
    yield block
    for ins in block:
        if isinstance(ins, CondBr):
            yield from blocks(ins.then_block)
            yield from blocks(ins.else_block)


def check_rewrites(old, new):
    """Account for every instruction of routine old that the optimization
    replaced or deleted in routine new.

    - A deleted Copy or Move whose source nothing in new names was
      retargeted: the producer of its source writes its destination
      instead, or, down a chain of them, the chain's last destination.
      The producer is its old self with that destination, or else also
      rewritten by one of the rules below.
    - Any other deleted Copy became a Move of the same slots, or a
      rebuilt reader (call, binary, branch or path) reads its source in
      place of its destination, which nothing in new names.
    - A deleted ResolveLocation of an inout parameter with no steps is
      passed on: a rebuilt call lends the parameter in place of its
      destination.
    - A new Destroy directly follows, among Destroys, a rebuilt call that
      lends its slot.
    - A deleted Destroy is that of a Move's source, of a lent parameter,
      or of a renamed source handed to its reader: destroyed after a
      call, or taken by the reader.
    """
    old_ins, new_ins = list(walk(old.body)), list(walk(new.body))
    old_ids, new_ids = {id(i) for i in old_ins}, {id(i) for i in new_ins}
    fresh = [i for i in new_ins if id(i) not in old_ids]
    gone = [i for i in old_ins if id(i) not in new_ids]
    named = set()
    for ins in new_ins:
        reads, consumes, dst = ir_module._operands(ins)
        named.update(reads, consumes, [dst])
    retargets = [i for i in gone if isinstance(i, (Copy, Move)) and i.src not in named]
    into = {i.src: i.dst for i in retargets}

    def final(slot):
        while slot in into:
            slot = into[slot]
        return slot

    retarget_ids = {id(i) for i in retargets}
    loc_params = {s for s, (p, _) in enumerate(old.params) if p == P_INOUT}
    passed_on = [
        i for i in gone if isinstance(i, ResolveLocation) and not i.steps and i.base in loc_params
    ]
    forwarded = {i.dst: i.base for i in passed_on}
    assert not forwarded.keys() & named
    skipped = retarget_ids | {id(i) for i in passed_on}
    others = [i for i in gone if id(i) not in skipped]
    kinds = (CallInstr, BinaryInstr, CondBr, LoadPath, StorePath, ResolveLocation)
    plain = (Copy, Move, Destroy, *kinds)
    # A retargeted producer that no other rule rewrites.
    producers = [i for i in others if not isinstance(i, plain)]
    assert all(i.dst in into for i in producers)
    assert Counter(repr(replace(i, dst=final(i.dst))) for i in producers) == Counter(
        repr(i) for i in fresh if not isinstance(i, plain)
    )
    # A Copy becomes a Move or is read in place; an original Move, or a
    # Copy that is not a last use, changes only by retargeting.
    copies = [i for i in others if isinstance(i, Copy)]
    old_moves = [i for i in others if isinstance(i, Move)]
    assert all(i.dst in into for i in old_moves)
    renamed = {c.dst: c.src for c in copies if c.dst not in named and c.dst not in into}
    assert Counter((i.dst, i.src) for i in fresh if isinstance(i, (Copy, Move))) == Counter(
        (final(c.dst), c.src) for c in copies + old_moves if c.dst not in renamed
    )
    # A fresh Copy is a retargeted one that is not its source's last use.
    assert all(i.dst in into.values() for i in fresh if isinstance(i, Copy))
    # Each rebuilt reader is its old self with the renamed operands.
    old_readers = [i for i in others if isinstance(i, kinds)]
    new_readers = [i for i in fresh if isinstance(i, kinds)]
    assert len(old_readers) == len(new_readers)
    taken = []
    for o, n in zip(old_readers, new_readers):
        assert type(o) is type(n)
        if isinstance(o, CallInstr):
            assert (n.dst, n.callee) == (final(o.dst), o.callee)
            assert n.locations == [forwarded.get(a, a) for a in o.locations]
            assert n.args == [renamed.get(a, a) for a in o.args]
            assert {forwarded[a] for a in o.locations if a in forwarded} <= set(n.lent)
            # rebuilt to lend, to take a source, or to produce elsewhere
            assert n.lent or n.args != o.args or n.dst != o.dst, n
            continue
        if isinstance(o, BinaryInstr):
            assert (n.dst, n.op) == (final(o.dst), o.op)
            assert (n.lhs, n.rhs) == (renamed.get(o.lhs, o.lhs), renamed.get(o.rhs, o.rhs))
            changed = n.dst != o.dst or (n.lhs, n.rhs) != (o.lhs, o.rhs)
        elif isinstance(o, CondBr):
            assert n.cond == renamed.get(o.cond, o.cond)
            nested = (n.then_block, n.else_block) != (o.then_block, o.else_block)
            changed = nested or n.cond != o.cond
        else:
            steps = [("index", renamed.get(s[1], s[1])) if s[0] == "index" else s for s in o.steps]
            expect = replace(o, steps=steps, lent=n.lent)
            if not isinstance(o, StorePath):
                expect = replace(expect, dst=final(o.dst))
            assert expect == n
            changed = n.steps != o.steps or expect != replace(o, lent=n.lent)
        assert n.lent or changed, n
        # Each source handed to a reader is consumed there, once.
        consumed = ir_module._operands(n)[1]
        taken += {renamed[a] for a in ir_module._operands(o)[1] if renamed.get(a) in consumed}
    renamed_reads = {a for o in old_readers for a in ir_module._operands(o)[1]} & renamed.keys()
    assert renamed_reads == renamed.keys()
    # New Destroys follow the call that lends their slots.
    after_call = []
    for block in blocks(new.body):
        for k, ins in enumerate(block):
            if isinstance(ins, CallInstr) and id(ins) not in old_ids:
                taken += [a for a in ins.args if a not in ins.lent and a in renamed.values()]
            if not (isinstance(ins, Destroy) and id(ins) not in old_ids):
                continue
            j = k - 1
            while isinstance(block[j], Destroy):
                j -= 1
            call = block[j]
            assert isinstance(call, CallInstr) and id(call) not in old_ids, ins
            assert ins.slot in call.lent, ins
            after_call.append(ins.slot)
    # A Copy that became a Move, even one retargeted away later, took
    # its source's Destroy; an original Move had none.
    lent_params = {s for s, (p, _) in enumerate(new.params) if p == P_LENT}
    handed = [s for s in after_call + taken if s in renamed.values()]
    expected = Counter(i.src for i in fresh if isinstance(i, Move))
    expected -= Counter(i.src for i in old_moves)
    expected.update(i.src for i in retargets if isinstance(i, Copy))
    expected.update(s for s in handed)
    expected.update(i.slot for i in gone if isinstance(i, Destroy) and i.slot in lent_params)
    assert Counter(i.slot for i in gone if isinstance(i, Destroy)) == expected


def test_optimization_leaves_base_alone_and_shares_it():
    changed = unchanged = 0
    for base in base_programs():
        before = dump_ir(base)
        opt = apply_move_optimization(base)
        assert dump_ir(base) == before
        base_ids = {id(i) for i in all_instrs(base)}
        for rid, routine in base.routines.items():
            new = opt.routines[rid]
            fresh = [i for i in walk(new.body) if id(i) not in base_ids]
            if not fresh and count(new.body, Instr) == count(routine.body, Instr):
                assert new is routine, rid
                unchanged += 1
                continue
            changed += 1
            assert new.body is not routine.body
            check_rewrites(routine, new)
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


def test_move_elision_work_is_linear():
    # Line events, since move elision reads a Copy or a Destroy without
    # calling _operands.
    work = {}
    for n in (500, 1000):
        work[n], opt = line_events(apply_move_optimization, copy_chain(n))
        # each Copy becomes a Move, and the chain collapses into its producer
        assert opt.routines[ENTRY_ID].body == [MakeInt(n, 0), Return(n)]
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


# -- lending --------------------------------------------------------------------

FIB_BOX = (
    "struct F { var fn: (F, Int) -> Int } in "
    "let fib: (F, Int) -> Int = (s: F, n: Int) -> Int { "
    "if n < 2 then (if n < 1 then 0 else 1) else s.fn(s, n - 1) + s.fn(s, n - 2) } in "
    "let box: F = F(fib) in box.fn(box, 16)"
)


def test_fib_closure_parameters_are_lent():
    base, opt = fetch(FIB_BOX)
    fn = opt.routines["@fn0"]
    assert "routine @fn0(env, lent F, lent Int)" in dump_ir(opt)
    # neither parameter is copied, moved or destroyed: every read is in place
    for ins in walk(fn.body):
        assert not (isinstance(ins, (Copy, Move)) and ins.src in (1, 2)), ins
        assert not (isinstance(ins, Destroy) and ins.slot in (1, 2)), ins
    # the calls read the box in place and take the Int temporaries
    calls = [i for i in walk(fn.body) if isinstance(i, CallInstr)]
    assert [c.lent for c in calls] == [(1,), (1,)]
    out, stats = execute(opt)
    assert (out, stats.closure_copies) == ("987", 0)
    # naively every one of the 3193 calls copies the box's closure, and
    # F(fib) copies fib
    assert execute(base)[1].closure_copies == 3194


def test_fib_literals_are_constant_operands():
    # Each literal operand is a constant of @fn0, filled in when its frame
    # is made: an inner call runs 3 + 5 instructions and a leaf 3 + 2 + 1
    # (11 and 8 when each literal was a make_int).
    _, opt = fetch(FIB_BOX)
    text = dump_ir(opt)
    assert text[text.index("routine @fn0"):].splitlines()[1:] == [
        "  0: binary < lent %2, #2 -> %6",
        "  1: cond_br %6",
        "  then:",
        "    0: binary < lent %2, #1 -> %9",
        "    1: cond_br %9",
        "    then:",
        "      0: make_int 0 -> %3",
        "    else:",
        "      0: make_int 1 -> %3",
        "  else:",
        "    0: binary - lent %2, #1 -> %12",
        "    1: call %1.fn (lent %1, %12)() -> %13",
        "    2: binary - lent %2, #2 -> %16",
        "    3: call %1.fn (lent %1, %16)() -> %17",
        "    4: binary + %13, %17 -> %3",
        "  2: return %3",
    ]
    fn = opt.routines["@fn0"]
    cond = fn.body[1]
    assert len(fn.body) + len(cond.else_block) == 8  # an inner call
    assert len(fn.body) + len(cond.then_block) + len(cond.then_block[1].then_block) == 6
    # One slot per distinct constant, in the frame template.
    assert [fn.template[s] for s in sorted(fn.consts)] == [2, 1]
    # The naive IR consumes a constant as it would a temporary: it is
    # only read, and verify_linearity accepts both forms.
    base, _ = fetch(FIB_BOX)
    assert "binary < %4, #2 -> %6" in dump_ir(base)


@pytest.mark.parametrize("move_opt", [False, True], ids=["naive", "optimized"])
def test_literal_subscripts_are_constant_steps(move_opt):
    # Loads, stores and inout resolutions take a literal subscript as a
    # constant step: no make_int, and one slot for both uses of 1.
    src = (
        "var a: [Int] = [5, 6] in let f: (inout Int) -> Int = (x: inout Int) -> Int { x } in "
        "a[1] = a[0] + f(&a[1]) in a"
    )
    ir = lower_source(src, move_opt=move_opt)
    text = dump_ir(ir)
    assert "load_path %0[#0]" in text
    assert "resolve_location %0[#1]" in text
    assert "store_path %0[#1]" in text
    assert not re.search(r"make_int [01] ", text)
    entry = ir.routines[ir.entry]
    assert sorted(entry.consts.values()) == [0, 1]
    for cow in (True, False):
        assert execute(ir, cow=cow, debug=True)[0] == "[5, 11]"


@pytest.mark.parametrize(
    "src, outcome",
    [
        (
            "var x: Int = 1 in x + 9223372036854775807",
            "1:19: trap[IntegerOverflow]: integer overflow in '+'",
        ),
        ("1 / 0", "1:1: trap[DivisionByZero]: division by zero"),
        ("var a: [Int] = [1] in a[0] % 0", "1:23: trap[DivisionByZero]: division by zero"),
        ("0.0 / 0.0", "nan"),
        ("var a: [Int] = [1] in a[1]", "1:23: trap[IndexOutOfBounds]: index 1 out of bounds for "
         "array of 1 elements"),
    ],
)
def test_constant_operands_keep_traps_and_values(src, outcome):
    # A constant operand or subscript traps with the kind, position and
    # message of the oracle, which still evaluates each literal.
    typed = check_program(parse_source(src))
    outcomes = set()
    for run in [lambda: interpret_eager(typed)] + [
        lambda ir=ir, cow=cow: execute(ir, cow=cow)[0]
        for ir in fetch(src)
        for cow in (True, False)
    ]:
        try:
            outcomes.add(run())
        except RuntimeTrap as t:
            outcomes.add(t.render(src))
    assert outcomes == {outcome}


def test_returned_parameter_stays_owned():
    # The literal moves a into its result, so the parameter stays owned,
    # and the counters are those of move elision alone.
    src = (
        "let id: ([Int]) -> [Int] = (a: [Int]) -> [Int] { a } in var x: [Int] = [1, 2] in "
        "let y: [Int] = id(x) in let z: [Int] = id(x) in y[0] + z[1]"
    )
    _, opt = fetch(src)
    fn = opt.routines["@fn0"]
    assert fn.params[1][0] == P_VALUE
    assert [type(i) for i in fn.body] == [Move, Return]
    counts = {cow: tuple(execute(opt, cow=cow)[1].as_dict().values()) for cow in (True, False)}
    assert counts == {True: (0, 1, 1, 3, 0, 1, 1, 0), False: (1, 0, 0, 3, 0, 2, 2, 0)}


def entry_call_args_copied(opt):
    """For each call of the entry routine, whether each argument is the
    destination of a Copy."""
    body = opt.routines[opt.entry].body
    copied = {i.dst for i in body if isinstance(i, Copy)}
    return [[a in copied for a in i.args] for i in body if isinstance(i, CallInstr)]


def test_closure_type_that_writes_captures_is_not_lent():
    # c.f(c, n): g writes k in the env of c.f, which lives in c, so c is
    # copied into the call rather than lent.
    name = "lend_captures_written.mvs"
    _, opt = fetch(dict(corpus_sources())[name])
    assert [p for p, _ in opt.routines["@fn0"].params] == ["env", P_VALUE, P_LENT]
    assert entry_call_args_copied(opt) == [[True, False], [True, False]]
    assert execute(opt)[0] == corpus_expected(name)


@pytest.mark.parametrize(
    "name, passing",
    [("lend_captured_callee.mvs", P_LENT), ("lend_captured_callee_writer.mvs", P_VALUE)],
)
def test_calling_a_captured_closure_writes_the_env_only_through_a_writer(name, passing):
    # use(b, xs) calls b.f, which holds h, and h calls the closure it
    # captured.  That call writes h's env only if some literal of the
    # captured closure's type writes its own env, as w does in the
    # second program: only then must b be copied into use.
    _, opt = fetch(dict(corpus_sources())[name])
    (use,) = [r for r in opt.routines.values() if r.ty and isinstance(r.params[1][1], StructType)]
    assert [p for p, _ in use.params] == ["env", passing, P_VALUE]
    assert execute(opt)[0] == corpus_expected(name)


def last_uses(ir):
    """The last uses _last_uses records over every routine of ir, as
    apply_move_optimization decides them: (moves, arm_uses)."""
    moves, arm_uses = {}, {}
    for routine in ir.routines.values():
        ir_module._last_uses(routine.body, moves, arm_uses)
    return moves, arm_uses


def test_writer_types_are_a_fixpoint_over_captured_callees():
    # w writes its capture; h calls w through its env and k calls h, so
    # their types are writers too.  q calls the closure g it captured,
    # which writes nothing, so neither type is a writer.  p takes one
    # closure of each type and uses none: it must own exactly those of a
    # writer type.
    types = ["(Int) -> Int", "(Float) -> Int", "([Int]) -> Int", "([Float]) -> Int",
             "(Int, Int) -> Int"]
    probe = f"({', '.join(types)}) -> Int"
    params = ", ".join(f"c{i}: {t}" for i, t in enumerate(types))
    src = (
        "var n: Int = 0 in "
        "let w: (Int) -> Int = (x: Int) -> Int { n = n + x in n } in "
        "let h: (Float) -> Int = (y: Float) -> Int { w(1) } in "
        "let k: ([Int]) -> Int = (a: [Int]) -> Int { h(1.0) + a[0] } in "
        "let g: ([Float]) -> Int = (a: [Float]) -> Int { 2 } in "
        "let q: (Int, Int) -> Int = (x: Int, y: Int) -> Int { g([1.0]) } in "
        f"let p: {probe} = ({params}) -> Int {{ 0 }} in k([q(1, 2)])"
    )
    base, _ = fetch(src)
    moves, _ = last_uses(base)
    facts = {str(r.ty): ir_module._lending_facts(r, moves) for r in base.routines.values() if r.ty}
    assert facts["(Int) -> Int"][:2] == (True, [])
    assert facts["(Float) -> Int"][0] is False
    assert [str(t) for t in facts["(Float) -> Int"][1]] == ["(Int) -> Int"]
    assert [str(t) for t in facts["(Int, Int) -> Int"][1]] == ["([Float]) -> Int"]
    (ty,) = [r.ty for r in base.routines.values() if str(r.ty) == probe]
    mask, _ = ir_module._Lending(base, moves).get(ty)
    writers = {str(pty) for (_, pty), how in zip(ty.params, mask) if how == ir_module._OWN}
    assert writers == {"(Int) -> Int", "(Float) -> Int", "([Int]) -> Int"}


def test_frame_layout_matches_params():
    """A call writes its by-value arguments and its locations straight
    into the slots Routine.arg_slots and loc_slots name: the by-value (or
    lent) and inout parameters of params, in order, one per parameter of
    the literal's type, which follow the env slot."""
    irs = []
    for f in corpus_files():
        if not corpus_expected(f.name).startswith("error["):
            irs += fetch(f.read_text())
    for seed in range(50):
        base = lower_program(check_program(generate_program(GenConfig(seed))))
        irs += [base, apply_move_optimization(base)]
    for ir in irs:
        for r in ir.routines.values():
            passing = [p for p, _ in r.params]
            assert r.arg_slots == tuple(s for s, p in enumerate(passing) if p in (P_VALUE, P_LENT))
            assert r.loc_slots == tuple(s for s, p in enumerate(passing) if p == P_INOUT)
            if r.ty is None:
                assert r.params == [], r.id
                continue
            assert sorted((0, *r.arg_slots, *r.loc_slots)) == list(range(len(r.ty.params) + 1))
            for slot, (mode, ty) in enumerate(r.ty.params, 1):
                assert r.params[slot][1] == ty
                assert (slot in r.loc_slots) == (mode == "inout"), r.id
    # (Int, inout [Int], S, inout Int, [Int]) interleaves the two kinds.
    _, opt = fetch(dict(corpus_sources())["call_frame_layout.mvs"])
    fn = opt.routines["@fn0"]
    assert (fn.arg_slots, fn.loc_slots) == ((1, 3, 5), (2, 4))
    assert [p for p, _ in fn.params] == ["env", P_LENT, P_INOUT, P_LENT, P_INOUT, P_VALUE]


@pytest.mark.parametrize("name", ["lend_inout_overlap.mvs", "lend_inout_field.mvs"])
def test_binding_under_an_inout_argument_keeps_its_copy(name):
    # put(&a, a) and bump(&p.n, p): the lent parameter is copied before
    # the inout argument resolves, and the copy is lent to the call.
    _, opt = fetch(dict(corpus_sources())[name])
    assert entry_call_args_copied(opt) == [[True]]
    (call,) = [i for i in opt.routines[opt.entry].body if isinstance(i, CallInstr)]
    assert call.lent == tuple(call.args)
    assert execute(opt)[0] == corpus_expected(name)


@pytest.mark.parametrize(
    "src, out",
    [
        (
            "let f: ([Int], Int) -> Int = (v: [Int], z: Int) -> Int { v[0] } in "
            "var a: [Int] = [1, 2] in f(a, (a[0] = 9 in 0))",
            "1",
        ),
        (
            "let g: (inout [Int]) -> Int = (x: inout [Int]) -> Int { x[0] = 7 in 0 } in "
            "let f: ([Int], Int) -> Int = (v: [Int], z: Int) -> Int { v[0] } in "
            "var a: [Int] = [1, 2] in f(a, g(&a))",
            "1",
        ),
        ("var a: Int = 1 in a + (a = 5 in a)", "6"),
        (
            "let f: ([Int], Int) -> Int = (v: [Int], z: Int) -> Int { v[0] } in "
            "var a: [Int] = [1, 2] in f(a, if a[1] then (a[0] = 9 in 0) else 0)",
            "1",
        ),
    ],
    ids=["store-in-argument", "inout-call-in-argument", "store-in-operand", "store-in-branch"],
)
def test_write_before_the_read_keeps_the_copy(src, out):
    # The source is written between its Copy and the call or operand that
    # reads the copy, so reading it in place would see the write.
    _, opt = fetch(src)
    assert any(isinstance(i, Copy) for i in opt.routines[opt.entry].body)
    for cow in (True, False):
        assert execute(opt, cow=cow)[0] == out


def test_scalar_operands_and_conditions_are_read_in_place():
    # The condition is read before the branch writes c.
    _, opt = fetch("var c: Int = 1 in var n: Int = 4 in if c then (c = n * n in c) else n - 1")
    text = dump_ir(opt)
    assert "cond_br lent %0" in text
    assert "binary * lent %1, lent %1" in text
    assert "binary - lent %1" in text
    assert execute(opt)[0] == "16"


def test_subscripts_are_read_in_place():
    # A scalar binding subscripts a load, a store and an inout resolution
    # in place; at its last use the path consumes the binding's own slot.
    src = (
        "var a: [Int] = [5, 6] in var j: Int = 1 in let f: (inout Int) -> Int = "
        "(x: inout Int) -> Int { x } in a[j] = a[j] + f(&a[j]) in a[j]"
    )
    base, opt = fetch(src)
    assert routine_dump(opt, ENTRY_ID)[5:12] == [
        "  4: make_closure @fn0 () -> %4",
        "  5: load_path %0[lent %3] -> %6",
        "  6: resolve_location %0[lent %3] -> %9",
        "  7: call %4 ()(%9) -> %10",
        "  8: binary + %6, %10 -> %11",
        "  9: store_path %0[lent %3] <- %11",
        "  10: load_path %0[%3] -> %12",  # j's last use
    ]
    assert not [i for i in opt.routines[opt.entry].body if type(i) in (Copy, Move)]
    for ir in (base, opt):
        for cow in (True, False):
            assert execute(ir, cow=cow, debug=True)[0] == "12"


def test_a_subscript_written_by_a_later_argument_keeps_its_copy():
    # g(&j) writes j after &a[j]'s subscript is evaluated and before the
    # resolution reads it, so the resolution reads the copy.
    src = (
        "struct U {} in let g: (inout Int) -> Int = (n: inout Int) -> Int { n = 0 in 0 } in "
        "let f: (inout Int, Int) -> U = (x: inout Int, z: Int) -> U { x = 9 in U() } in "
        "var a: [Int] = [5, 6] in var j: Int = 1 in _ = f(&a[j], g(&j)) in a"
    )
    base, opt = fetch(src)
    assert any(type(i) is Copy for i in opt.routines[opt.entry].body)
    for ir in (base, opt):
        assert execute(ir)[0] == "[5, 9]"


def routine_dump(ir, rid):
    text = dump_ir(ir)
    return text[text.index(f"routine {rid}"):].split("\nroutine ")[0].splitlines()


def test_fill_passes_its_inout_parameter_on_and_reads_lo_in_place():
    # Each recursive call is lent fill's own Location for x, with no
    # resolution, and the leaf indexes with lo in place, with no copy.
    _, opt = fetch(workloads.cow_source([1, 2, 3, 4]))
    assert routine_dump(opt, "@fn0") == [
        "routine @fn0(env, lent G, inout [Int], lent [Int], lent Int, lent Int) slots=34",
        "  0: binary - lent %5, lent %4 -> %9",
        "  1: binary < %9, #2 -> %11",
        "  2: cond_br %11",
        "  then:",
        "    0: load_path %3[lent %4] -> %13",
        "    1: binary * %13, #3 -> %16",
        "    2: binary + %16, lent %4 -> %18",
        "    3: store_path %2[lent %4] <- %18",
        "    4: make_struct U () -> %6",
        "  else:",
        "    0: binary + lent %4, lent %5 -> %22",
        "    1: binary / %22, #2 -> %19",
        "    2: call %1.fn (lent %1, lent %3, lent %4, lent %19)(lent %2) -> %28",
        "    3: destroy %28",
        "    4: call %1.fn (lent %1, lent %3, %19, lent %5)(lent %2) -> %6",
        "  3: return %6",
    ]
    fill = opt.routines["@fn0"]
    assert not [i for i in walk(fill.body) if type(i) in (Copy, ResolveLocation)]


def test_the_naive_fill_still_resolves_and_copies():
    # The naive IR, which the *_noopt configs run, re-resolves x for each
    # call and copies lo for each subscript, so the differential harness
    # checks the lent Location against a fresh resolution.
    base, _ = fetch(workloads.cow_source([1, 2, 3, 4]))
    text = "\n".join(routine_dump(base, "@fn0"))
    assert text.count("resolve_location %2 -> ") == 2
    assert text.count("copy %4 -> %12") == text.count("copy %4 -> %14") == 1
    assert "load_path %3[%14] -> %13" in text and "store_path %2[%12] <- " in text


def arm_result(arm):
    """The slot a conditional arm leaves its value in: that of its last
    instruction ahead of the Destroys that end a chain arm, or that of
    both arms of a nested conditional."""
    last = next(ins for ins in reversed(arm) if type(ins) is not Destroy)
    assert type(last) is not Move, last
    if type(last) is CondBr:
        slot = arm_result(last.then_block)
        assert arm_result(last.else_block) == slot
        return slot
    return ir_module._operands(last)[2]


@pytest.mark.parametrize("move_opt", [False, True], ids=["naive", "optimized"])
def test_conditional_arms_produce_into_the_result_slot(move_opt):
    # Literals, binaries, calls and a nested conditional produce straight
    # into the conditional's result slot: no arm ends in a Move.
    src = (
        "let f: (Int) -> Int = (x: Int) -> Int { x * 3 } in var c: Int = 2 in "
        "(if c < 2 then 7 else c + 1) + (if c > 5 then f(c) else (if c > 0 then f(1) else 4))"
    )
    ir = lower_source(src, move_opt=move_opt)
    conds = [ins for ins in ir.routines[ir.entry].body if type(ins) is CondBr]
    assert len(conds) == 2
    for cond in conds:
        assert arm_result(cond.then_block) == arm_result(cond.else_block) is not None
        assert Move not in map(type, walk([cond]))
    assert execute(ir)[0] == "6"


def test_lowering_copies_only_at_a_place_read():
    # Lowering builds each computed value in the slot where it lands, so
    # the naive IR holds no Move, and no Copy of a temporary into a
    # binding, a stored place or an argument: a Copy followed by the
    # Destroy of its own source at the same span.  (A binding read just
    # before its scope-end Destroy, as in let a = [1] in a, is a place
    # read: the Copy has the path's span, the Destroy the binding's.)
    # A chain arm writes the conditional's result slot ahead of its
    # bindings' Destroys.  Seeds are parsed from their printed form, so
    # that their spans are real; neither they nor the corpus have a chain
    # arm with a binding.
    arms = [
        ("var c: Int = 1 in if c then (var x: Int = 5 in x) else 2", "5"),
        (
            "var c: Int = 0 in let f: (Int) -> [Int] = (n: Int) -> [Int] { [n] } in "
            "if c then (let a: [Int] = [1] in let b: [Int] = a in b) "
            "else (var y: [Int] = f(2) in y[0] = y[0] + 1 in if c < 1 then (let z = y in z) else y)",
            "[3]",
        ),
    ]
    irs = []
    for source, out in arms:
        irs.append(lower_source(source, move_opt=False))
        assert execute(irs[-1], cow=False)[0] == out
    irs += [lower_source(s, move_opt=False) for n, s in corpus_sources()
            if not corpus_expected(n).startswith("error[")]
    for seed in range(100):
        source = pretty_program(generate_program(GenConfig(seed)))
        irs.append(lower_source(source, move_opt=False))
    chain_arms = 0
    for ir in irs:
        assert Move not in map(type, all_instrs(ir))
        for r in ir.routines.values():
            for block in blocks(r.body):
                for a, b in zip(block, block[1:]):
                    assert not (type(a) is Copy and b == Destroy(a.src, a.span)), (r.id, a)
                for cond in (ins for ins in block if type(ins) is CondBr):
                    then, orelse = cond.then_block, cond.else_block
                    assert arm_result(then) == arm_result(orelse) is not None
                    chain_arms += (type(then[-1]) is Destroy) + (type(orelse[-1]) is Destroy)
    assert chain_arms == 4


class _NoLending:
    def get(self, ty):
        return (), frozenset()


def test_owned_parameters_are_those_move_elision_moves():
    # Rule (b) and move elision read each parameter's last use from the
    # same walk (_last_uses), and rule (b) runs before the rewrite: what
    # it owns must be what the rewrite moves.  A use in a CondBr arm is
    # not in the body's own block.
    sources = [
        "let f: ([Int], Int) -> [Int] = (a: [Int], n: Int) -> [Int] "
        "{ let k: Int = if n then a[0] else 0 in a } in f([1], 0)",
        "let f: ([Int], Int) -> Int = (a: [Int], n: Int) -> Int "
        "{ let b: [Int] = a in if n then a[0] else b[0] } in f([1], 0)",
        "let f: ([Int]) -> [Int] = (a: [Int]) -> [Int] { a } in f([1])",
        "let f: ([Int]) -> Int = (a: [Int]) -> Int { a[0] } in f([1])",
        "let f: ([Int]) -> Int = (a: [Int]) -> Int { let b = a in b[0] } in f([1])",
        "let f: ([Int]) -> Int = (a: [Int]) -> Int { let b = a in a[0] + b[0] } in f([1])",
        "let f: ([Int], Int) -> [Int] = (a: [Int], n: Int) -> [Int] "
        "{ if n then a else [n] } in f([1], 0)",
        "let f: ([Int]) -> () -> Int = (a: [Int]) -> () -> Int { () -> Int { a[0] } } "
        "in f([1])()",
        FIB_BOX,
    ]
    bases = [lower_source(src, move_opt=False) for src in sources]
    bases += list(base_programs())
    checked = 0
    for base in bases:
        moves, arm_uses = last_uses(base)
        for routine in base.routines.values():
            if routine.ty is None:
                continue
            body = ir_module._elide_moves(routine.body, _NoLending(), moves, arm_uses, ())
            values = {s for s, (p, _) in enumerate(routine.params) if p == P_VALUE}
            # Moved, or handed to the operand or subscript that reads it.
            moved = {
                slot
                for i in body
                if not isinstance(i, Destroy)
                for slot in ir_module._operands(i)[1]
                if slot in values
            }
            indexed = {
                i.base
                for i in walk(routine.body)
                if type(i) is ResolveLocation and i.steps and i.steps[0][0] == "index"
            }
            owned = ir_module._lending_facts(routine, moves)[2]
            assert moved == owned - indexed, routine.id
            checked += bool(moved)
    assert checked >= 3


CALLEE_THROUGH_INDEX = "let g: (Int) -> Int = (n: Int) -> Int { n + 1 } in "


@pytest.mark.parametrize(
    "src, out, passing",
    [
        (dict(corpus_sources())["lend_callee_through_index.mvs"], "5", P_VALUE),
        (
            CALLEE_THROUGH_INDEX
            + "let f: ([[(Int) -> Int]]) -> Int = (fss: [[(Int) -> Int]]) -> Int "
            "{ fss[0][0](1) } in let a: [[(Int) -> Int]] = [[g]] in "
            "let b: [[(Int) -> Int]] = a in f(a) + b[0][0](2) + f(b)",
            "7",
            P_VALUE,
        ),
        # The first step is a field: the duplicate lands in the struct,
        # which the caller and the callee share, so p stays lent.
        (
            "struct P { var fs: [(Int) -> Int] } in " + CALLEE_THROUGH_INDEX
            + "let f: (P) -> Int = (p: P) -> Int { p.fs[0](1) } in "
            "let a: [(Int) -> Int] = [g] in let q: P = P(a) in f(q) + a[0](2) + q.fs[0](3)",
            "9",
            P_LENT,
        ),
    ],
    ids=["array", "nested-array", "struct-field"],
)
def test_borrowed_callee_through_an_index_keeps_the_parameter_owned(src, out, passing):
    # fs[0](1) resolves its callee through an index step, which duplicates
    # a shared block into the parameter's own slot: lent, the duplicate
    # would leak and the caller's block would lose a reference.
    base, opt = fetch(src)
    # f is the literal whose parameter is not g's Int
    (fn,) = [r for r in opt.routines.values() if r.ty and r.params[1][1] != INT]
    assert fn.params[1][0] == passing
    # fs's only use is the resolution, so it is owned for that alone.
    owned = ir_module._lending_facts(base.routines[fn.id], last_uses(base)[0])[2]
    assert owned == ({1} if passing == P_VALUE else set())
    for cow in (True, False):
        assert execute(opt, cow=cow, debug=True)[0] == out


def test_debug_audit_passes_on_lent_slots():
    # Lent parameters hold their caller's values; the audit counts each
    # block where it lives, in both move-optimized configurations.
    irs = [
        lower_source(source)
        for f in corpus_files()
        if not corpus_expected(f.name).startswith("error[")
        for source in [f.read_text()]
    ]
    irs += [
        apply_move_optimization(lower_program(check_program(generate_program(GenConfig(s)))))
        for s in range(50)
    ]
    for ir in irs:
        for cow in (True, False):
            try:
                execute(ir, cow=cow, debug=True)
            except RuntimeTrap:
                pass


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
        # a lent parameter belongs to the caller
        ([(P_LENT, INT)], [Destroy(0), MakeInt(1, 0), Return(1)], "slot 0 not owned"),
        ([(P_LENT, INT)], [Move(1, 0), Return(1)], "slot 0 not owned"),
    ],
)
def test_linearity_rejections(params, body, message):
    routine = Routine(ENTRY_ID, params, body, 4)
    with pytest.raises(AssertionError) as e:
        verify_linearity(IRProgram({ENTRY_ID: routine}, ENTRY_ID, {}))
    text = str(e.value)
    assert text.startswith(f"linearity violation in {ENTRY_ID}")
    assert text.endswith(f": {message}")


def test_linearity_reads_a_lent_parameter_throughout():
    body = [
        MakeInt(1, 1),
        BinaryInstr(2, "<", 0, 1, lent=(0,)),
        CondBr(2, [Copy(3, 0), Destroy(3)], []),
        Copy(4, 0),
        Return(4),
    ]
    verify_linearity(IRProgram({ENTRY_ID: Routine(ENTRY_ID, [(P_LENT, INT)], body, 5)}, ENTRY_ID, {}))


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
