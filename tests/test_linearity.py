"""The front end, lowering, move optimization, the VM and the oracle do
work linear in program size.

Each phase runs under sys.settrace on a program of size N and on one of
size 2N, and the line events executed inside src/mvsl are counted.  The
count is deterministic, so the gate needs no timer: a phase fails when
its count grows more than 2.1x per doubling of the program.  Ratios are
pinned, not counts, since line events differ between CPython versions.

Lexing, parsing and checking are gated on the binding chain and on a
long array literal: tokenize, then parse_source, which lexes again, then
check_program.  Every phase from lexing to the oracle's run is gated on
many struct declarations and closures, on one call with many by-value
arguments, on one call with many inout arguments, each rooted at its own
binding, on one call with many inout arguments that subscript one
array with literals, which the exclusivity check files in a trie of
steps without comparing every pair, on one call with many inout
arguments that subscript one array dynamically, whose places lowering
hands to one OverlapCheck that the VM, like the oracle, runs in one pass
over their trails, and on a chain of conditional bindings, each testing
the one before, so that every earlier binding is live at each CondBr.

The VM's and the oracle's runs are gated on the binding chain and on the
long array literal, the shape of the cow_inout workload's array.  The
oracle is not gated on the passing chain: there it does 3.7x the work
per doubling, because each f{i} deep-copies its capture of f{i - 1} and
every environment nested in it, which the eager semantics requires.
Generated programs do
about 2.3x the executed work per doubling of their lowered instructions,
because bigger programs call more closures, so that ratio measures the
programs rather than the VM.  The passing chain's 2N = 400 nested calls
go deeper than the VM reaches under Python's default recursion limit (a
limit the README documents).  Setting up a VM costs nothing per struct or
closure: it reads the layout lowering fixed.

The hand-written series double their source exactly.  Generated programs
only about double with the size budget, and their mix shifts: at twice
the budget they lower to about 3 % more instructions per source token.
So their size is the number of lowered instructions, the work both
phases walk through.

Blind spot: a C-level builtin counts as one line event whatever it
costs.  A quadratic `list.index`, `in` on a list, string concatenation
or dict copy inside a loop looks linear here.  The linearity check was
such a case: at each CondBr it copied and compared the whole live
state, so on the conditional chain its wall time grew about 3x per
doubling while its line events grew 1.96x.  It now saves and compares
only the slots each arm touches.
"""

import math

from mvsl import (
    GenConfig,
    check_program,
    generate_program,
    interpret_eager,
    parse_source,
    pretty_program,
    tokenize,
)
from mvsl.ir import CondBr, apply_move_optimization, lower_program
from mvsl.vm import VM, execute

from conftest import line_events, lower_source

N = 200  # at most 400: traced runs are slow
LIMIT = 2.1  # line events per doubling of the source


def instructions(ir) -> int:
    blocks = [routine.body for routine in ir.routines.values()]
    n = 0
    while blocks:
        for ins in blocks.pop():
            n += 1
            if isinstance(ins, CondBr):
                blocks += [ins.then_block, ins.else_block]
    return n


def phase_events(sources: list[str], run: bool) -> dict[str, int]:
    """Line events of each phase, and the lowered instructions, summed
    over sources; the VM's and the oracle's runs count only when run is
    set."""
    out = {"lower": 0, "move_opt": 0, "instructions": 0}
    if run:
        out["execute"] = out["oracle"] = 0
    for src in sources:
        typed = check_program(parse_source(src))
        n, base = line_events(lower_program, typed)
        out["lower"] += n
        n, optimized = line_events(apply_move_optimization, base)
        out["move_opt"] += n
        out["instructions"] += instructions(base)
        if run:
            out["execute"] += line_events(execute, optimized)[0]
            out["oracle"] += line_events(interpret_eager, typed)[0]
    return out


def front_end_events(sources: list[str]) -> dict[str, int]:
    """Line events of lexing, parsing and checking, summed over sources."""
    out = {"lex": 0, "parse": 0, "check": 0}
    for src in sources:
        out["lex"] += line_events(tokenize, src)[0]
        n, program = line_events(parse_source, src)
        out["parse"] += n
        out["check"] += line_events(check_program, program)[0]
    return out


def per_doubling(a: dict[str, int], b: dict[str, int], size: float) -> dict[str, float]:
    """Each phase's line-event ratio b / a, scaled to a doubling of the
    program, which grew size times from a to b."""
    return {phase: 2 ** (math.log(b[phase] / a[phase]) / math.log(size)) for phase in a}


def front_end_growth(small: list[str], large: list[str]) -> dict[str, float]:
    size = sum(map(len, large)) / sum(map(len, small))
    return per_doubling(front_end_events(small), front_end_events(large), size)


def array_literal(n: int) -> list[str]:
    """One array literal of n elements, half Ints and half nested sums."""
    elements = ", ".join(f"{i}" if i % 2 else f"({i} + 1)" for i in range(n))
    return [f"var a: [Int] = [{elements}] in a[0]"]


def binding_chain(n: int) -> list[str]:
    chain = "".join(f"var x{i}: Int = x{i - 1} + 1 in " for i in range(1, n))
    return [f"var x0: Int = 1 in {chain}x{n - 1}"]


def conditional_chain(n: int) -> list[str]:
    """n bindings, each a conditional on the one before, so that all the
    earlier bindings are live at each CondBr."""
    chain = "".join(
        f"let x{i}: Int = if x{i - 1} < 5 then x{i - 1} + 1 else x{i - 1} - 1 in "
        for i in range(1, n)
    )
    return [f"var x0: Int = 1 in {chain}x{n - 1}"]


def passing_chain(n: int) -> list[str]:
    """n functions, each passing its by-value parameters on to the last."""
    sig = "([Int], Int) -> Int"
    fns = [f"let f0: {sig} = (a: [Int], k: Int) -> Int {{ a[0] + k }} in "]
    fns += [
        f"let f{i}: {sig} = (a: [Int], k: Int) -> Int {{ f{i - 1}(a, k) + k }} in "
        for i in range(1, n)
    ]
    return ["".join(fns) + f"f{n - 1}([1, 2], 3)"]


def generated(budget: int) -> list[str]:
    return [pretty_program(generate_program(GenConfig(s, size_budget=budget))) for s in range(8)]


def declarations(n: int) -> str:
    """n struct declarations, then n closures that each capture x."""
    structs = "".join(f"struct S{i} {{ var a: Int }} in " for i in range(n))
    closures = "".join(f"let f{i}: () -> Int = () -> Int {{ x }} in " for i in range(n))
    return f"{structs}var x: Int = 1 in {closures}x"


def by_value_call(n: int) -> list[str]:
    """One call with n by-value arguments, arrays and Ints in turn."""
    types = ["[Int]" if i % 2 else "Int" for i in range(n)]
    params = ", ".join(f"a{i}: {t}" for i, t in enumerate(types))
    args = ", ".join(f"[{i}]" if i % 2 else f"{i}" for i in range(n))
    sig = f"({', '.join(types)}) -> Int"
    return [f"let f: {sig} = ({params}) -> Int {{ a0 + a1[0] }} in f({args})"]


def inout_call(n: int) -> list[str]:
    """One call with n inout arguments, each rooted at its own binding."""
    bindings = "".join(f"var x{i}: Int = {i} in " for i in range(n))
    params = ", ".join(f"a{i}: inout Int" for i in range(n))
    sig = f"({', '.join(['inout Int'] * n)}) -> Int"
    args = ", ".join(f"&x{i}" for i in range(n))
    return [f"{bindings}let f: {sig} = ({params}) -> Int {{ a0 + a1 }} in f({args})"]


def subscript_call(n: int) -> list[str]:
    """One call with n inout arguments, &a[0] to &a[n - 1]."""
    params = ", ".join(f"a{i}: inout Int" for i in range(n))
    sig = f"({', '.join(['inout Int'] * n)}) -> Int"
    args = ", ".join(f"&a[{i}]" for i in range(n))
    return [f"var a: [Int] = [{', '.join(['0'] * n)}] in "
            f"let f: {sig} = ({params}) -> Int {{ a0 + a1 }} in f({args})"]


def dynamic_subscript_call(n: int) -> list[str]:
    """One call with n inout arguments, &a[k + 0] to &a[k + n - 1]."""
    params = ", ".join(f"a{i}: inout Int" for i in range(n))
    sig = f"({', '.join(['inout Int'] * n)}) -> Int"
    args = ", ".join(f"&a[k + {i}]" for i in range(n))
    return [f"var a: [Int] = [{', '.join(['0'] * n)}] in var k: Int = 0 in "
            f"let f: {sig} = ({params}) -> Int {{ a0 + a1 }} in f({args})"]


def all_phases_growth(small: list[str], large: list[str]) -> dict[str, float]:
    """Each phase's ratio per doubling, lexing through the oracle's run."""
    return {**front_end_growth(small, large), **growth(small, large, run=True)}


def growth(
    small: list[str], large: list[str], by_instructions: bool = False, run: bool = False
) -> dict[str, float]:
    """Each phase's line-event ratio, scaled to a doubling of the program."""
    a, b = phase_events(small, run), phase_events(large, run)
    if by_instructions:
        size = b.pop("instructions") / a.pop("instructions")
    else:
        del a["instructions"], b["instructions"]
        size = sum(map(len, large)) / sum(map(len, small))
    return per_doubling(a, b, size)


def test_binding_chain_is_linear():
    ratios = growth(binding_chain(N), binding_chain(2 * N), run=True)
    assert all(r <= LIMIT for r in ratios.values()), ratios


def test_every_phase_is_linear_on_a_conditional_chain():
    # The linearity check compares the two arms of each CondBr on the
    # slots they touch, and move-opt's last uses record the slots each
    # arm uses, not the slots live into it.
    ratios = all_phases_growth(conditional_chain(N), conditional_chain(2 * N))
    assert all(r <= LIMIT for r in ratios.values()), ratios


def test_parameter_passing_chain_is_linear():
    ratios = growth(passing_chain(N), passing_chain(2 * N))
    assert all(r <= LIMIT for r in ratios.values()), ratios


def test_generated_programs_are_linear():
    ratios = growth(generated(N), generated(2 * N), by_instructions=True)
    assert all(r <= LIMIT for r in ratios.values()), ratios


def test_vm_setup_is_independent_of_declarations():
    def setup(ir):
        return VM(ir, cow=True, debug=False)

    small, large = (line_events(setup, lower_source(declarations(n)))[0] for n in (N, 2 * N))
    assert small == large, (small, large)


def test_front_end_is_linear_on_the_binding_chain():
    ratios = front_end_growth(binding_chain(N), binding_chain(2 * N))
    assert all(r <= LIMIT for r in ratios.values()), ratios


def test_front_end_is_linear_on_a_long_array_literal():
    ratios = front_end_growth(array_literal(N), array_literal(2 * N))
    assert all(r <= LIMIT for r in ratios.values()), ratios


def test_lowering_and_the_vm_are_linear_on_a_long_array_literal():
    ratios = growth(array_literal(N), array_literal(2 * N), run=True)
    assert all(r <= LIMIT for r in ratios.values()), ratios


def test_every_phase_is_linear_on_declarations():
    ratios = all_phases_growth([declarations(N)], [declarations(2 * N)])
    assert all(r <= LIMIT for r in ratios.values()), ratios


def test_every_phase_is_linear_on_a_call_with_many_by_value_arguments():
    ratios = all_phases_growth(by_value_call(N), by_value_call(2 * N))
    assert all(r <= LIMIT for r in ratios.values()), ratios


def test_every_phase_is_linear_on_a_call_with_many_inout_arguments():
    # The exclusivity check compares only places with a common root.
    ratios = all_phases_growth(inout_call(N), inout_call(2 * N))
    assert all(r <= LIMIT for r in ratios.values()), ratios


def test_every_phase_is_linear_on_a_call_with_many_literal_subscripts():
    # The exclusivity check files places in a trie of their steps.
    ratios = all_phases_growth(subscript_call(N), subscript_call(2 * N))
    assert all(r <= LIMIT for r in ratios.values()), ratios


def test_every_phase_is_linear_on_a_call_with_many_dynamic_subscripts():
    # The call checks all its places at runtime in one pass, not pair by pair.
    ratios = all_phases_growth(dynamic_subscript_call(N), dynamic_subscript_call(2 * N))
    assert all(r <= LIMIT for r in ratios.values()), ratios
