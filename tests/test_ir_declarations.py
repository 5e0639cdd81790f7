"""Each instruction kind's declarations: the role of each slot field and
the printed form.

Every kind declares them in its own class; roles() (the slots an
instruction reads, consumes and produces) and _fmt_instr (its line in
dump_ir) are derived from them.  The golden digests cover every form but
do not show it, so one hand-built instruction per kind, and per printing
rule that only move-opt's output exercises, is pinned here with its
printed line and its operands.
"""

from string import Formatter

import pytest

from mvsl.ir import (
    BinaryInstr,
    CallInstr,
    CondBr,
    Copy,
    Destroy,
    Instr,
    LoadPath,
    MakeArray,
    MakeClosure,
    MakeFloat,
    MakeInt,
    MakeStruct,
    Move,
    OverlapCheck,
    ResolveLocation,
    Return,
    StorePath,
    _fmt_instr,
)
from mvsl.types import IntType

SLOT_ROLES = {"Read", "Produced", "Consumed", "Lendable", "Steps"}

# (instruction, the routine's constants, printed line, (reads, consumes, dst))
CASES = [
    (MakeInt(0, 7), {}, "make_int 7 -> %0", ((), (), 0)),
    (MakeFloat(1, 0.5), {}, "make_float 0.5 -> %1", ((), (), 1)),
    (MakeArray(3, IntType(), [1, 2]), {}, "make_array [Int] (%1, %2) -> %3", ((), (1, 2), 3)),
    (MakeStruct(4, "P", [1, 2]), {}, "make_struct P (%1, %2) -> %4", ((), (1, 2), 4)),
    (MakeClosure(5, "@fn0", [1]), {}, "make_closure @fn0 (%1) -> %5", ((), (1,), 5)),
    (Copy(2, 1), {}, "copy %1 -> %2", ((1,), (), 2)),
    (Move(2, 1), {}, "move %1 -> %2", ((), (1,), 2)),
    (Destroy(3), {}, "destroy %3", ((), (3,), None)),
    # A path with one constant and one lent subscript: the constant is
    # still consumed, which reads it (see verify_linearity).
    (
        LoadPath(5, 0, [("field", "xs", 0), ("index", 9), ("index", 2)], lent=(2,)),
        {9: 1},
        "load_path %0.xs[#1][lent %2] -> %5",
        ((0, 2), (9,), 5),
    ),
    (StorePath(0, [("index", 1)], 2), {}, "store_path %0[%1] <- %2", ((0,), (1, 2), None)),
    (
        ResolveLocation(3, 0, [("field", "a", 1), ("index", 2)]),
        {},
        "resolve_location %0.a[%2] -> %3",
        ((0,), (2,), 3),
    ),
    (OverlapCheck([1, 2, 3]), {}, "overlap_check %1, %2, %3", ((1, 2, 3), (), None)),
    # fib_closure's recursive call: the callee slot is read in place and
    # prints plain, while the same slot, lent as an argument, is marked.
    (
        CallInstr(5, 1, [1, 4], [], lent=(1,), callee_steps=[("field", "fn", 0)]),
        {},
        "call %1.fn (lent %1, %4)() -> %5",
        ((1, 1), (4,), 5),
    ),
    # An inout parameter passed on whole: the caller's Location is lent.
    (
        CallInstr(6, 3, [4], [1, 5], lent=(1,)),
        {},
        "call %3 (%4)(lent %1, %5) -> %6",
        ((3, 1), (4, 5), 6),
    ),
    (CallInstr(3, 0, [1], [2]), {}, "call %0 (%1)(%2) -> %3", ((0,), (1, 2), 3)),
    (BinaryInstr(3, "+", 1, 2), {}, "binary + %1, %2 -> %3", ((), (1, 2), 3)),
    (BinaryInstr(6, "<", 2, 7, lent=(2,)), {7: 2}, "binary < lent %2, #2 -> %6", ((2,), (7,), 6)),
    (CondBr(4, [], []), {}, "cond_br %4", ((), (4,), None)),
    (CondBr(4, [MakeInt(1, 0)], [], lent=(4,)), {}, "cond_br lent %4", ((4,), (), None)),
    (Return(5), {}, "return %5", ((), (5,), None)),
]


def own_fields(kind: type) -> dict[str, str]:
    """The kind's fields and their annotations, as it declares them."""
    return vars(kind)["__annotations__"]


def role(annotation: str) -> str:
    return annotation.removeprefix("list[").removesuffix("]")


@pytest.mark.parametrize("kind", Instr.__subclasses__(), ids=lambda k: k.__name__)
def test_every_kind_declares_its_roles_and_form(kind):
    fields = own_fields(kind)
    slots = {name for name, ann in fields.items() if role(ann) in SLOT_ROLES}
    assert slots, f"{kind.__name__} declares no slot role"
    form = vars(kind).get("form")
    assert isinstance(form, str), f"{kind.__name__} declares no form"
    mnemonic, *_ = form.split()
    assert mnemonic.isidentifier() and mnemonic.islower(), form
    printed = {name for _, name, _, _ in Formatter().parse(form) if name}
    assert printed <= fields.keys(), form
    assert slots <= printed, f"{kind.__name__} does not print {slots - printed}"
    # Only a kind with a Lendable slot has a lent, which moves a slot
    # from consumed to read.
    lendable = any(role(ann) in ("Lendable", "Steps") for ann in fields.values())
    assert lendable == ("lent" in fields), kind.__name__


def test_every_kind_is_pinned():
    assert {type(ins) for ins, *_ in CASES} == set(Instr.__subclasses__())


@pytest.mark.parametrize("ins, consts, line, operands", CASES, ids=[c[2] for c in CASES])
def test_printed_line_and_operands(ins, consts, line, operands):
    assert _fmt_instr(ins, consts) == line
    reads, consumes, dst = ins.roles()
    assert (tuple(reads), tuple(consumes), dst) == operands


def test_lent_slots_move_from_consumed_to_read():
    for ins, *_ in CASES:
        lent = getattr(ins, "lent", ())
        reads, consumes, _ = ins.roles()
        assert set(lent) <= set(reads), ins
        assert not set(lent) & set(consumes), ins


def test_a_store_lends_its_subscripts_not_its_value():
    # The store keeps its value, so only a subscript may be read in place.
    assert list(StorePath(0, [("index", 1)], 2).lendable()) == [1]
