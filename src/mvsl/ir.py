"""Intermediate representation and lowering.

Lowering makes every value lifetime explicit: each read of a place (a
binding, or a path through one) is a Copy or a LoadPath, each binding
leaving scope gets a Destroy, and function literals become global
routines taking their environment record as an extra leading
parameter.  This naive IR is what `--no-move-opt` runs: it copies only
where the eager semantics copies, at a place read.

A literal operand of a BinaryInstr, or a literal subscript of a path
step, costs no instruction: it is a constant of its routine
(Routine.consts), one slot per distinct value, which every frame of the
routine holds from the start.  dump_ir prints it as #value.  Nothing
writes or clears a constant slot, so an instruction that would consume
one only reads it.

Lowering adds no plumbing of its own, and emits no Move.  Each computed
value is produced in the slot where it lands: an initializer in its
binding's slot, a conditional's arms in its result slot, a chain's tail
in the chain's destination, ahead of the Destroys of the chain's
bindings, which free other slots.  A call reads its callee in place and
never consumes it: a callee path of field steps (f, box.fn, a captured
g) from its base slot through those steps, and any other callee, a
temporary or the Location of a callee path with an index step, from a
slot of its own, which a Destroy frees after the call.

The move optimization first decides last use, in one backward walk of
each routine's naive IR (_last_uses), then which by-value parameters
each function type lends (see _Lending); lowering records nothing for
either.  Then it rewrites each block, deciding backward and emitting
forward (_elide_moves).  It rewrites a Copy into a Move and deletes the
source's Destroy whenever that Destroy, in the Copy's own block, is the
source's only later use.  It lends by-value arguments: a call reads a
lent argument in place, and the callee neither copies nor destroys it.
It lends a call an inout parameter passed on whole (&x): the callee
gets the caller's Location, which is not resolved again.  A BinaryInstr, a CondBr or an
index step reads a scalar binding in place, and at the binding's last
use consumes its slot, which an Int or Float leaves as it is.  And a
value is produced where it is moved to: when a Copy becomes a Move and
the instruction emitted above it, Destroys aside, produces its source,
the Move goes and that instruction writes its destination, as the tail
of `let a = [1] in a` does.
The naive IR keeps its Copies and Destroys: they are the naive
strategy's cost.  The only instruction the optimization moves is a
Destroy, to just after a call that reads its slot at the slot's last
use.

Slots are indexes into a routine-local frame.  Instructions form a
tree: straight-line lists plus CondBr, which carries its branch blocks
inline.  Linearity (each produced slot consumed exactly once per path)
is machine-checked by verify_linearity before and after optimization.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from operator import is_

from .ast import (
    ArrayLit,
    Assign,
    Binary,
    Binding,
    Call,
    Chain,
    Cond,
    Expr,
    FieldAcc,
    FloatLit,
    FuncLit,
    InoutArg,
    IntLit,
    Path,
    StructInit,
)
from .diagnostics import NO_SPAN, Span
from .typechecker import StructInfo, TypedProgram
from .types import BY_VALUE, INOUT, ArrayType, FloatType, FuncType, IntType, StructType, Type

# ---------------------------------------------------------------------------
# Instructions

# A path step inside an instruction: ("field", name, offset), where offset
# is the field's position in its struct or environment record and name is
# only printed, or ("index", slot), where slot may be a constant slot.
Step = tuple[str, str, int] | tuple[str, int]
# A routine's constants: slot -> its Int or Float value.
Consts = dict[int, int | float]


class Instr:
    span: Span = NO_SPAN


@dataclass
class MakeInt(Instr):
    dst: int
    value: int
    span: Span = NO_SPAN


@dataclass
class MakeFloat(Instr):
    dst: int
    value: float
    span: Span = NO_SPAN


@dataclass
class MakeArray(Instr):
    dst: int
    element_type: Type
    operands: list[int]
    span: Span = NO_SPAN


@dataclass
class MakeStruct(Instr):
    dst: int
    struct_name: str
    operands: list[int]
    span: Span = NO_SPAN


@dataclass
class MakeClosure(Instr):
    dst: int
    routine_id: str
    operands: list[int]  # captured values, declaration order
    span: Span = NO_SPAN


@dataclass
class Copy(Instr):
    dst: int
    src: int
    span: Span = NO_SPAN


@dataclass
class Move(Instr):
    dst: int
    src: int
    span: Span = NO_SPAN


@dataclass
class Destroy(Instr):
    slot: int
    span: Span = NO_SPAN


@dataclass
class LoadPath(Instr):
    dst: int
    base: int
    steps: list[Step]
    span: Span = NO_SPAN
    lent: tuple[int, ...] = ()  # subscript slots read in place, not consumed


@dataclass
class StorePath(Instr):
    base: int
    steps: list[Step]
    value: int
    span: Span = NO_SPAN
    lent: tuple[int, ...] = ()  # subscript slots read in place, not consumed


@dataclass
class ResolveLocation(Instr):
    dst: int
    base: int
    steps: list[Step]
    # True for a call's callee path with an index step: the location may
    # root at an immutable binding, since invocation is not a mutation.
    borrow: bool = False
    span: Span = NO_SPAN
    lent: tuple[int, ...] = ()  # subscript slots read in place, not consumed


@dataclass
class OverlapCheck(Instr):
    locations: list[int]
    span: Span = NO_SPAN


@dataclass
class CallInstr(Instr):
    dst: int
    callee: int
    args: list[int]
    locations: list[int]
    span: Span = NO_SPAN
    # The callee's type, which fixes the passing convention of each argument.
    fn_type: FuncType | None = None
    # The args and locations lent to the call: read in place, never
    # consumed.  A lent location is an inout parameter of the caller that
    # it passes on whole (&x): the callee gets the caller's Location, which
    # stays in the caller's slot.
    lent: tuple[int, ...] = ()
    # The call reads the closure in place, at these field steps from slot
    # callee, and never consumes it.
    callee_steps: list[Step] = field(default_factory=list)


@dataclass
class BinaryInstr(Instr):
    dst: int
    op: str
    lhs: int
    rhs: int
    span: Span = NO_SPAN
    lent: tuple[int, ...] = ()  # operands read in place, not consumed
    # Float operands (else Int), by which emitted code picks its operator
    # function once; not printed, and no part of equality.
    float_operands: bool = field(default=False, repr=False, compare=False)


@dataclass
class CondBr(Instr):
    cond: int
    then_block: list[Instr]
    else_block: list[Instr]
    span: Span = NO_SPAN
    lent: tuple[int, ...] = ()  # (cond,) when the condition is read in place


@dataclass
class Return(Instr):
    slot: int
    span: Span = NO_SPAN


# Routine parameter passing markers.  A lent parameter is a by-value
# parameter that the caller keeps owning: the routine reads it in place
# and never consumes it.
P_ENV = "env"
P_VALUE = "value"
P_LENT = "lent"
P_INOUT = "inout"


@dataclass(slots=True)
class Routine:
    id: str
    # (passing, type); the env parameter, when present, is first.
    params: list[tuple[str, Type | None]]
    body: list[Instr]
    n_slots: int
    # Captured environment layout, declaration order (None for entry).
    env_fields: list[tuple[str, Type]] | None = None
    # Slots of let bindings and by-value parameters; the VM asserts in
    # debug mode that no store or inout resolution roots in one.
    immutable_slots: frozenset[int] = frozenset()
    # The literal's type (None for the entry), by which move-opt decides
    # how a call passes each by-value argument (see _Lending).
    ty: FuncType | None = None
    # The routine's constants, {slot: Int or Float}: a literal operand of
    # a BinaryInstr or a literal subscript of a path step.  No instruction
    # makes them; every frame of the routine starts with them in place,
    # and nothing writes or clears those slots.
    consts: Consts = field(default_factory=dict)
    # A new frame's slots: None, or the constant in a constant slot.
    template: list = field(init=False, repr=False, compare=False)
    # The frame layout a call fills, derived from params: the slots of
    # the by-value (and lent) parameters and of the inout parameters, in
    # order, matching a CallInstr's args and locations.
    arg_slots: tuple[int, ...] = field(init=False, repr=False, compare=False)
    loc_slots: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        passing = [p for p, _ in self.params]
        self.arg_slots = tuple(s for s, p in enumerate(passing) if p in (P_VALUE, P_LENT))
        self.loc_slots = tuple(s for s, p in enumerate(passing) if p == P_INOUT)
        self.template = [None] * self.n_slots
        for slot, value in self.consts.items():
            self.template[slot] = value


@dataclass
class IRProgram:
    routines: dict[str, Routine]
    entry: str
    structs: dict[str, StructInfo]
    # mvsl.codegen's emitted code, by routine id: filled once per IR and
    # per routine, at its first compilation in any run, and None for a
    # routine that cannot be compiled.  Each IR keeps its own, since
    # move-opt shares untouched Routines between the naive IR and its own.
    compiled: dict = field(default_factory=dict, init=False, compare=False, repr=False)


ENTRY_ID = "@entry"


# ---------------------------------------------------------------------------
# Lowering


class _RoutineBuilder:
    def __init__(self, lowerer: _Lowerer, rid: str, fl: FuncLit | None):
        self.lowerer = lowerer
        self.id = rid
        self.body: list[Instr] = []
        self.blocks: list[list[Instr]] = [self.body]
        self.n_slots = 0
        self.slot_map: dict[int, int] = {}  # binding id -> slot
        self.inout_ids: set[int] = set()  # binding ids of inout params
        self.env_slot: int | None = None
        self.env_steps: dict[int, Step] = {}  # captured binding id -> its field step
        self.params: list[tuple[str, Type | None]] = []
        self.env_fields: list[tuple[str, Type]] | None = None
        self.immutable: set[int] = set()
        self.consts: Consts = {}
        self.const_slots: dict[str, int] = {}  # repr of a constant -> its slot
        if fl is not None:
            self.env_slot = self.new_slot()
            self.params.append((P_ENV, None))
            self.env_fields = []
            assert fl.captures is not None and fl.param_ids is not None
            for i, cap in enumerate(fl.captures):
                self.env_steps[cap.binding_id] = ("field", cap.name, i)
                self.env_fields.append((cap.name, cap.ty))
            assert isinstance(fl.ty, FuncType)
            for param, pid, (passing, pty) in zip(fl.params, fl.param_ids, fl.ty.params):
                slot = self.new_slot()
                self.slot_map[pid] = slot
                if passing == INOUT:
                    self.inout_ids.add(pid)
                    self.params.append((P_INOUT, pty))
                else:
                    self.params.append((P_VALUE, pty))
                    self.immutable.add(slot)

    # -- emission helpers ----------------------------------------------------

    def new_slot(self) -> int:
        self.n_slots += 1
        return self.n_slots - 1

    def emit(self, ins: Instr) -> None:
        self.blocks[-1].append(ins)

    # -- expression lowering --------------------------------------------------

    def lower_chain(self, e: Chain, dst: int | None) -> int:
        """Lower the statements, then the tail into dst, then destroy the
        bindings in reverse; those Destroys free other slots than dst."""
        live: list[Binding] = []
        for s in e.stmts:
            if isinstance(s, Assign):
                self.lower_assign(s)
            elif s.name == "_":
                t = self.lower_value(s.init)
                self.emit(Destroy(t, s.init.span))
            else:
                self.lower_binding(s)
                live.append(s)
        result = self.lower_value(e.tail, dst)
        for s in reversed(live):
            self.emit(Destroy(self.slot_map[s.binding_id], s.span))
        return result

    def lower_binding(self, e: Binding) -> None:
        assert e.binding_id is not None
        slot = self.new_slot()
        self.slot_map[e.binding_id] = slot
        if e.qualifier == "let":
            self.immutable.add(slot)
        self.lower_value(e.init, slot)

    def lower_assign(self, e: Assign) -> None:
        if e.target.root == "_" and not e.target.accessors:
            t = self.lower_value(e.value)
            self.emit(Destroy(t, e.value.span))
            return
        # Subscripts of the target evaluate before the value, left to right.
        base, steps = self.lower_target(e.target)
        v = self.lower_value(e.value)
        self.emit(StorePath(base, steps, v, e.span))

    def lower_target(self, p: Path) -> tuple[int, list[Step]]:
        """Base slot and steps for a write or location path; a root that
        is no slot of this routine is a field of its environment."""
        steps: list[Step] = []
        base = self.slot_map.get(p.root_binding_id)
        if base is None:
            base = self.env_slot
            assert base is not None
            steps.append(self.env_steps[p.root_binding_id])
        for acc in p.accessors:
            if isinstance(acc, FieldAcc):
                steps.append(("field", acc.name, acc.offset))
            else:
                steps.append(("index", self.lower_operand(acc.index)))
        return base, steps

    def emit_path_read(self, p: Path, dst: int) -> None:
        """Read a path into dst; a bare read of a slot that holds its
        value, not an inout Location, is a plain Copy."""
        rid = p.root_binding_id
        if not p.accessors and rid in self.slot_map and rid not in self.inout_ids:
            src = self.slot_map[rid]
            self.emit(Copy(dst, src, p.span))
            return
        base, steps = self.lower_target(p)
        self.emit(LoadPath(dst, base, steps, p.span))

    def lower_value(self, e: Expr, dst: int | None = None) -> int:
        """Lower an expression; returns the slot owning its value: dst
        when given, where the value is produced, else a fresh slot."""
        if isinstance(e, IntLit):
            t = self.new_slot() if dst is None else dst
            self.emit(MakeInt(t, e.value, e.span))
            return t
        if isinstance(e, FloatLit):
            t = self.new_slot() if dst is None else dst
            self.emit(MakeFloat(t, e.value, e.span))
            return t
        if isinstance(e, ArrayLit):
            assert isinstance(e.ty, ArrayType)
            ops = [self.lower_value(x) for x in e.elements]
            t = self.new_slot() if dst is None else dst
            self.emit(MakeArray(t, e.ty.element, ops, e.span))
            return t
        if isinstance(e, StructInit):
            ops = [self.lower_value(a) for a in e.args]
            t = self.new_slot() if dst is None else dst
            self.emit(MakeStruct(t, e.name, ops, e.span))
            return t
        if isinstance(e, Path):
            t = self.new_slot() if dst is None else dst
            self.emit_path_read(e, t)
            return t
        if isinstance(e, FuncLit):
            return self.lower_funclit(e, dst)
        if isinstance(e, Call):
            return self.lower_call(e, dst)
        if isinstance(e, Binary):
            lhs = self.lower_operand(e.lhs)
            rhs = self.lower_operand(e.rhs)
            t = self.new_slot() if dst is None else dst
            floats = type(e.lhs.ty) is FloatType
            self.emit(BinaryInstr(t, e.op, lhs, rhs, e.span, float_operands=floats))
            return t
        if isinstance(e, Chain):
            return self.lower_chain(e, dst)
        if isinstance(e, Cond):
            result = self.new_slot() if dst is None else dst
            cond = self.lower_value(e.cond)
            then_block: list[Instr] = []
            else_block: list[Instr] = []
            self.lower_arm(e.then, then_block, result)
            self.lower_arm(e.orelse, else_block, result)
            self.emit(CondBr(cond, then_block, else_block, e.span))
            return result
        raise AssertionError(f"cannot lower {e!r} as an operand")

    def lower_operand(self, e: Expr) -> int:
        """Lower a Binary operand or a subscript.  A literal is a constant
        slot of the routine, one per distinct value, and costs no
        instruction; anything else is lowered as a value."""
        if type(e) is not IntLit and type(e) is not FloatLit:
            return self.lower_value(e)
        key = repr(e.value)  # keeps 1 and 1.0, and 0.0 and -0.0, apart
        slot = self.const_slots.get(key)
        if slot is None:
            slot = self.const_slots[key] = self.new_slot()
            self.consts[slot] = e.value
        return slot

    def lower_arm(self, e: Expr, block: list[Instr], result: int) -> None:
        """Lower a conditional arm into block, producing its value in the
        conditional's result slot."""
        self.blocks.append(block)
        self.lower_value(e, result)
        self.blocks.pop()

    def lower_funclit(self, e: FuncLit, dst: int | None) -> int:
        routine = self.lowerer.lower_routine(e)
        assert e.captures is not None
        ops = []
        for cap in e.captures:
            t = self.new_slot()
            self.emit_path_read(Path(cap.name, span=e.span, root_binding_id=cap.binding_id), t)
            ops.append(t)
        if dst is None:
            dst = self.new_slot()
        self.emit(MakeClosure(dst, routine.id, ops, e.span))
        return dst

    def lower_call(self, e: Call, dst: int | None) -> int:
        assert e.checked_places is not None
        # The call's places, indexed like checked_places: a path callee,
        # borrowed in place so environment mutations persist in the named
        # closure value, then the inout arguments.  A callee path of field
        # steps only is read in place by the call itself: its walk cannot
        # trap, and it is never checked, so it stands in places as its
        # base slot.  Any other callee is a slot of this call, a
        # temporary or a Location, which the call reads in place and a
        # Destroy frees after it.
        targets: list[tuple[Path, int, list[Step]]] = []
        places: list[int] = []
        callee_steps: list[Step] = []
        if isinstance(e.callee, Path):
            callee, steps = self.lower_target(e.callee)
            if all(step[0] == "field" for step in steps):
                callee_steps = steps
                places.append(callee)
            else:
                targets.append((e.callee, callee, steps))
        else:
            callee = self.lower_value(e.callee)
        owned = not places
        # Arguments evaluate left to right; an inout argument's
        # contribution is its subscript temporaries.  All places are then
        # resolved adjacent to the call, so no user code runs between a
        # resolution and the call it feeds, and checked together, once.
        args: list[int] = []
        for a in e.args:
            if isinstance(a, InoutArg):
                targets.append((a.path, *self.lower_target(a.path)))
            else:
                args.append(self.lower_value(a))
        for p, base, steps in targets:
            loc = self.new_slot()
            self.emit(ResolveLocation(loc, base, steps, p is e.callee, p.span))
            places.append(loc)
        if e.checked_places:
            self.emit(OverlapCheck([places[i] for i in e.checked_places], e.span))
        if isinstance(e.callee, Path):
            callee = places.pop(0)
        if dst is None:
            dst = self.new_slot()
        call = CallInstr(dst, callee, args, places, e.span, e.callee.ty, callee_steps=callee_steps)
        self.emit(call)
        if owned:
            self.emit(Destroy(callee, e.span))
        return dst

    def finish(self, result: int, ty: FuncType | None, span: Span) -> Routine:
        for slot in range(len(self.params) - 1, -1, -1):
            if self.params[slot][0] == P_VALUE:
                self.emit(Destroy(slot, span))
        self.emit(Return(result, span))
        return Routine(
            self.id,
            self.params,
            self.body,
            self.n_slots,
            self.env_fields,
            frozenset(self.immutable),
            ty,
            self.consts,
        )


class _Lowerer:
    def __init__(self, tp: TypedProgram):
        self.tp = tp
        self.routines: dict[str, Routine] = {}
        self.next_fn = 0

    def lower_routine(self, fl: FuncLit) -> Routine:
        rid = f"@fn{self.next_fn}"
        self.next_fn += 1
        b = _RoutineBuilder(self, rid, fl)
        result = b.lower_value(fl.body)
        assert isinstance(fl.ty, FuncType)
        routine = b.finish(result, fl.ty, fl.span)
        self.routines[rid] = routine
        return routine

    def lower(self) -> IRProgram:
        b = _RoutineBuilder(self, ENTRY_ID, None)
        result = b.lower_value(self.tp.program.entry)
        routine = b.finish(result, None, self.tp.program.entry.span)
        self.routines[ENTRY_ID] = routine
        return IRProgram(self.routines, ENTRY_ID, self.tp.structs)


def lower_program(tp: TypedProgram) -> IRProgram:
    """Lower a type-checked program to naive IR (no move elision)."""
    ir = _Lowerer(tp).lower()
    verify_linearity(ir)
    return ir


# ---------------------------------------------------------------------------
# Move optimization


def _operands(ins: Instr) -> tuple[Sequence[int], Sequence[int], int | None]:
    """The slots ins only reads, the slots it consumes, and the slot it
    produces (or None); the instructions of nested blocks are excluded."""
    t = type(ins)  # the kinds by how often each reaches here in generated programs
    if t is BinaryInstr:
        if ins.lent:
            return ins.lent, [s for s in (ins.lhs, ins.rhs) if s not in ins.lent], ins.dst
        return (), (ins.lhs, ins.rhs), ins.dst
    if t is CallInstr:
        lent = ins.lent
        if not lent:
            return (ins.callee,), [*ins.args, *ins.locations], ins.dst
        owned = [a for a in (*ins.args, *ins.locations) if a not in lent]
        return (ins.callee, *lent), owned, ins.dst
    if t is Destroy:
        return (), (ins.slot,), None
    if t is LoadPath or t is ResolveLocation or t is StorePath:
        owned = [s[1] for s in ins.steps if s[0] == "index" and s[1] not in ins.lent]
        if t is StorePath:
            return (ins.base, *ins.lent), [*owned, ins.value], None
        return (ins.base, *ins.lent), owned, ins.dst
    if t is CondBr:
        if ins.lent:
            return ins.lent, (), None
        return (), (ins.cond,), None
    if t is Copy:
        return (ins.src,), (), ins.dst
    if t is Return:
        return (), (ins.slot,), None
    if t is MakeArray or t is MakeStruct or t is MakeClosure:
        return (), ins.operands, ins.dst
    if t is MakeInt or t is MakeFloat:
        return (), (), ins.dst
    if t is Move:
        return (), (ins.src,), ins.dst
    if t is OverlapCheck:
        return ins.locations, (), None
    raise AssertionError(f"unknown instruction {ins!r}")


def _holds_writer(ty: Type, writers: set[FuncType], structs: dict[str, StructInfo]) -> bool:
    """Whether a value of type ty can hold a closure whose type is in
    writers, through struct fields and array elements."""
    todo, seen = [ty], set()
    while todo:
        t = todo.pop()
        if type(t) is FuncType:
            if t in writers:
                return True
        elif type(t) is ArrayType:
            todo.append(t.element)
        elif type(t) is StructType and t.name not in seen:
            seen.add(t.name)
            todo.extend(structs[t.name].field_types)
    return False


# How a call passes each by-value argument (see _Lending).
_OWN = 0  # the callee owns it
_LEND = 1  # the callee reads it in place; the caller keeps it and destroys it
_LEND_SCALAR = 2  # lent, and an Int or Float, which needs no destroy
_LENDS_NONE: tuple[tuple[int, ...], frozenset[int]] = ((), frozenset())


def _last_uses(
    block: list[Instr], moves: dict[int, int], arm_uses: dict[int, set[int]]
) -> dict[int, int | None]:
    """Decide last use in one backward walk of a block of naive IR and of
    its CondBrs' arms, before anything is lent.  Records in moves each
    Copy, by id, whose source's only later use is the source's Destroy in
    the same block, mapped to that Destroy's index, and in arm_uses each
    CondBr, by id, mapped to the slots its arms read, consume or destroy.
    Returns a dict whose keys are those slots for block itself.
    """
    # A slot used below the current instruction -> the index of its
    # Destroy when that is its only later use, else None.
    later: dict[int, int | None] = {}
    i = len(block)
    for ins in reversed(block):
        i -= 1
        t = type(ins)
        if t is BinaryInstr:
            later[ins.lhs] = later[ins.rhs] = None
        elif t is Destroy:
            later[ins.slot] = i
        elif t is Copy:
            j = later.get(ins.src)
            if j is not None:
                moves[id(ins)] = j
            later[ins.src] = None
        elif t is not MakeInt and t is not MakeFloat:
            if t is CondBr:
                used = _last_uses(ins.then_block, moves, arm_uses).keys()
                used |= _last_uses(ins.else_block, moves, arm_uses).keys()
                arm_uses[id(ins)] = used
                later.update(dict.fromkeys(used))
            reads, consumes, _ = _operands(ins)
            for slot in reads:
                later[slot] = None
            for slot in consumes:
                later[slot] = None
    return later


def _lending_facts(routine: Routine, moves: dict) -> tuple[bool, list[FuncType], set[int]]:
    """What _Lending needs of one literal, read off its naive IR in one
    walk: whether it writes its environment itself (a store or a Location
    rooted at the env slot, 0, since even an index step on the way to a
    borrowed callee may put a duplicate of a shared block there), the
    closure types it calls through a field path from slot 0, and the
    by-value parameter slots it must own:

    - one copied by a Copy in moves (see _last_uses), its last use, which
      _elide_moves turns into a Move (only the exit Destroys name a parameter);
    - one that a borrowed callee path enters through an index step (only
      a borrowed callee can root at a by-value parameter): resolving it
      may put a duplicate of a shared block into the slot, which a lent
      slot, never destroyed, would leak while the caller's block lost a
      reference.
    """
    params = {s for s, (passing, _) in enumerate(routine.params) if passing == P_VALUE}
    writes_env = False
    env_callees: list[FuncType] = []
    owned: set[int] = set()
    todo = [routine.body]
    while todo:
        for ins in todo.pop():
            t = type(ins)
            if t is Copy:
                if ins.src in params and id(ins) in moves:
                    owned.add(ins.src)
            elif t is StorePath or t is ResolveLocation:
                writes_env = writes_env or ins.base == 0
                if t is ResolveLocation and ins.base in params and ins.steps[0][0] == "index":
                    owned.add(ins.base)
            elif t is CallInstr:
                if ins.callee == 0:
                    env_callees.append(ins.fn_type)
            elif t is CondBr:
                todo += [ins.else_block, ins.then_block]
    return writes_env, env_callees, owned


class _Lending:
    """How each function type passes its by-value parameters, in order.

    A parameter is lent unless (a) its type can hold a closure of a
    writer type, because calling such a closure mutates it in place, even
    through a lent binding; or (b) some literal of the type must own it.
    A writer type has a literal that writes its environment itself, or
    that calls a captured closure of a writer type: a least fixpoint, one
    worklist pass.  An Int or Float is always lent: it holds no closure,
    and its copy costs no more than a move.  The facts come from one walk
    of each literal's naive IR (_lending_facts) and from _last_uses.
    """

    def __init__(self, ir: IRProgram, moves: dict[int, int]):
        writers: set[FuncType] = set()
        callers: dict[FuncType, set[FuncType]] = {}
        owned: dict[FuncType, set[int]] = {}
        for r in ir.routines.values():
            if r.ty is None:
                continue
            writes_env, env_callees, owned_params = _lending_facts(r, moves)
            if writes_env:
                writers.add(r.ty)
            for ty in env_callees:
                callers.setdefault(ty, set()).add(r.ty)
            owned.setdefault(r.ty, set()).update(owned_params)
        todo = list(writers)
        while todo:
            for caller in callers.get(todo.pop(), ()):
                if caller not in writers:
                    writers.add(caller)
                    todo.append(caller)
        # Type -> how it passes each by-value parameter, and the slots of
        # its literals' lent parameters (slot 0 is the env).
        self.by_type: dict[FuncType, tuple[tuple[int, ...], frozenset[int]]] = {}
        for ty, slots in owned.items():
            mask, lent = [], []
            for slot, (passing, pty) in enumerate(ty.params, 1):
                if passing != BY_VALUE:
                    continue
                if type(pty) is IntType or type(pty) is FloatType:
                    how = _LEND_SCALAR
                elif slot in slots or (writers and _holds_writer(pty, writers, ir.structs)):
                    how = _OWN
                else:
                    how = _LEND
                mask.append(how)
                if how:
                    lent.append(slot)
            if lent:
                self.by_type[ty] = (tuple(mask), frozenset(lent))

    def get(self, ty: FuncType | None) -> tuple[tuple[int, ...], frozenset[int]]:
        """How ty passes its by-value parameters and the slots its literals
        lend; ((), frozenset()) if it lends none."""
        return self.by_type.get(ty, _LENDS_NONE)


def _lent_reads(slots: Sequence[int], renamed: dict[int, int], handed: set[int]) -> tuple[int, ...]:
    """The sources that an instruction reading slots, some of them deleted
    Copies' temporaries, reads in place: each renamed temporary's source,
    unless the Copy was the source's last use, which hands it over."""
    return tuple([renamed[s] for s in slots if s in renamed and s not in handed])


def _elide_moves(
    block: list[Instr],
    lending: _Lending,
    moves: dict[int, int],
    arm_uses: dict[int, set[int]],
    loc_params: tuple[int, ...],
    lent_params: frozenset[int] = frozenset(),
) -> list[Instr]:
    """Rewrite the Copies of one block: decide in one backward walk, from
    moves and arm_uses as _last_uses keyed them by these very instructions'
    ids, then emit the block in one forward walk, rewriting each reader.

    - A Copy in moves becomes a Move, and its source's Destroy is dropped.
      The Destroys of lent_params, the routine's lent parameters, are
      dropped, and their Copies stay.
    - A Copy into an argument that the call's type lends is deleted: the
      call reads the source in place.  Where the Copy was the source's
      last use, the source's Destroy moves to just after the call.
    - A Copy into a BinaryInstr operand, a CondBr condition or the
      subscript of an index step is deleted likewise: the instruction
      reads the source in place, or, at the source's last use, consumes
      it, and the source's Destroy is dropped.  These are Ints or Floats,
      which need no destroy.
    - Any other argument at a lent position is a temporary, destroyed by
      the caller just after the call.  An Int or Float needs no destroy,
      so such a temporary, or a source whose Destroy would follow the
      call, is handed to the call instead.
    - A ResolveLocation of one of loc_params, the routine's inout
      parameters, with no steps is deleted: the call it feeds is lent the
      parameter's own Location.  No OverlapCheck reads it, since any
      other place of the call with the same root overlaps it statically.
    - A Move folds into the closest instruction emitted above it, Destroys
      aside, if that produces its source: it writes the Move's destination
      instead, as for a binding read at its last use right after it is
      made.  Chains of Moves collapse; a CondBr produces nothing.
    A Copy is deleted only if nothing writes or consumes its source
    between it and the instruction that reads it.  Returns the rewritten
    block, which is block itself when nothing changed.
    """
    n = len(block)
    # A temporary that a call at a lent position or as a location, a
    # BinaryInstr, a CondBr or an index step reads -> the index of that
    # reader.
    readers: dict[int, int] = {}
    # A slot -> the first index after the current one that writes or
    # consumes it; a reader at that index reads before it writes.
    clobbered: dict[int, int] = {}
    # Deleted Copy's temporary -> the source read instead; deleted
    # ResolveLocation's location -> the inout parameter lent instead.
    renamed: dict[int, int] = {}
    # Renamed temporaries whose Copy was the source's last use: the
    # reader takes the source, or a call's caller destroys it after it.
    handed: set[int] = set()
    skip: set[int] = set()  # indexes of the instructions deleted
    masks: dict[int, tuple[int, ...]] = {}  # a call's index -> how it passes its arguments
    rewrites = False  # a call lends a non-scalar, or a CondBr's arms may change
    i = n
    for ins in reversed(block):
        i -= 1
        t = type(ins)
        if t is BinaryInstr:
            readers[ins.lhs] = readers[ins.rhs] = i
        elif t is Destroy:
            if ins.slot in lent_params:
                skip.add(i)
        elif t is Copy:
            src = ins.src
            j = moves.get(id(ins))
            k = readers.get(ins.dst)
            if j is not None and src not in lent_params:
                skip.add(j)
                if k is None:
                    clobbered[src] = i  # a Move
                else:
                    renamed[ins.dst] = src
                    handed.add(ins.dst)
                    skip.add(i)
                    # Any reader but a call consumes src at k, so it
                    # cannot read src in place for another operand.
                    clobbered[src] = k if type(block[k]) is CallInstr else k - 1
            elif k is not None and clobbered.get(src, n) >= k:
                renamed[ins.dst] = src
                skip.add(i)
        elif t is CallInstr:
            masks[i] = mask = lending.get(ins.fn_type)[0]
            rewrites = rewrites or _LEND in mask
            for a, how in zip(ins.args, mask):
                if how:
                    readers[a] = i
            for a in ins.locations:
                readers[a] = i
        elif t is CondBr:
            rewrites = True
            assert id(ins) in arm_uses, "arm_uses does not come from _last_uses over this IR"
            clobbered.update(dict.fromkeys(arm_uses[id(ins)], i))
            readers[ins.cond] = i
        elif t is LoadPath or t is StorePath or t is ResolveLocation:
            for step in ins.steps:
                if step[0] == "index":
                    readers[step[1]] = i
            if t is StorePath:
                clobbered[ins.base] = i
            elif t is ResolveLocation and not ins.borrow:
                clobbered[ins.base] = i
                if not ins.steps and ins.base in loc_params:
                    renamed[ins.dst] = ins.base
                    skip.add(i)
    if not (rewrites or skip or renamed):  # every Move drops a Destroy
        return block
    # Rewritten instructions are built by dataclasses.replace, through
    # their constructor: on CPython 3.11 an instance given a whole new
    # __dict__ instead reads its fields more slowly in the VM.
    out: list[Instr] = []
    # The index in out of the latest emitted instruction other than a
    # Destroy, or -1 after a deleted one: a Move of the slot it produces
    # folds into it.  The Destroys in between free other slots.
    at = -1
    for i, ins in enumerate(block):
        t = type(ins)
        if t is BinaryInstr:
            if ins.lhs in renamed or ins.rhs in renamed:
                lent = _lent_reads((ins.lhs, ins.rhs), renamed, handed)
                lhs, rhs = renamed.get(ins.lhs, ins.lhs), renamed.get(ins.rhs, ins.rhs)
                ins = replace(ins, lhs=lhs, rhs=rhs, lent=lent)
        elif t is Destroy:
            if i not in skip:
                out.append(ins)
            continue
        elif i in skip:
            at = -1
            continue
        elif t is Copy:
            if id(ins) in moves and ins.src not in lent_params:
                if at >= 0 and getattr(out[at], "dst", None) == ins.src:
                    out[at] = replace(out[at], dst=ins.dst)
                    continue
                ins = Move(ins.dst, ins.src, ins.span)
        elif t is CallInstr:
            mask = masks[i]
            after: list[Instr] = []
            if renamed or _LEND in mask:
                args, lent, taken = [], [], []
                for a, how in zip(ins.args, mask or (_OWN,) * len(ins.args)):
                    src = renamed.get(a, a)
                    args.append(src)
                    if a in renamed and a not in handed:
                        lent.append(src)  # read in place
                    elif how == _LEND:
                        lent.append(src)
                        after.append(Destroy(src, ins.span))
                    elif how:
                        taken.append(src)  # a scalar: the call takes it
                # A scalar taken that is also read in place is destroyed after all.
                after += [Destroy(src, ins.span) for src in taken if src in lent]
                locations = [renamed.get(a, a) for a in ins.locations]
                lent += [a for a in locations if a in loc_params]
                if lent or args != ins.args:
                    ins = replace(ins, args=args, locations=locations, lent=tuple(lent))
            at = len(out)
            out.append(ins)
            out += after
            continue
        elif t is CondBr:
            then = _elide_moves(ins.then_block, lending, moves, arm_uses, loc_params)
            orelse = _elide_moves(ins.else_block, lending, moves, arm_uses, loc_params)
            if ins.cond in renamed or then is not ins.then_block or orelse is not ins.else_block:
                lent = _lent_reads((ins.cond,), renamed, handed)
                cond = renamed.get(ins.cond, ins.cond)
                ins = replace(ins, cond=cond, then_block=then, else_block=orelse, lent=lent)
        elif renamed and (t is LoadPath or t is StorePath or t is ResolveLocation):
            subs = [step[1] for step in ins.steps if step[0] == "index"]
            if any(s in renamed for s in subs):
                steps = [
                    ("index", renamed.get(step[1], step[1])) if step[0] == "index" else step
                    for step in ins.steps
                ]
                ins = replace(ins, steps=steps, lent=_lent_reads(subs, renamed, handed))
        at = len(out)
        out.append(ins)
    return block if len(out) == n and all(map(is_, out, block)) else out


def apply_move_optimization(ir: IRProgram) -> IRProgram:
    """Return ir with last-use Copies rewritten to Moves, arguments lent
    where the callee's type lends them, and scalar operands read in place.

    ir itself is left unchanged.  The result shares with it every
    routine, block and instruction that the rewrite does not touch.
    """
    moves: dict[int, int] = {}
    arm_uses: dict[int, set[int]] = {}
    for routine in ir.routines.values():
        _last_uses(routine.body, moves, arm_uses)
    lending = _Lending(ir, moves)
    routines: dict[str, Routine] = {}
    for rid, routine in ir.routines.items():
        params = routine.params
        lent = lending.get(routine.ty)[1]
        if lent:
            params = [(P_LENT, p[1]) if s in lent else p for s, p in enumerate(params)]
        body = _elide_moves(routine.body, lending, moves, arm_uses, routine.loc_slots, lent)
        if body is routine.body:
            routines[rid] = routine
        else:
            routines[rid] = replace(routine, params=params, body=body)
    out = IRProgram(routines, ir.entry, ir.structs)
    verify_linearity(out)
    return out


# ---------------------------------------------------------------------------
# Linearity verification

# The states of a live slot; a slot that holds nothing has no entry.
# Every live slot is readable, and only an owned one can be consumed.
_OWNED = "owned"
# A parameter other than an owned by-value one (the env, a lent
# parameter or an inout Location), live for the whole routine.
_BORROWED = "borrowed"
_CONST = "const"  # a constant, live for the whole routine; consuming it reads it


class _LinearityError(AssertionError):
    pass


def _lin_fail(rid: str, ins: Instr, msg: str) -> _LinearityError:
    return _LinearityError(f"linearity violation in {rid} at {ins}: {msg}")


def verify_linearity(ir: IRProgram) -> None:
    """Check that every slot is produced once and consumed exactly once
    along each control-flow path (Copy only reads its source, and a lent
    argument or operand is only read).  A lent parameter is readable
    throughout its routine and never consumed; so is a constant, and an
    instruction that would consume one only reads it."""
    for routine in ir.routines.values():
        state = dict.fromkeys(routine.consts, _CONST)
        for i, (passing, _) in enumerate(routine.params):
            state[i] = _OWNED if passing == P_VALUE else _BORROWED
        _verify_block(routine.id, routine.body, state, top=True)
        for slot, st in state.items():
            if st == _OWNED:
                raise _LinearityError(
                    f"linearity violation in {routine.id}: slot {slot} leaks at exit"
                )


def _verify_block(
    rid: str, block: list[Instr], state: dict[int, str], top: bool, undo: dict | None = None
) -> None:
    """Verify block from state, which it updates.  undo, when given,
    gets each slot's state before the block first changed it (None for
    no entry), so that a CondBr can check its arms against each other in
    time linear in the slots they touch, not in the slots live."""
    for idx, ins in enumerate(block):
        t = type(ins)
        if t is Return and (not top or idx != len(block) - 1):
            raise _lin_fail(rid, ins, "Return must end the routine body")
        reads, consumes, dst = _operands(ins)
        for slot in reads:
            if slot not in state:
                raise _lin_fail(rid, ins, f"slot {slot} not readable")
        for slot in consumes:
            st = state.get(slot)
            if st == _OWNED:
                if undo is not None and slot not in undo:
                    undo[slot] = st
                del state[slot]
            elif st != _CONST:
                raise _lin_fail(rid, ins, f"slot {slot} not owned")
        if dst is not None:
            if dst in state:
                raise _lin_fail(rid, ins, f"slot {dst} already live")
            if undo is not None and dst not in undo:
                undo[dst] = None
            state[dst] = _OWNED
        if t is CondBr:
            # Run the then arm, note its end state of each slot it
            # touched and roll it back; then run the else arm in place.
            then_undo: dict[int, str | None] = {}
            else_undo: dict[int, str | None] = {}
            _verify_block(rid, ins.then_block, state, False, then_undo)
            then_end = {slot: state.get(slot) for slot in then_undo}
            for slot, st in then_undo.items():
                if st is None:
                    state.pop(slot, None)
                else:
                    state[slot] = st
            _verify_block(rid, ins.else_block, state, False, else_undo)
            # A slot that only the else arm touched ends the then arm as
            # it was at the branch.
            then_end = {**else_undo, **then_end}
            if any(state.get(slot) != st for slot, st in then_end.items()):
                raise _lin_fail(rid, ins, "branch end states differ")
            if undo is not None:
                for slot, st in else_undo.items():
                    undo.setdefault(slot, st)
    if top and (not block or not isinstance(block[-1], Return)):
        raise _LinearityError(f"linearity violation in {rid}: body must end with Return")


# ---------------------------------------------------------------------------
# Dump


def _fmt_read(slot: int, consts: Consts, lent: tuple[int, ...]) -> str:
    """An operand: a constant as #value, or a slot, marked when it is
    read in place rather than consumed."""
    if slot in consts:
        return f"#{consts[slot]!r}"
    return f"lent %{slot}" if slot in lent else f"%{slot}"


def _fmt_steps(steps: list[Step], consts: Consts, lent: tuple[int, ...] = ()) -> str:
    out = []
    for step in steps:
        out.append(f".{step[1]}" if step[0] == "field" else f"[{_fmt_read(step[1], consts, lent)}]")
    return "".join(out)


def _fmt_instr(ins: Instr, consts: Consts) -> str:
    if isinstance(ins, MakeInt):
        return f"make_int {ins.value} -> %{ins.dst}"
    if isinstance(ins, MakeFloat):
        return f"make_float {ins.value!r} -> %{ins.dst}"
    if isinstance(ins, MakeArray):
        ops = ", ".join(f"%{o}" for o in ins.operands)
        return f"make_array [{ins.element_type}] ({ops}) -> %{ins.dst}"
    if isinstance(ins, MakeStruct):
        ops = ", ".join(f"%{o}" for o in ins.operands)
        return f"make_struct {ins.struct_name} ({ops}) -> %{ins.dst}"
    if isinstance(ins, MakeClosure):
        ops = ", ".join(f"%{o}" for o in ins.operands)
        return f"make_closure {ins.routine_id} ({ops}) -> %{ins.dst}"
    if isinstance(ins, Copy):
        return f"copy %{ins.src} -> %{ins.dst}"
    if isinstance(ins, Move):
        return f"move %{ins.src} -> %{ins.dst}"
    if isinstance(ins, Destroy):
        return f"destroy %{ins.slot}"
    if isinstance(ins, LoadPath):
        return f"load_path %{ins.base}{_fmt_steps(ins.steps, consts, ins.lent)} -> %{ins.dst}"
    if isinstance(ins, StorePath):
        return f"store_path %{ins.base}{_fmt_steps(ins.steps, consts, ins.lent)} <- %{ins.value}"
    if isinstance(ins, ResolveLocation):
        path = f"%{ins.base}{_fmt_steps(ins.steps, consts, ins.lent)}"
        return f"resolve_location {path} -> %{ins.dst}"
    if isinstance(ins, OverlapCheck):
        return "overlap_check " + ", ".join(f"%{loc}" for loc in ins.locations)
    if isinstance(ins, CallInstr):
        args = ", ".join(_fmt_read(a, consts, ins.lent) for a in ins.args)
        locs = ", ".join(_fmt_read(l, consts, ins.lent) for l in ins.locations)
        callee = f"%{ins.callee}{_fmt_steps(ins.callee_steps, consts)}"
        return f"call {callee} ({args})({locs}) -> %{ins.dst}"
    if isinstance(ins, BinaryInstr):
        lhs, rhs = _fmt_read(ins.lhs, consts, ins.lent), _fmt_read(ins.rhs, consts, ins.lent)
        return f"binary {ins.op} {lhs}, {rhs} -> %{ins.dst}"
    if isinstance(ins, Return):
        return f"return %{ins.slot}"
    raise AssertionError(f"unknown instruction {ins!r}")


def _dump_block(block: list[Instr], consts: Consts, out: list[str], indent: str) -> None:
    for i, ins in enumerate(block):
        if isinstance(ins, CondBr):
            out.append(f"{indent}{i}: cond_br {_fmt_read(ins.cond, consts, ins.lent)}")
            out.append(f"{indent}then:")
            _dump_block(ins.then_block, consts, out, indent + "  ")
            out.append(f"{indent}else:")
            _dump_block(ins.else_block, consts, out, indent + "  ")
        else:
            out.append(f"{indent}{i}: {_fmt_instr(ins, consts)}")


def dump_ir(ir: IRProgram) -> str:
    """The program as text, one routine after another, the entry first.
    A constant operand prints as #value; its slot is counted in slots."""
    out: list[str] = []
    for rid in sorted(ir.routines, key=lambda r: (r != ir.entry, r)):
        routine = ir.routines[rid]
        params = []
        for passing, ty in routine.params:
            params.append("env" if passing == P_ENV else f"{passing} {ty}")
        out.append(f"routine {rid}({', '.join(params)}) slots={routine.n_slots}")
        _dump_block(routine.body, routine.consts, out, "  ")
    return "\n".join(out)
