"""Intermediate representation and lowering.

Lowering makes every value lifetime explicit: each read of a place (a
binding, or a path through one) is a Copy or a LoadPath, each binding
leaving scope gets a Destroy, and function literals become global
routines taking their environment record as an extra leading
parameter.  This naive IR is what `--no-move-opt` runs: it copies only
where the eager semantics copies, at a place read.  Lowering dispatches
on each expression's exact type through one table, _LOWER, whose
handlers call it themselves, so that a nesting level costs no more
Python frames than its own handler needs.

Lowering records the type of each slot's value, from the checker's
(Routine.slot_types), and IRProgram.owns_nothing decides once per
program which types own no heap memory: Int, Float, and a struct whose
fields all own nothing, a field-less one too.  An array or a closure
owns its block or environment, and a slot of no recorded type, as in a
hand-built IR, counts as owned.

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
each routine's naive IR (_last_uses), which also gathers the facts
_Lending needs of each literal, then which by-value parameters each
function type lends (see _Lending); lowering records nothing for
either.  The checker interns function types, so move-opt finds each one
in its tables by identity.  Then it rewrites each block, deciding
backward and emitting forward (_elide_moves), and builds each rewritten
instruction and routine by its constructor from positional fields, the
unprinted flags included.  It rewrites a Copy into a Move and deletes the
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
And it emits no Destroy of a slot whose value owns nothing, by the
slot's type, neither the naive IR's own nor one after a lending call:
dropping such a value does nothing.
The naive IR keeps its Copies and Destroys: they are the naive
strategy's cost, and its Destroys mark last use for _last_uses, so every
decision above is the same whether a value owns anything or not.  The
only instruction the optimization moves is a Destroy, to just after a
call that reads its slot at the slot's last use.

Slots are indexes into a routine-local frame.  Instructions form a
tree: straight-line lists plus CondBr, which carries its branch blocks
inline; instructions() walks a block and its arms.  Linearity (each
produced slot consumed exactly once per path, except that a value that
owns nothing need not be consumed) is machine-checked by
verify_linearity before and after optimization.

Each instruction kind declares once, in its own class, the role of each
slot field and its printed form (see Instr).  The last-use walk, move
elision and the verifier read the roles, and dump_ir prints the form.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, field
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

# The role of an instruction's slot field, declared as its annotation.
Read = int  # read in place; prints as %n
Produced = int  # written with a new value; prints as %n
Consumed = int  # consumed; prints through _fmt_read
Lendable = int  # consumed, or read in place when lent lists it; prints through _fmt_read
Steps = list[Step]  # a path; the slot of each index step is Lendable
FieldSteps = list[Step]  # a path of field steps only, which holds no slot


def _display(items: list[str]) -> str:
    """The source of one sequence of items, each an expression or a *iterable."""
    if len(items) == 1 and items[0][0] == "*":
        return items[0][1:]
    return f"[{', '.join(items)}]" if items else "()"


class Instr:
    """An instruction.  Each kind declares once, in its own class, the
    role of each slot field, as the field's annotation, and form, its
    mnemonic and printed fields for str.format.  From the roles it gets
    roles(), the slots it reads, consumes and produces (or None), a
    CondBr's arms aside, and lendable(), the slots its lent may list, as
    straight-line code made once per kind, since the verifier asks every
    instruction twice per program."""

    span: Span = NO_SPAN
    form: str

    def __init_subclass__(cls) -> None:
        slots: dict[str, list[str]] = {"Read": [], "Lendable": [], "Consumed": [], "Produced": []}
        for name, role in cls.__annotations__.items():
            x = f"self.{name}"
            if role == "Steps":
                role, x = "Lendable", f'*[s[1] for s in {x} if s[0] == "index"]'
            elif role.startswith("list["):
                role, x = role[5:-1], f"*{x}"
            slots.get(role, []).append(x)
        reads, lendable, consumed, produced = slots.values()
        dst = produced[0] if produced else "None"
        lines = ["def lendable(self):", f"    return {_display(lendable)}", "def roles(self):"]
        if lendable:  # a slot that lent lists is read, not consumed
            owned = _display([f"*[s for s in {_display(lendable)} if s not in lent]", *consumed])
            lines += [
                "    lent = self.lent",
                "    if lent:",
                f"        return {_display([*reads, '*lent'])}, {owned}, {dst}",
            ]
        lines.append(f"    return {_display(reads)}, {_display(lendable + consumed)}, {dst}")
        ns: dict = {}
        exec(compile("\n".join(lines), f"<mvsl.ir {cls.__name__}>", "exec"), ns)
        cls.roles, cls.lendable = ns["roles"], ns["lendable"]


@dataclass
class MakeInt(Instr):
    dst: Produced
    value: int
    span: Span = NO_SPAN
    form = "make_int {value} -> {dst}"


@dataclass
class MakeFloat(Instr):
    dst: Produced
    value: float
    span: Span = NO_SPAN
    form = "make_float {value!r} -> {dst}"


@dataclass
class MakeArray(Instr):
    dst: Produced
    element_type: Type
    operands: list[Consumed]
    span: Span = NO_SPAN
    form = "make_array [{element_type}] ({operands}) -> {dst}"


@dataclass
class MakeStruct(Instr):
    dst: Produced
    struct_name: str
    operands: list[Consumed]
    span: Span = NO_SPAN
    form = "make_struct {struct_name} ({operands}) -> {dst}"


@dataclass
class MakeClosure(Instr):
    dst: Produced
    routine_id: str
    operands: list[Consumed]  # captured values, declaration order
    span: Span = NO_SPAN
    form = "make_closure {routine_id} ({operands}) -> {dst}"


@dataclass
class Copy(Instr):
    dst: Produced
    src: Read
    span: Span = NO_SPAN
    form = "copy {src} -> {dst}"


@dataclass
class Move(Instr):
    dst: Produced
    src: Consumed
    span: Span = NO_SPAN
    form = "move {src} -> {dst}"


@dataclass
class Destroy(Instr):
    slot: Consumed
    span: Span = NO_SPAN
    form = "destroy {slot}"


@dataclass
class LoadPath(Instr):
    dst: Produced
    base: Read
    steps: Steps
    span: Span = NO_SPAN
    lent: tuple[int, ...] = ()  # subscript slots read in place, not consumed
    # An Int or Float place, whose element the VM and emitted code read
    # with no copy_value; not printed, and no part of equality.
    scalar: bool = field(default=False, repr=False, compare=False)
    form = "load_path {base}{steps} -> {dst}"


@dataclass
class StorePath(Instr):
    base: Read
    steps: Steps
    value: Consumed
    span: Span = NO_SPAN
    lent: tuple[int, ...] = ()  # subscript slots read in place, not consumed
    # An Int or Float place, whose element the VM and emitted code
    # overwrite with no destroy_value of the old value; not printed, and
    # no part of equality.
    scalar: bool = field(default=False, repr=False, compare=False)
    form = "store_path {base}{steps} <- {value}"


@dataclass
class ResolveLocation(Instr):
    dst: Produced
    base: Read
    steps: Steps
    # True for a call's callee path with an index step: the location may
    # root at an immutable binding, since invocation is not a mutation.
    borrow: bool = False
    span: Span = NO_SPAN
    lent: tuple[int, ...] = ()  # subscript slots read in place, not consumed
    form = "resolve_location {base}{steps} -> {dst}"


@dataclass
class OverlapCheck(Instr):
    locations: list[Read]
    span: Span = NO_SPAN
    form = "overlap_check {locations}"


@dataclass
class CallInstr(Instr):
    dst: Produced
    callee: Read
    args: list[Lendable]
    locations: list[Lendable]
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
    callee_steps: FieldSteps = field(default_factory=list)
    form = "call {callee}{callee_steps} ({args})({locations}) -> {dst}"


@dataclass
class BinaryInstr(Instr):
    dst: Produced
    op: str
    lhs: Lendable
    rhs: Lendable
    span: Span = NO_SPAN
    lent: tuple[int, ...] = ()  # operands read in place, not consumed
    form = "binary {op} {lhs}, {rhs} -> {dst}"


@dataclass
class CondBr(Instr):
    cond: Lendable
    then_block: list[Instr]
    else_block: list[Instr]
    span: Span = NO_SPAN
    lent: tuple[int, ...] = ()  # (cond,) when the condition is read in place
    form = "cond_br {cond}"


@dataclass
class Return(Instr):
    slot: Consumed
    span: Span = NO_SPAN
    form = "return {slot}"


def instructions(block: list[Instr]) -> Iterator[Instr]:
    """Every instruction of block and of its CondBrs' arms."""
    todo = [block]
    while todo:
        for ins in todo.pop():
            yield ins
            if type(ins) is CondBr:
                todo += [ins.then_block, ins.else_block]


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
    # The type of each slot's value, by slot, as lowering recorded it from
    # the checker's: None for a slot that holds a Location.  A hand-built
    # IR records none, and a slot of no recorded type counts as owned.
    slot_types: list[Type | None] = field(default_factory=list)
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
    # Struct name -> whether its values own nothing (see owns_nothing).
    trivial_structs: dict[str, bool] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def owns_nothing(self, ty: Type | None) -> bool:
        """Whether a value of type ty owns no heap memory, so that
        dropping it does nothing: an Int, a Float, or a struct whose
        fields all own nothing, recursively, a field-less one too.  An
        array owns its block and a closure its environment, and a slot of
        no recorded type (None) counts as owned.  Each struct is decided
        once per program."""
        t = type(ty)
        if t is IntType or t is FloatType:
            return True
        if t is not StructType:
            return False
        known = self.trivial_structs.get(ty.name)
        if known is None:
            self.trivial_structs[ty.name] = False  # a cycle, which the checker rejects
            fields = self.structs[ty.name].field_types
            known = self.trivial_structs[ty.name] = all(map(self.owns_nothing, fields))
        return known

    def trivial(self, routine: Routine) -> Callable[[int], bool]:
        """Whether a slot of routine holds a value that owns nothing, by
        the type lowering recorded for it.  Move-opt asks once per
        Destroy, so a scalar is decided inline."""
        types, owns_nothing = routine.slot_types, self.owns_nothing
        n = len(types)

        def trivial(slot: int) -> bool:
            ty = types[slot] if slot < n else None
            t = type(ty)
            return t is IntType or t is FloatType or (t is StructType and owns_nothing(ty))

        return trivial


ENTRY_ID = "@entry"


# ---------------------------------------------------------------------------
# Lowering


def _is_scalar(ty: Type | None) -> bool:
    """Whether ty is Int or Float, whose values own nothing."""
    return type(ty) is IntType or type(ty) is FloatType


class _RoutineBuilder:
    def __init__(self, lowerer: _Lowerer, rid: str, fl: FuncLit | None):
        self.lowerer = lowerer
        self.id = rid
        self.body: list[Instr] = []
        self.emit = self.body.append
        self.slot_types: list[Type | None] = []  # by slot, the type of its value
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
            self.env_slot = self.new_slot(fl.ty)
            self.params.append((P_ENV, None))
            self.env_fields = []
            assert fl.captures is not None and fl.param_ids is not None
            for i, cap in enumerate(fl.captures):
                self.env_steps[cap.binding_id] = ("field", cap.name, i)
                self.env_fields.append((cap.name, cap.ty))
            assert isinstance(fl.ty, FuncType)
            for param, pid, (passing, pty) in zip(fl.params, fl.param_ids, fl.ty.params):
                slot = self.new_slot(pty)
                self.slot_map[pid] = slot
                if passing == INOUT:
                    self.inout_ids.add(pid)
                    self.params.append((P_INOUT, pty))
                else:
                    self.params.append((P_VALUE, pty))
                    self.immutable.add(slot)

    # -- emission helpers ----------------------------------------------------

    def new_slot(self, ty: Type | None) -> int:
        """A fresh slot for a value of type ty (None for a Location)."""
        self.slot_types.append(ty)
        return len(self.slot_types) - 1

    # -- expression lowering --------------------------------------------------
    #
    # An expression is lowered by _LOWER[type(e)](self, e, dst), which
    # returns the slot owning its value: dst when given, where the value
    # is produced, else a fresh slot of the expression's type.  One
    # handler per kind of expression, keyed by exact type, since no AST
    # class has subclasses.  Each handler calls the table itself, not a
    # dispatching method, so a node costs one Python frame and deep
    # programs recurse no deeper than under a ladder of isinstance tests.  Instructions are built
    # from positional fields, which CPython binds faster than keywords,
    # and go to self.emit, the append of the block being lowered: the
    # body, or a conditional's arm.

    def lower_int(self, e: IntLit, dst: int | None) -> int:
        t = self.new_slot(e.ty) if dst is None else dst
        self.emit(MakeInt(t, e.value, e.span))
        return t

    def lower_float(self, e: FloatLit, dst: int | None) -> int:
        t = self.new_slot(e.ty) if dst is None else dst
        self.emit(MakeFloat(t, e.value, e.span))
        return t

    def lower_array(self, e: ArrayLit, dst: int | None) -> int:
        assert type(e.ty) is ArrayType
        ops = []
        for x in e.elements:
            ops.append(_LOWER[type(x)](self, x, None))
        t = self.new_slot(e.ty) if dst is None else dst
        self.emit(MakeArray(t, e.ty.element, ops, e.span))
        return t

    def lower_struct(self, e: StructInit, dst: int | None) -> int:
        ops = []
        for a in e.args:
            ops.append(_LOWER[type(a)](self, a, None))
        t = self.new_slot(e.ty) if dst is None else dst
        self.emit(MakeStruct(t, e.name, ops, e.span))
        return t

    def lower_binary(self, e: Binary, dst: int | None) -> int:
        lhs = self.lower_operand(e.lhs)
        rhs = self.lower_operand(e.rhs)
        t = self.new_slot(e.ty) if dst is None else dst
        self.emit(BinaryInstr(t, e.op, lhs, rhs, e.span))
        return t

    def lower_cond(self, e: Cond, dst: int | None) -> int:
        """Lower each arm into its own block, producing its value in the
        conditional's result slot."""
        result = self.new_slot(e.ty) if dst is None else dst
        cond = _LOWER[type(e.cond)](self, e.cond, None)
        emit = self.emit
        then_block: list[Instr] = []
        else_block: list[Instr] = []
        self.emit = then_block.append
        _LOWER[type(e.then)](self, e.then, result)
        self.emit = else_block.append
        _LOWER[type(e.orelse)](self, e.orelse, result)
        self.emit = emit
        emit(CondBr(cond, then_block, else_block, e.span))
        return result

    def lower_chain(self, e: Chain, dst: int | None) -> int:
        """Lower the statements, then the tail into dst, then destroy the
        bindings in reverse; those Destroys free other slots than dst."""
        live: list[Binding] = []
        for s in e.stmts:
            if type(s) is Assign:
                self.lower_assign(s)
            elif s.name == "_":
                t = _LOWER[type(s.init)](self, s.init, None)
                self.emit(Destroy(t, s.init.span))
            else:
                self.lower_binding(s)
                live.append(s)
        result = _LOWER[type(e.tail)](self, e.tail, dst)
        for s in reversed(live):
            self.emit(Destroy(self.slot_map[s.binding_id], s.span))
        return result

    def lower_binding(self, e: Binding) -> None:
        assert e.binding_id is not None
        slot = self.new_slot(e.init.ty)
        self.slot_map[e.binding_id] = slot
        if e.qualifier == "let":
            self.immutable.add(slot)
        _LOWER[type(e.init)](self, e.init, slot)

    def lower_assign(self, e: Assign) -> None:
        value = e.value
        if e.target.root == "_" and not e.target.accessors:
            t = _LOWER[type(value)](self, value, None)
            self.emit(Destroy(t, value.span))
            return
        # Subscripts of the target evaluate before the value, left to right.
        base, steps = self.lower_target(e.target)
        v = _LOWER[type(value)](self, value, None)
        self.emit(StorePath(base, steps, v, e.span, (), _is_scalar(value.ty)))

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
            if type(acc) is FieldAcc:
                steps.append(("field", acc.name, acc.offset))
            else:
                steps.append(("index", self.lower_operand(acc.index)))
        return base, steps

    def lower_path(self, p: Path, dst: int | None) -> int:
        """Read a path; a bare read of a slot that holds its value, not an
        inout Location, is a plain Copy."""
        t = self.new_slot(p.ty) if dst is None else dst
        rid = p.root_binding_id
        if not p.accessors and rid in self.slot_map and rid not in self.inout_ids:
            self.emit(Copy(t, self.slot_map[rid], p.span))
        else:
            base, steps = self.lower_target(p)
            self.emit(LoadPath(t, base, steps, p.span, (), _is_scalar(p.ty)))
        return t

    def lower_operand(self, e: Expr) -> int:
        """Lower a Binary operand or a subscript.  A literal is a constant
        slot of the routine, one per distinct value, and costs no
        instruction; anything else is lowered as a value."""
        if type(e) is not IntLit and type(e) is not FloatLit:
            return _LOWER[type(e)](self, e, None)
        key = repr(e.value)  # keeps 1 and 1.0, and 0.0 and -0.0, apart
        slot = self.const_slots.get(key)
        if slot is None:
            slot = self.const_slots[key] = self.new_slot(e.ty)
            self.consts[slot] = e.value
        return slot

    def lower_funclit(self, e: FuncLit, dst: int | None) -> int:
        routine = self.lowerer.lower_routine(e)
        assert e.captures is not None
        ops = []
        for cap in e.captures:
            t = self.new_slot(cap.ty)
            self.lower_path(Path(cap.name, span=e.span, root_binding_id=cap.binding_id), t)
            ops.append(t)
        if dst is None:
            dst = self.new_slot(e.ty)
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
        if type(e.callee) is Path:
            callee, steps = self.lower_target(e.callee)
            if all(step[0] == "field" for step in steps):
                callee_steps = steps
                places.append(callee)
            else:
                targets.append((e.callee, callee, steps))
        else:
            callee = _LOWER[type(e.callee)](self, e.callee, None)
        owned = not places
        # Arguments evaluate left to right; an inout argument's
        # contribution is its subscript temporaries.  All places are then
        # resolved adjacent to the call, so no user code runs between a
        # resolution and the call it feeds, and checked together, once.
        args: list[int] = []
        for a in e.args:
            if type(a) is InoutArg:
                targets.append((a.path, *self.lower_target(a.path)))
            else:
                args.append(_LOWER[type(a)](self, a, None))
        for p, base, steps in targets:
            loc = self.new_slot(None)
            self.emit(ResolveLocation(loc, base, steps, p is e.callee, p.span))
            places.append(loc)
        if e.checked_places:
            self.emit(OverlapCheck([places[i] for i in e.checked_places], e.span))
        if type(e.callee) is Path:
            callee = places.pop(0)
        if dst is None:
            dst = self.new_slot(e.ty)
        call = CallInstr(dst, callee, args, places, e.span, e.callee.ty, (), callee_steps)
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
            len(self.slot_types),
            self.env_fields,
            frozenset(self.immutable),
            ty,
            self.consts,
            self.slot_types,
        )


_LOWER = {
    IntLit: _RoutineBuilder.lower_int,
    FloatLit: _RoutineBuilder.lower_float,
    Path: _RoutineBuilder.lower_path,
    Binary: _RoutineBuilder.lower_binary,
    Call: _RoutineBuilder.lower_call,
    Cond: _RoutineBuilder.lower_cond,
    Chain: _RoutineBuilder.lower_chain,
    ArrayLit: _RoutineBuilder.lower_array,
    StructInit: _RoutineBuilder.lower_struct,
    FuncLit: _RoutineBuilder.lower_funclit,
}


class _Lowerer:
    def __init__(self, tp: TypedProgram):
        self.tp = tp
        self.routines: dict[str, Routine] = {}
        self.next_fn = 0

    def lower_routine(self, fl: FuncLit) -> Routine:
        rid = f"@fn{self.next_fn}"
        self.next_fn += 1
        b = _RoutineBuilder(self, rid, fl)
        result = _LOWER[type(fl.body)](b, fl.body, None)
        assert isinstance(fl.ty, FuncType)
        routine = b.finish(result, fl.ty, fl.span)
        self.routines[rid] = routine
        return routine

    def lower(self) -> IRProgram:
        b = _RoutineBuilder(self, ENTRY_ID, None)
        entry = self.tp.program.entry
        result = _LOWER[type(entry)](b, entry, None)
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


@dataclass(slots=True)
class _Facts:
    """What _Lending needs of one literal, which _last_uses reads off its
    naive IR in the walk that decides last use: whether it writes its
    environment itself (a store or a Location rooted at the env slot, 0,
    since even an index step on the way to a borrowed callee may put a
    duplicate of a shared block there), the closure types it calls
    through a field path from slot 0, and the by-value parameter slots it
    must own:

    - one copied by a Copy that is its last use, which _elide_moves turns
      into a Move (only the exit Destroys name a parameter);
    - one that a borrowed callee path enters through an index step (only
      a borrowed callee can root at a by-value parameter): resolving it
      may put a duplicate of a shared block into the slot, which a lent
      slot, never destroyed, would leak while the caller's block lost a
      reference.
    """

    params: set[int]  # the literal's by-value parameter slots
    writes_env: bool = False
    env_callees: list[FuncType] = field(default_factory=list)
    owned: set[int] = field(default_factory=set)


def _last_uses(
    block: list[Instr], moves: dict[int, int], arm_uses: dict[int, set[int]], facts: _Facts
) -> dict[int, int | None]:
    """Decide last use in one backward walk of a block of naive IR and of
    its CondBrs' arms, before anything is lent.  Records in moves each
    Copy, by id, whose source's only later use is the source's Destroy in
    the same block, mapped to that Destroy's index, in arm_uses each
    CondBr, by id, mapped to the slots its arms read, consume or destroy,
    and in facts what _Lending needs of the routine.  Returns a dict
    whose keys are those slots for block itself.
    """
    # A slot used below the current instruction -> the index of its
    # Destroy when that is its only later use, else None.
    later: dict[int, int | None] = {}
    i = len(block)
    for ins in reversed(block):
        i -= 1
        t = type(ins)
        if t is Destroy:
            later[ins.slot] = i
            continue
        if t is Copy:
            j = later.get(ins.src)
            if j is not None:
                moves[id(ins)] = j
                if ins.src in facts.params:
                    facts.owned.add(ins.src)
        elif t is CondBr:
            used = _last_uses(ins.then_block, moves, arm_uses, facts).keys()
            used |= _last_uses(ins.else_block, moves, arm_uses, facts).keys()
            arm_uses[id(ins)] = used
            later.update(dict.fromkeys(used))
        elif t is StorePath or t is ResolveLocation:
            if ins.base == 0:
                facts.writes_env = True
            if t is ResolveLocation and ins.base in facts.params and ins.steps[0][0] == "index":
                facts.owned.add(ins.base)
        elif t is CallInstr and ins.callee == 0:
            facts.env_callees.append(ins.fn_type)
        reads, consumes, _ = ins.roles()
        for slot in reads:
            later[slot] = None
        for slot in consumes:
            later[slot] = None
    return later


class _Lending:
    """How each function type passes its by-value parameters, in order.

    A parameter is lent unless (a) its type can hold a closure of a
    writer type, because calling such a closure mutates it in place, even
    through a lent binding; or (b) some literal of the type must own it.
    A writer type has a literal that writes its environment itself, or
    that calls a captured closure of a writer type: a least fixpoint, one
    worklist pass.  An Int or Float is always lent: it holds no closure,
    and its copy costs no more than a move.  The facts, by routine id,
    come from _last_uses.  The checker interns function types, so every
    table here finds a type by identity.
    """

    def __init__(self, ir: IRProgram, facts: dict[str, _Facts]):
        writers: set[FuncType] = set()
        callers: dict[FuncType, set[FuncType]] = {}
        owned: dict[FuncType, set[int]] = {}
        for r in ir.routines.values():
            if r.ty is None:
                continue
            f = facts[r.id]
            if f.writes_env:
                writers.add(r.ty)
            for ty in f.env_callees:
                callers.setdefault(ty, set()).add(r.ty)
            owned.setdefault(r.ty, set()).update(f.owned)
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
                if _is_scalar(pty):
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


def _rebuild(ins: Instr, changes: dict) -> Instr:
    """ins with the fields that changes names replaced, built by its
    kind's constructor from positional fields, which keeps every other
    field, the unprinted scalar and float_operands flags too.  On CPython
    3.11 an instance given a whole new __dict__ reads its fields more
    slowly in the VM, and dataclasses.replace pays for keyword arguments
    and a walk of fields() at every call."""
    t = type(ins)
    return t(*[changes[f] if f in changes else getattr(ins, f) for f in t.__annotations__])


def _reading_sources(ins: Instr, renamed: dict[int, int], handed: set[int]) -> dict:
    """The fields of ins, a reader of deleted Copies' temporaries, that
    change when it reads their sources: each Lendable field, and lent,
    the sources it reads in place, which are all but those whose Copy was
    the source's last use, which hands the source over."""
    lent = tuple([renamed[s] for s in ins.lendable() if s in renamed and s not in handed])
    fields: dict = {"lent": lent}
    for name, role in type(ins).__annotations__.items():
        if role == "Lendable":
            value = getattr(ins, name)
            fields[name] = renamed.get(value, value)
        elif role == "Steps":
            fields[name] = [
                ("index", renamed.get(s[1], s[1])) if s[0] == "index" else s
                for s in getattr(ins, name)
            ]
    return fields


def _elide_moves(
    block: list[Instr],
    lending: _Lending,
    moves: dict[int, int],
    arm_uses: dict[int, set[int]],
    loc_params: tuple[int, ...],
    trivial: Callable[[int], bool],
    lent_params: frozenset[int] = frozenset(),
) -> list[Instr]:
    """Rewrite the Copies of one block: decide in one backward walk, from
    moves and arm_uses as _last_uses keyed them by these very instructions'
    ids, then emit the block in one forward walk, rewriting each reader.

    - A Copy in moves becomes a Move, and its source's Destroy is dropped.
      The Destroys of lent_params, the routine's lent parameters, are
      dropped, and their Copies stay.
    - A Destroy of a slot whose value owns nothing, by trivial, is
      dropped, and so is one that would follow a lending call: dropping
      such a value does nothing.  The naive IR's Destroys have already
      marked last use, so no other decision changes.
    - A Copy into an argument that the call's type lends is deleted: the
      call reads the source in place.  Where the Copy was the source's
      last use, the source's Destroy moves to just after the call.
    - A Copy into a Lendable slot of any other reader, a BinaryInstr
      operand, a CondBr condition or an index step's subscript, is
      deleted likewise: the instruction reads the source in place, or,
      at the source's last use, consumes it, and the source's Destroy is
      dropped.  These are Ints or Floats, which need no destroy.
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
    # A temporary in a Lendable slot of a reader, a call's only at a lent
    # position or as a location -> the index of that reader.
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
    rereaders: set[int] = set()  # indexes of the readers of renamed temporaries
    masks: dict[int, tuple[int, ...]] = {}  # a call's index -> how it passes its arguments
    rewrites = False  # a call lends a non-scalar, or a CondBr's arms may change
    i = n
    for ins in reversed(block):
        i -= 1
        t = type(ins)
        if t is Destroy:
            if ins.slot in lent_params or trivial(ins.slot):
                skip.add(i)
        elif t is Copy:
            src = ins.src
            j = moves.get(id(ins))
            k = readers.get(ins.dst)
            if j is not None and src not in lent_params:
                skip.add(j)
                if k is None:
                    clobbered[src] = i  # a Move
                    continue
                handed.add(ins.dst)
                # Any reader but a call consumes src at k, so it
                # cannot read src in place for another operand.
                clobbered[src] = k if type(block[k]) is CallInstr else k - 1
            elif k is None or clobbered.get(src, n) < k:
                continue
            renamed[ins.dst] = src
            rereaders.add(k)
            skip.add(i)
        elif t is CallInstr:
            masks[i] = mask = lending.get(ins.fn_type)[0]
            rewrites = rewrites or _LEND in mask
            for a, how in zip(ins.args, mask):
                if how:
                    readers[a] = i
            for a in ins.locations:
                readers[a] = i
        else:
            for a in ins.lendable():
                readers[a] = i
            if t is CondBr:
                rewrites = True
                assert id(ins) in arm_uses, "arm_uses does not come from _last_uses over this IR"
                clobbered.update(dict.fromkeys(arm_uses[id(ins)], i))
            elif t is StorePath or (t is ResolveLocation and not ins.borrow):
                clobbered[ins.base] = i
                if t is ResolveLocation and not ins.steps and ins.base in loc_params:
                    renamed[ins.dst] = ins.base
                    skip.add(i)
    if not (rewrites or skip or renamed):  # every Move drops a Destroy
        return block
    # Rewritten instructions are built by their kinds' constructors from
    # positional fields (see _rebuild).
    out: list[Instr] = []
    # The index in out of the latest emitted instruction other than a
    # Destroy, or -1 after a deleted one: a Move of the slot it produces
    # folds into it.  The Destroys in between free other slots.
    at = -1
    for i, ins in enumerate(block):
        t = type(ins)
        if t is Destroy:
            if i not in skip:
                out.append(ins)
            continue
        if i in skip:
            at = -1
            continue
        if t is Copy:
            if id(ins) in moves and ins.src not in lent_params:
                if at >= 0 and getattr(out[at], "dst", None) == ins.src:
                    out[at] = _rebuild(out[at], {"dst": ins.dst})
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
                        if not trivial(src):
                            after.append(Destroy(src, ins.span))
                    elif how:
                        taken.append(src)  # a scalar: the call takes it
                # A scalar taken that is also read in place is destroyed
                # after all, unless its type says it owns nothing.
                after += [
                    Destroy(src, ins.span) for src in taken if src in lent and not trivial(src)
                ]
                locations = [renamed.get(a, a) for a in ins.locations]
                lent += [a for a in locations if a in loc_params]
                if lent or args != ins.args:
                    ins = CallInstr(
                        ins.dst, ins.callee, args, locations,
                        ins.span, ins.fn_type, tuple(lent), ins.callee_steps,
                    )
            at = len(out)
            out.append(ins)
            out += after
            continue
        elif t is CondBr or i in rereaders:
            arms = {}
            if t is CondBr:
                then = _elide_moves(ins.then_block, lending, moves, arm_uses, loc_params, trivial)
                orelse = _elide_moves(ins.else_block, lending, moves, arm_uses, loc_params, trivial)
                if then is not ins.then_block or orelse is not ins.else_block:
                    arms = {"then_block": then, "else_block": orelse}
            if arms or i in rereaders:
                ins = _rebuild(ins, {**arms, **_reading_sources(ins, renamed, handed)})
        at = len(out)
        out.append(ins)
    return block if len(out) == n and all(map(is_, out, block)) else out


def apply_move_optimization(ir: IRProgram) -> IRProgram:
    """Return ir with last-use Copies rewritten to Moves, arguments lent
    where the callee's type lends them, scalar operands read in place, and
    no Destroy of a slot whose value owns nothing.

    ir itself is left unchanged.  The result shares with it every
    routine, block and instruction that the rewrite does not touch.
    """
    moves: dict[int, int] = {}
    arm_uses: dict[int, set[int]] = {}
    facts: dict[str, _Facts] = {}
    for rid, routine in ir.routines.items():
        params = {s for s, (passing, _) in enumerate(routine.params) if passing == P_VALUE}
        facts[rid] = _Facts(params)
        _last_uses(routine.body, moves, arm_uses, facts[rid])
    lending = _Lending(ir, facts)
    routines: dict[str, Routine] = {}
    for rid, routine in ir.routines.items():
        params = routine.params
        lent = lending.get(routine.ty)[1]
        if lent:
            params = [(P_LENT, p[1]) if s in lent else p for s, p in enumerate(params)]
        trivial = ir.trivial(routine)
        body = _elide_moves(routine.body, lending, moves, arm_uses, routine.loc_slots, trivial, lent)
        if body is routine.body:
            routines[rid] = routine
        else:
            routines[rid] = Routine(
                rid, params, body, routine.n_slots, routine.env_fields,
                routine.immutable_slots, routine.ty, routine.consts, routine.slot_types,
            )
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
    instruction that would consume one only reads it.  A slot whose value
    owns nothing, by its recorded type, need not be consumed: it may be
    live at the end of an arm or of the routine, and one live at only one
    arm's end is dropped where the arms meet.  It is still produced once
    per path and never read after it is consumed."""
    for routine in ir.routines.values():
        state = dict.fromkeys(routine.consts, _CONST)
        for i, (passing, _) in enumerate(routine.params):
            state[i] = _OWNED if passing == P_VALUE else _BORROWED
        trivial = ir.trivial(routine)
        _verify_block(routine.id, routine.body, state, trivial, top=True)
        for slot, st in state.items():
            if st == _OWNED and not trivial(slot):
                raise _LinearityError(
                    f"linearity violation in {routine.id}: slot {slot} leaks at exit"
                )


def _verify_block(
    rid: str,
    block: list[Instr],
    state: dict[int, str],
    trivial: Callable[[int], bool],
    top: bool,
    undo: dict | None = None,
) -> None:
    """Verify block from state, which it updates.  undo, when given,
    gets each slot's state before the block first changed it (None for
    no entry), so that a CondBr can check its arms against each other in
    time linear in the slots they touch, not in the slots live.  trivial
    tells the slots whose values own nothing."""
    for idx, ins in enumerate(block):
        t = type(ins)
        if t is Return and (not top or idx != len(block) - 1):
            raise _lin_fail(rid, ins, "Return must end the routine body")
        reads, consumes, dst = ins.roles()
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
            _verify_block(rid, ins.then_block, state, trivial, False, then_undo)
            then_end = {slot: state.get(slot) for slot in then_undo}
            for slot, st in then_undo.items():
                if st is None:
                    state.pop(slot, None)
                else:
                    state[slot] = st
            _verify_block(rid, ins.else_block, state, trivial, False, else_undo)
            # A slot that only the else arm touched ends the then arm as
            # it was at the branch.
            then_end = {**else_undo, **then_end}
            for slot, st in then_end.items():
                if state.get(slot) == st:
                    continue
                if not trivial(slot):
                    raise _lin_fail(rid, ins, "branch end states differ")
                # Live at one arm's end only, and owning nothing: it is
                # dropped here.  Either undo holds its state at the branch.
                if undo is not None and slot not in undo:
                    undo[slot] = (then_undo if slot in then_undo else else_undo)[slot]
                state.pop(slot, None)
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


def _fmt_instr(ins: Instr, consts: Consts) -> str:
    """ins in its kind's form: a Read or Produced slot as %n, a Consumed
    or Lendable one through _fmt_read, a list of slots with commas, a
    path as its steps, and any other field as it is."""
    lent = getattr(ins, "lent", ())
    shown = {}
    for name, role in type(ins).__annotations__.items():
        value = getattr(ins, name)
        slots = value if role.startswith("list[") else [value]
        role = role.removeprefix("list[").removesuffix("]")
        if role in ("Steps", "FieldSteps"):
            value = "".join(
                f".{s[1]}" if s[0] == "field" else f"[{_fmt_read(s[1], consts, lent)}]"
                for s in value
            )
        elif role in ("Read", "Produced"):
            value = ", ".join(f"%{s}" for s in slots)
        elif role in ("Consumed", "Lendable"):
            value = ", ".join(_fmt_read(s, consts, lent) for s in slots)
        shown[name] = value
    return type(ins).form.format_map(shown)


def _dump_block(block: list[Instr], consts: Consts, out: list[str], indent: str) -> None:
    for i, ins in enumerate(block):
        out.append(f"{indent}{i}: {_fmt_instr(ins, consts)}")
        if type(ins) is CondBr:
            out.append(f"{indent}then:")
            _dump_block(ins.then_block, consts, out, indent + "  ")
            out.append(f"{indent}else:")
            _dump_block(ins.else_block, consts, out, indent + "  ")


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
