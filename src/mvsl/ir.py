"""Intermediate representation and lowering.

Lowering makes every value lifetime explicit: each binding
initialization, assignment, and by-value argument is a Copy, each
binding leaving scope gets a Destroy, and function literals become
global routines taking their environment record as an extra leading
parameter.  The move optimization then rewrites a Copy into a Move and
deletes the source's Destroy whenever that Destroy, in the Copy's own
block, is the source's only later use; it never reorders instructions.

Slots are indexes into a routine-local frame.  Instructions form a
tree: straight-line lists plus CondBr, which carries its branch blocks
inline.  Linearity (each produced slot consumed exactly once per path)
is machine-checked by verify_linearity before and after optimization.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
from .types import INOUT, ArrayType, FuncType, Type

# ---------------------------------------------------------------------------
# Instructions

# A path step inside an instruction: ("field", name) or ("index", slot).
Step = tuple[str, object]


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


@dataclass
class StorePath(Instr):
    base: int
    steps: list[Step]
    value: int
    span: Span = NO_SPAN


@dataclass
class ResolveLocation(Instr):
    dst: int
    base: int
    steps: list[Step]
    # True for a call borrowing its callee path: the location may root
    # at an immutable binding, since invocation is not a mutation.
    borrow: bool = False
    span: Span = NO_SPAN


@dataclass
class OverlapCheck(Instr):
    a: int
    b: int
    span: Span = NO_SPAN


@dataclass
class CallInstr(Instr):
    dst: int
    callee: int
    args: list[int]
    locations: list[int]
    span: Span = NO_SPAN


@dataclass
class BinaryInstr(Instr):
    dst: int
    op: str
    lhs: int
    rhs: int
    span: Span = NO_SPAN


@dataclass
class CondBr(Instr):
    cond: int
    then_block: list[Instr]
    else_block: list[Instr]
    span: Span = NO_SPAN


@dataclass
class Return(Instr):
    slot: int
    span: Span = NO_SPAN


# Routine parameter passing markers.
P_ENV = "env"
P_VALUE = "value"
P_INOUT = "inout"


@dataclass
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


@dataclass
class IRProgram:
    routines: dict[str, Routine]
    entry: str
    structs: dict[str, StructInfo]


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
        self.env_field_by_id: dict[int, str] = {}
        self.params: list[tuple[str, Type | None]] = []
        self.env_fields: list[tuple[str, Type]] | None = None
        self.immutable: set[int] = set()
        if fl is not None:
            self.env_slot = self.new_slot()
            self.params.append((P_ENV, None))
            self.env_fields = []
            assert fl.captures is not None and fl.param_ids is not None
            for cap in fl.captures:
                self.env_field_by_id[cap.binding_id] = cap.name
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

    def lower_chain(self, e: Chain) -> int:
        """Lower the statements and the tail, then destroy the bindings in reverse."""
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
        result = self.lower_value(e.tail)
        for s in reversed(live):
            self.emit(Destroy(self.slot_map[s.binding_id], s.span))
        return result

    def lower_binding(self, e: Binding) -> None:
        assert e.binding_id is not None
        slot = self.new_slot()
        self.slot_map[e.binding_id] = slot
        if e.qualifier == "let":
            self.immutable.add(slot)
        if isinstance(e.init, Path):
            self.emit_path_read(e.init, slot)
        else:
            t = self.lower_value(e.init)
            self.emit(Copy(slot, t, e.init.span))
            self.emit(Destroy(t, e.init.span))

    def lower_assign(self, e: Assign) -> None:
        if e.target.root == "_" and not e.target.accessors:
            t = self.lower_value(e.value)
            self.emit(Destroy(t, e.value.span))
            return
        # Subscripts of the target evaluate before the value, left to right.
        base, steps = self.lower_target(e.target)
        v = self.lower_copied(e.value)
        self.emit(StorePath(base, steps, v, e.span))

    def lower_target(self, p: Path) -> tuple[int, list[Step]]:
        """Base slot and steps for a write or location path; a root that
        is no slot of this routine is a field of its environment."""
        steps: list[Step] = []
        base = self.slot_map.get(p.root_binding_id)
        if base is None:
            base = self.env_slot
            assert base is not None
            steps.append(("field", self.env_field_by_id[p.root_binding_id]))
        for acc in p.accessors:
            if isinstance(acc, FieldAcc):
                steps.append(("field", acc.name))
            else:
                steps.append(("index", self.lower_value(acc.index)))
        return base, steps

    def emit_path_read(self, p: Path, dst: int) -> None:
        """Read a path into dst; a bare read of a slot that holds its
        value, not an inout Location, is a plain Copy."""
        rid = p.root_binding_id
        if not p.accessors and rid in self.slot_map and rid not in self.inout_ids:
            self.emit(Copy(dst, self.slot_map[rid], p.span))
            return
        base, steps = self.lower_target(p)
        self.emit(LoadPath(dst, base, steps, p.span))

    def lower_value(self, e: Expr) -> int:
        """Lower an expression; returns a fresh slot owning its value."""
        if isinstance(e, IntLit):
            t = self.new_slot()
            self.emit(MakeInt(t, e.value, e.span))
            return t
        if isinstance(e, FloatLit):
            t = self.new_slot()
            self.emit(MakeFloat(t, e.value, e.span))
            return t
        if isinstance(e, ArrayLit):
            assert isinstance(e.ty, ArrayType)
            ops = [self.lower_value(x) for x in e.elements]
            t = self.new_slot()
            self.emit(MakeArray(t, e.ty.element, ops, e.span))
            return t
        if isinstance(e, StructInit):
            ops = [self.lower_value(a) for a in e.args]
            t = self.new_slot()
            self.emit(MakeStruct(t, e.name, ops, e.span))
            return t
        if isinstance(e, Path):
            t = self.new_slot()
            self.emit_path_read(e, t)
            return t
        if isinstance(e, FuncLit):
            return self.lower_funclit(e)
        if isinstance(e, Call):
            return self.lower_call(e)
        if isinstance(e, Binary):
            lhs = self.lower_value(e.lhs)
            rhs = self.lower_value(e.rhs)
            t = self.new_slot()
            self.emit(BinaryInstr(t, e.op, lhs, rhs, e.span))
            return t
        if isinstance(e, Chain):
            return self.lower_chain(e)
        if isinstance(e, Cond):
            result = self.new_slot()
            cond = self.lower_value(e.cond)
            then_block: list[Instr] = []
            self.blocks.append(then_block)
            r = self.lower_value(e.then)
            self.emit(Move(result, r, e.then.span))
            self.blocks.pop()
            else_block: list[Instr] = []
            self.blocks.append(else_block)
            r = self.lower_value(e.orelse)
            self.emit(Move(result, r, e.orelse.span))
            self.blocks.pop()
            self.emit(CondBr(cond, then_block, else_block, e.span))
            return result
        raise AssertionError(f"cannot lower {e!r} as an operand")

    def lower_copied(self, e: Expr) -> int:
        """Lower a value that flows into a binding slot, stored place, or
        by-value argument: the flow is an explicit Copy.  Path reads
        already copy; computed values are copied out of their temporary
        and the temporary destroyed."""
        if isinstance(e, Path):
            return self.lower_value(e)
        t = self.lower_value(e)
        u = self.new_slot()
        self.emit(Copy(u, t, e.span))
        self.emit(Destroy(t, e.span))
        return u

    def lower_funclit(self, e: FuncLit) -> int:
        routine = self.lowerer.lower_routine(e)
        assert e.captures is not None
        ops = []
        for cap in e.captures:
            t = self.new_slot()
            self.emit_path_read(Path(cap.name, span=e.span, root_binding_id=cap.binding_id), t)
            ops.append(t)
        dst = self.new_slot()
        self.emit(MakeClosure(dst, routine.id, ops, e.span))
        return dst

    def lower_call(self, e: Call) -> int:
        assert e.overlap_pairs is not None
        # The call's places, indexed like overlap_pairs: a path callee,
        # borrowed in place so environment mutations persist in the named
        # closure value, then the inout arguments.  Any other callee is a
        # temporary the call consumes.
        targets: list[tuple[Path, int, list[Step]]] = []
        if isinstance(e.callee, Path):
            targets.append((e.callee, *self.lower_target(e.callee)))
        else:
            callee = self.lower_value(e.callee)
        # Arguments evaluate left to right; an inout argument's
        # contribution is its subscript temporaries.  All places are then
        # resolved adjacent to the call, so no user code runs between a
        # resolution and the call it feeds.
        args: list[int] = []
        for a in e.args:
            if isinstance(a, InoutArg):
                targets.append((a.path, *self.lower_target(a.path)))
            else:
                args.append(self.lower_copied(a))
        places = []
        for p, base, steps in targets:
            loc = self.new_slot()
            self.emit(ResolveLocation(loc, base, steps, borrow=p is e.callee, span=p.span))
            places.append(loc)
        for i, j in e.overlap_pairs:
            self.emit(OverlapCheck(places[i], places[j], e.span))
        if isinstance(e.callee, Path):
            callee = places.pop(0)
        dst = self.new_slot()
        self.emit(CallInstr(dst, callee, args, places, e.span))
        return dst

    def finish(self, result: int, value_param_slots: list[int], span: Span) -> Routine:
        for slot in reversed(value_param_slots):
            self.emit(Destroy(slot, span))
        self.emit(Return(result, span))
        return Routine(
            self.id,
            self.params,
            self.body,
            self.n_slots,
            self.env_fields,
            frozenset(self.immutable),
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
        value_params = [
            b.slot_map[pid] for pid in (fl.param_ids or []) if pid not in b.inout_ids
        ]
        routine = b.finish(result, value_params, fl.span)
        self.routines[rid] = routine
        return routine

    def lower(self) -> IRProgram:
        b = _RoutineBuilder(self, ENTRY_ID, None)
        result = b.lower_value(self.tp.program.entry)
        routine = b.finish(result, [], self.tp.program.entry.span)
        self.routines[ENTRY_ID] = routine
        return IRProgram(self.routines, ENTRY_ID, self.tp.structs)


def lower_program(tp: TypedProgram) -> IRProgram:
    """Lower a type-checked program to naive IR (no move elision)."""
    ir = _Lowerer(tp).lower()
    verify_linearity(ir)
    return ir


# ---------------------------------------------------------------------------
# Move optimization


def _operands(ins: Instr) -> tuple[list[int], list[int], int | None]:
    """The slots ins only reads, the slots it consumes, and the slot it
    produces (or None); the instructions of nested blocks are excluded."""
    t = type(ins)
    if t is Copy:
        return [ins.src], [], ins.dst
    if t is Move:
        return [], [ins.src], ins.dst
    if t is Destroy:
        return [], [ins.slot], None
    if t is MakeInt or t is MakeFloat:
        return [], [], ins.dst
    if t is MakeArray or t is MakeStruct or t is MakeClosure:
        return [], ins.operands, ins.dst
    if t is LoadPath or t is ResolveLocation:
        return [ins.base], [v for kind, v in ins.steps if kind == "index"], ins.dst
    if t is StorePath:
        return [ins.base], [*(v for kind, v in ins.steps if kind == "index"), ins.value], None
    if t is OverlapCheck:
        return [ins.a, ins.b], [], None
    if t is CallInstr:
        return [], [ins.callee, *ins.args, *ins.locations], ins.dst
    if t is BinaryInstr:
        return [], [ins.lhs, ins.rhs], ins.dst
    if t is CondBr:
        return [], [ins.cond], None
    if t is Return:
        return [], [ins.slot], None
    raise AssertionError(f"unknown instruction {ins!r}")


# The value of a slot in _elide_moves's map when its later uses are not
# just one Destroy in the block being walked.
_USED_ELSEWHERE = -1


def _elide_moves(block: list[Instr]) -> tuple[list[Instr], dict[int, int]]:
    """Rewrite each Copy whose source's only later use is a Destroy in
    this same block into a Move, and drop that Destroy.

    One backward walk keeps, for each slot read after the current
    instruction, the index of its Destroy when that is its only later
    use, or _USED_ELSEWHERE for any other use, which includes every read
    inside a nested CondBr block; an unread slot has no entry.  Returns
    the rewritten block, which is block itself when nothing changed, and
    that map as it stands at the top of the block.
    """
    later: dict[int, int] = {}
    moves: dict[int, int] = {}  # index of an elided Copy -> index of its Destroy
    branches: dict[int, CondBr] = {}  # index -> CondBr with rewritten blocks
    for i in range(len(block) - 1, -1, -1):
        ins = block[i]
        if isinstance(ins, Copy):
            j = later.get(ins.src, _USED_ELSEWHERE)
            if j != _USED_ELSEWHERE:
                moves[i] = j
        elif isinstance(ins, Destroy) and ins.slot not in later:
            later[ins.slot] = i
            continue
        elif isinstance(ins, CondBr):
            then_block, then_reads = _elide_moves(ins.then_block)
            else_block, else_reads = _elide_moves(ins.else_block)
            for slot in (*then_reads, *else_reads):
                later[slot] = _USED_ELSEWHERE
            if then_block is not ins.then_block or else_block is not ins.else_block:
                branches[i] = replace(ins, then_block=then_block, else_block=else_block)
        reads, consumes, _ = _operands(ins)
        for slot in (*reads, *consumes):
            later[slot] = _USED_ELSEWHERE
    if not moves and not branches:
        return block, later
    dropped = set(moves.values())
    out: list[Instr] = []
    for i, ins in enumerate(block):
        if i in moves:
            out.append(Move(ins.dst, ins.src, ins.span))
        elif i not in dropped:
            out.append(branches.get(i, ins))
    return out, later


def apply_move_optimization(ir: IRProgram) -> IRProgram:
    """Return ir with last-use Copies rewritten to Moves.

    ir itself is left unchanged.  The result shares with it every
    routine, block and instruction that the rewrite does not touch.
    """
    routines: dict[str, Routine] = {}
    for rid, routine in ir.routines.items():
        body, _ = _elide_moves(routine.body)
        routines[rid] = routine if body is routine.body else replace(routine, body=body)
    out = IRProgram(routines, ir.entry, ir.structs)
    verify_linearity(out)
    return out


# ---------------------------------------------------------------------------
# Linearity verification

_OWNED = "owned"
_EMPTY = "empty"
_LOC = "loc"
_ENV = "env"


class _LinearityError(AssertionError):
    pass


def _lin_fail(rid: str, ins: Instr, msg: str) -> _LinearityError:
    return _LinearityError(f"linearity violation in {rid} at {ins}: {msg}")


def verify_linearity(ir: IRProgram) -> None:
    """Check that every slot is produced once and consumed exactly once
    along each control-flow path (Copy only reads its source)."""
    for routine in ir.routines.values():
        state: dict[int, str] = {}
        for i, (passing, _) in enumerate(routine.params):
            state[i] = {P_ENV: _ENV, P_VALUE: _OWNED, P_INOUT: _LOC}[passing]
        _verify_block(routine.id, routine.body, state, top=True)
        for slot, st in state.items():
            if st == _OWNED:
                raise _LinearityError(
                    f"linearity violation in {routine.id}: slot {slot} leaks at exit"
                )


def _verify_block(rid: str, block: list[Instr], state: dict[int, str], top: bool) -> None:
    for idx, ins in enumerate(block):
        if type(ins) is Return and (not top or idx != len(block) - 1):
            raise _lin_fail(rid, ins, "Return must end the routine body")
        reads, consumes, dst = _operands(ins)
        for slot in reads:
            if state.get(slot, _EMPTY) not in (_OWNED, _LOC, _ENV):
                raise _lin_fail(rid, ins, f"slot {slot} not readable")
        for slot in consumes:
            if state.get(slot, _EMPTY) != _OWNED:
                raise _lin_fail(rid, ins, f"slot {slot} not owned")
            state[slot] = _EMPTY
        if dst is not None:
            if state.get(dst, _EMPTY) != _EMPTY:
                raise _lin_fail(rid, ins, f"slot {dst} already live")
            state[dst] = _OWNED
        if type(ins) is CondBr:
            then_state = dict(state)
            else_state = dict(state)
            _verify_block(rid, ins.then_block, then_state, top=False)
            _verify_block(rid, ins.else_block, else_state, top=False)
            live_then = {s: st for s, st in then_state.items() if st != _EMPTY}
            live_else = {s: st for s, st in else_state.items() if st != _EMPTY}
            if live_then != live_else:
                raise _lin_fail(rid, ins, "branch end states differ")
            state.clear()
            state.update(live_then)
    if top and (not block or not isinstance(block[-1], Return)):
        raise _LinearityError(f"linearity violation in {rid}: body must end with Return")


# ---------------------------------------------------------------------------
# Dump


def _fmt_steps(steps: list[Step]) -> str:
    out = []
    for kind, v in steps:
        out.append(f".{v}" if kind == "field" else f"[%{v}]")
    return "".join(out)


def _fmt_instr(ins: Instr) -> str:
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
        return f"load_path %{ins.base}{_fmt_steps(ins.steps)} -> %{ins.dst}"
    if isinstance(ins, StorePath):
        return f"store_path %{ins.base}{_fmt_steps(ins.steps)} <- %{ins.value}"
    if isinstance(ins, ResolveLocation):
        return f"resolve_location %{ins.base}{_fmt_steps(ins.steps)} -> %{ins.dst}"
    if isinstance(ins, OverlapCheck):
        return f"overlap_check %{ins.a}, %{ins.b}"
    if isinstance(ins, CallInstr):
        args = ", ".join(f"%{a}" for a in ins.args)
        locs = ", ".join(f"%{l}" for l in ins.locations)
        return f"call %{ins.callee} ({args})({locs}) -> %{ins.dst}"
    if isinstance(ins, BinaryInstr):
        return f"binary {ins.op} %{ins.lhs}, %{ins.rhs} -> %{ins.dst}"
    if isinstance(ins, Return):
        return f"return %{ins.slot}"
    raise AssertionError(f"unknown instruction {ins!r}")


def _dump_block(block: list[Instr], out: list[str], indent: str) -> None:
    for i, ins in enumerate(block):
        if isinstance(ins, CondBr):
            out.append(f"{indent}{i}: cond_br %{ins.cond}")
            out.append(f"{indent}then:")
            _dump_block(ins.then_block, out, indent + "  ")
            out.append(f"{indent}else:")
            _dump_block(ins.else_block, out, indent + "  ")
        else:
            out.append(f"{indent}{i}: {_fmt_instr(ins)}")


def dump_ir(ir: IRProgram) -> str:
    out: list[str] = []
    for rid in sorted(ir.routines, key=lambda r: (r != ir.entry, r)):
        routine = ir.routines[rid]
        params = []
        for passing, ty in routine.params:
            params.append("env" if passing == P_ENV else f"{passing} {ty}")
        out.append(f"routine {rid}({', '.join(params)}) slots={routine.n_slots}")
        _dump_block(routine.body, out, "  ")
    return "\n".join(out)
