"""Compile a hot routine to a Python function: mvsl's native code.

The VM interprets a routine until its COMPILE_THRESHOLD-th entry in a
run, then calls compile_routine, which emits the routine, naive or
move-optimized IR alike, as the source of one Python function and
compile()s it.  The function takes the routine's parameters in call
order, the closure first, then the by-value and inout arguments, and
returns its result.

Emission reads only the IR, so it is done once per IRProgram and
routine: the compiled module and the constants it reads are kept in
IRProgram.compiled.  Each run that compiles the routine binds that code
to its own VM, in a fresh globals dict of those constants and the VM's
helpers, and runs the module in it to make the function, which takes a
few microseconds.  Nothing bound to a VM is kept, so no run outlives
itself.  The code is kept per IR, not per Routine: move-opt shares an
untouched Routine between the naive IR and its own, and its closures
must make each IR's own routines.

- A slot is a Python local and a constant a literal, except the slots a
  ResolveLocation roots its trail at: a Location names the frame and slot
  it starts from, so those slots live in a Frame made per call, which
  the callee reads and writes through the trail.  Only a routine that
  resolves a place of its own makes a Frame.
- The IR has no loops: a CondBr becomes if/else, and a body a tree of
  nested arms.
- A BinaryInstr is inline Python, in the form that the operand type
  lowering recorded picks: a comparison yields 1 or 0, a Float + - *
  is the bare operation, and an Int + - * is followed by a check
  against INT_MIN and INT_MAX (only the bound it can cross, when it
  adds or subtracts a constant) that traps through the VM's own
  _overflow.  Division and remainder, with their zero and sign cases,
  still call the VM's _int_div, _int_rem and _float_div.
- A call reads the closure in place, as the VM does, and calls its
  routine's compiled function directly, or VM.enter while the routine
  is cold.
- Path walks, copies, destroys, allocation and copy-on-write go through
  the VM's own _place, copy_value, destroy_value, alloc and cow_dup, so
  every counter comes from the code the interpreter runs.  Each path
  walk gets a list of its base and subscript values, with its steps
  renumbered to index that list, and the base slot is read back after
  a walk that may write it.

Each instruction kind has one template in TEMPLATES.  A routine whose
conditionals nest deeper than CPython's indentation allows stays
interpreted.
"""

from __future__ import annotations

import math
from collections.abc import Callable

from .ir import (
    BinaryInstr,
    CallInstr,
    CondBr,
    Copy,
    Destroy,
    IRProgram,
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
    Routine,
    StorePath,
)
from .vm import (
    INT_MAX,
    INT_MIN,
    VM,
    Frame,
    FuncVal,
    Location,
    StructVal,
    _COMPARISONS,
    _float_div,
    _int_div,
    _int_rem,
    _overflow,
    check_dynamic_overlap,
)

# CPython allows 100 levels of indentation; the function body takes one.
MAX_ARM_DEPTH = 90


class _TooDeep(Exception):
    pass


class _Emitter:
    """The source of one routine's function, and the names it uses."""

    def __init__(self, ir: IRProgram, routine: Routine):
        self.ir = ir
        self.routine = routine
        self.lines: list[str] = []
        # The function's globals that no VM binds; compile_routine adds
        # the VM's own.
        self.ns: dict = {
            "_Struct": StructVal,
            "_Func": FuncVal,
            "_Location": Location,
            "_overlap": check_dynamic_overlap,
            "_overflow": _overflow,
        }
        # Slots that hold a Location: the inout parameters and each
        # resolution's result.  Each other slot a resolution starts
        # from lives in the frame.
        resolves = [ins for ins in _instructions(routine.body) if type(ins) is ResolveLocation]
        self.locations = {*routine.loc_slots, *(ins.dst for ins in resolves)}
        self.framed = {ins.base for ins in resolves} - self.locations

    def name(self, value) -> str:
        """A global of the function, bound to value."""
        n = f"_k{len(self.ns)}"
        self.ns[n] = value
        return n

    def literal(self, v: int | float) -> str:
        """An Int or Float as source; inf and nan have no literal."""
        return repr(v) if type(v) is int or math.isfinite(v) else self.name(v)

    def ref(self, slot: int) -> str:
        """The expression of a slot: a literal for a constant."""
        consts = self.routine.consts
        if slot in consts:
            return self.literal(consts[slot])
        return f"_S[{slot}]" if slot in self.framed else f"s{slot}"

    def refs(self, slots) -> str:
        return ", ".join(map(self.ref, slots))

    def emit(self, depth: int, line: str) -> None:
        self.lines.append("    " * depth + line)

    def function(self) -> str:
        r = self.routine
        params = [*([0] if r.params else []), *r.arg_slots, *r.loc_slots]
        self.emit(0, f"def _routine({', '.join(f's{p}' for p in params)}):")
        if self.framed:
            self.emit(1, f"_F = {self.name(Frame)}({self.name(r)})")
            self.emit(1, "_S = _F.slots")
            for p in params:
                if p in self.framed:
                    self.emit(1, f"_S[{p}] = s{p}")
        self.block(r.body, 1)
        return "\n".join(self.lines)

    def block(self, block: list[Instr], depth: int) -> None:
        if depth > MAX_ARM_DEPTH:
            raise _TooDeep
        if not block:
            self.emit(depth, "pass")
        for ins in block:
            TEMPLATES[type(ins)](self, ins, depth)

    def walk(self, ins, depth: int, prepare: bool, trail: str = "") -> None:
        """Emit a _place walk of ins's path into _c, _i: over a list of
        the base and the subscripts, with steps that index that list."""
        subs, steps = [ins.base], []
        for step in ins.steps:
            if step[0] == "index":
                subs.append(step[1])
                step = ("index", len(subs) - 1)
            steps.append(step)
        self.emit(depth, f"_L = [{self.refs(subs)}]")
        args = f"_L, 0, {self.name(tuple(steps))}, {self.name(ins.span)}, {prepare}{trail}"
        self.emit(depth, f"_c, _i = _place({args})")

    def write_back(self, ins, depth: int) -> None:
        """Read the base back after a walk that may have replaced it."""
        if ins.base not in self.locations:
            self.emit(depth, f"{self.ref(ins.base)} = _L[0]")


def _instructions(block: list[Instr]):
    """Every instruction of block, its arms' too."""
    todo = [block]
    while todo:
        for ins in todo.pop():
            yield ins
            if type(ins) is CondBr:
                todo += [ins.then_block, ins.else_block]


# -- one template per instruction kind ------------------------------------------


def _make_scalar(e: _Emitter, ins: MakeInt | MakeFloat, depth: int) -> None:
    e.emit(depth, f"{e.ref(ins.dst)} = {e.literal(ins.value)}")


def _make_array(e: _Emitter, ins: MakeArray, depth: int) -> None:
    e.emit(depth, f"{e.ref(ins.dst)} = _alloc([{e.refs(ins.operands)}])")


def _make_struct(e: _Emitter, ins: MakeStruct, depth: int) -> None:
    e.emit(depth, f"{e.ref(ins.dst)} = _Struct({ins.struct_name!r}, [{e.refs(ins.operands)}])")


def _make_closure(e: _Emitter, ins: MakeClosure, depth: int) -> None:
    routine = e.name(e.ir.routines[ins.routine_id])
    e.emit(depth, f"{e.ref(ins.dst)} = _Func({routine}, [{e.refs(ins.operands)}])")


def _copy(e: _Emitter, ins: Copy, depth: int) -> None:
    e.emit(depth, f"{e.ref(ins.dst)} = _copy({e.ref(ins.src)})")


def _move(e: _Emitter, ins: Move, depth: int) -> None:
    e.emit(depth, f"{e.ref(ins.dst)} = {e.ref(ins.src)}")
    e.emit(depth, "_stats.moves += 1")


def _destroy(e: _Emitter, ins: Destroy, depth: int) -> None:
    e.emit(depth, f"_destroy({e.ref(ins.slot)})")


def _binary(e: _Emitter, ins: BinaryInstr, depth: int) -> None:
    dst, lhs, rhs, op = e.ref(ins.dst), e.ref(ins.lhs), e.ref(ins.rhs), ins.op
    if op in _COMPARISONS:
        e.emit(depth, f"{dst} = 1 if {lhs} {op} {rhs} else 0")
    elif op == "/" and ins.float_operands:
        e.emit(depth, f"{dst} = {e.name(_float_div)}({lhs}, {rhs})")
    elif op in ("/", "%"):
        div = e.name(_int_div if op == "/" else _int_rem)
        e.emit(depth, f"{dst} = {div}({lhs}, {rhs}, {e.name(ins.span)})")
    else:
        e.emit(depth, f"{dst} = {lhs} {op} {rhs}")
        if ins.float_operands:
            return
        # Every Int in a slot is in range, so adding or subtracting a
        # constant can leave the range on one side only.
        c = e.routine.consts.get(ins.rhs)
        if c is None or op == "*":
            in_range = f"{INT_MIN} <= {dst} <= {INT_MAX}"
        elif (c >= 0) == (op == "+"):
            in_range = f"{dst} <= {INT_MAX}"
        else:
            in_range = f"{INT_MIN} <= {dst}"
        e.emit(depth, f"if not {in_range}: _overflow({op!r}, {e.name(ins.span)})")


def _cond_br(e: _Emitter, ins: CondBr, depth: int) -> None:
    e.emit(depth, f"if {e.ref(ins.cond)}:")
    e.block(ins.then_block, depth + 1)
    e.emit(depth, "else:")
    e.block(ins.else_block, depth + 1)


def _return(e: _Emitter, ins: Return, depth: int) -> None:
    e.emit(depth, f"return {e.ref(ins.slot)}")


def _load_path(e: _Emitter, ins: LoadPath, depth: int) -> None:
    e.walk(ins, depth, False)
    e.emit(depth, f"{e.ref(ins.dst)} = _copy(_c[_i])")


def _store_path(e: _Emitter, ins: StorePath, depth: int) -> None:
    e.walk(ins, depth, True)
    e.emit(depth, "_old = _c[_i]")
    e.emit(depth, f"_c[_i] = {e.ref(ins.value)}")
    e.write_back(ins, depth)
    e.emit(depth, "_destroy(_old)")


def _resolve(e: _Emitter, ins: ResolveLocation, depth: int) -> None:
    if ins.base in e.locations:
        e.emit(depth, "_T = []")
    else:
        e.emit(depth, f'_T = [("slot", _F, {ins.base})]')
    e.walk(ins, depth, True, ", _T")
    e.write_back(ins, depth)
    e.emit(depth, f"{e.ref(ins.dst)} = _Location(tuple(_T))")


def _overlap_check(e: _Emitter, ins: OverlapCheck, depth: int) -> None:
    e.emit(depth, f"_overlap([{e.refs(ins.locations)}], {e.name(ins.span)})")


def _call(e: _Emitter, ins: CallInstr, depth: int) -> None:
    if ins.callee in e.locations:
        steps, span = e.name(tuple(ins.callee_steps)), e.name(ins.span)
        e.emit(depth, f"_c, _i = _place([{e.ref(ins.callee)}], 0, {steps}, {span}, True)")
        e.emit(depth, "_fn = _c[_i]")
    else:
        fields = "".join(f".fields[{step[2]}]" for step in ins.callee_steps)
        e.emit(depth, f"_fn = {e.ref(ins.callee)}{fields}")
    args, locations = list(map(e.ref, ins.args)), list(map(e.ref, ins.locations))
    direct = f"_f({', '.join(['_fn', *args, *locations])})"
    cold = f"_enter(_fn, [{', '.join(args)}], [{', '.join(locations)}])"
    e.emit(depth, "_f = _code[_fn.routine.id]")
    e.emit(depth, f"{e.ref(ins.dst)} = {direct} if _f is not None else {cold}")


TEMPLATES: dict[type, Callable] = {
    MakeInt: _make_scalar,
    MakeFloat: _make_scalar,
    MakeArray: _make_array,
    MakeStruct: _make_struct,
    MakeClosure: _make_closure,
    Copy: _copy,
    Move: _move,
    Destroy: _destroy,
    BinaryInstr: _binary,
    CondBr: _cond_br,
    Return: _return,
    LoadPath: _load_path,
    StorePath: _store_path,
    ResolveLocation: _resolve,
    OverlapCheck: _overlap_check,
    CallInstr: _call,
}


def _emit(ir: IRProgram, routine: Routine) -> tuple | None:
    """routine's compiled module and the globals it reads that no VM
    binds, or None when its conditionals nest too deep to emit."""
    e = _Emitter(ir, routine)
    try:
        source = e.function()
    except _TooDeep:
        return None
    return compile(source, f"<mvsl {routine.id}>", "exec"), e.ns


def compile_routine(vm: VM, routine: Routine) -> Callable | None:
    """routine as a Python function bound to vm's helpers, or None when
    its conditionals nest too deep to emit.  The routine is emitted at
    its first compilation on vm's IR, and bound afresh on every one."""
    compiled = vm.ir.compiled
    if routine.id not in compiled:
        compiled[routine.id] = _emit(vm.ir, routine)
    emitted = compiled[routine.id]
    if emitted is None:
        return None
    code, consts = emitted
    ns = {
        **consts,
        "_place": vm._place,
        "_copy": vm.copy_value,
        "_destroy": vm.destroy_value,
        "_alloc": vm.alloc,
        "_stats": vm.stats,
        "_code": vm.code,
        "_enter": vm.enter,
    }
    exec(code, ns)
    return ns["_routine"]
