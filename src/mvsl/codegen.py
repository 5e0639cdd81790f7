"""Compile a hot routine to a Python function: mvsl's native code.

The VM interprets a routine until its COMPILE_THRESHOLD-th entry in a
run, or only until its first when the IR already keeps its code, then
calls compile_routine, which emits the routine, naive or move-optimized
IR alike, as the source of one Python function and compile()s it.  The
function takes the routine's parameters in call order, the closure
first, then the by-value and inout arguments, and returns its result.

Emission reads only the IR, so it is done once per IRProgram and
routine: the compiled module, the constants it reads and the names of
the VM helpers it calls are kept in IRProgram.compiled.  Each run that
compiles the routine binds that code to its own VM, in a fresh globals
dict of those constants and those helpers, and runs the module in it to
make the function, which takes a few microseconds.  Nothing bound to a
VM is kept, so no run outlives itself.  The code is kept per IR, not per
Routine: move-opt shares an untouched Routine between the naive IR and
its own, and its closures must make each IR's own routines.

- A slot is a Python local and a constant a literal, except the slots a
  ResolveLocation roots its trail at: a Location names the frame and slot
  it starts from, so those slots live in a Frame made per call, whose
  slot list _S is the endpoint of a Location of such a slot alone.  Only
  a routine that resolves a place of its own makes a Frame.
- The IR has no loops: a CondBr becomes if/else, and a body a tree of
  nested arms.
- A BinaryInstr is inline Python, in the form that the type lowering
  recorded for its operand's slot picks.  A comparison directly before
  the CondBr that consumes it, its only reader, is that branch's test
  (if a < b:); any other comparison yields 1 or 0.  A Float + - * is the bare operation,
  and an Int + - * is followed by a check against INT_MIN and INT_MAX
  (only the bound it can cross, when it adds or subtracts a constant)
  that traps through the VM's own _overflow.  An Int / or % by a
  positive constant, which can neither divide by zero nor overflow,
  truncates inline; any other division or remainder, with its zero and
  sign cases, calls the VM's _int_div, _int_rem or _float_div.
- A call reads the closure in place, as the VM does, and calls its
  routine's compiled function directly, or VM.enter while the routine
  is cold.
- A LoadPath, StorePath or ResolveLocation walks its steps inline, with
  the checks _place makes in its order: a field step reads .fields[k],
  and an index step asserts an Int subscript and a Block, in a store or
  a resolution replaces a shared block (r > 1) by the VM's cow_dup in
  the container it was read from, the base slot itself for the first
  step, and checks bounds, trapping through the VM's own check_bounds.
  A resolution also records its hops in a trail, and makes its Location
  with vm.locate.  A base that holds a Location, an inout parameter or
  a resolution's result, is read at the Location's endpoint, as native
  code reads through an address, after the O(1) check of its anchor;
  so is a call's callee slot that holds one.  The emitter knows which
  slots hold a Location: copy_value refuses a Location, and every Move
  is a rewritten Copy, so nothing carries one into another slot.
- A LoadPath or StorePath of an Int or Float place, as lowering marks
  it, reads or overwrites the element with a plain assignment.  Other
  copies and destroys, and allocation, go through the VM's own
  copy_value, destroy_value and alloc, so every counter comes from the
  code the interpreter runs.  Move-opt leaves no Destroy of a value that
  owns nothing to emit.
- A MakeStruct of a field-less struct is a kept constant, the routine's
  one StructVal of that struct, made at emission: it has no parts, so
  no write reaches into it, a copy of it is a new value, and sharing it
  cannot be seen.

Each instruction kind has one template in TEMPLATES.  A routine whose
conditionals nest deeper than CPython's indentation allows stays
interpreted.
"""

from __future__ import annotations

from collections.abc import Callable
from types import CodeType

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
    instructions,
)
from .types import FloatType
from .vm import (
    INT_MAX,
    INT_MIN,
    VM,
    Block,
    Frame,
    FuncVal,
    STALE_LOCATION,
    StructVal,
    _COMPARISONS,
    _float_div,
    _int_div,
    _int_rem,
    _overflow,
    check_dynamic_overlap,
    locate,
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
            "_locate": locate,
            "_STALE": STALE_LOCATION,
            "_Block": Block,
            "_overlap": check_dynamic_overlap,
            "_overflow": _overflow,
        }
        # Slots that hold a Location: the inout parameters and each
        # resolution's result.  Each other slot a resolution starts
        # from lives in the frame.
        resolves = [ins for ins in instructions(routine.body) if type(ins) is ResolveLocation]
        self.locations = {*routine.loc_slots, *(ins.dst for ins in resolves)}
        self.framed = {ins.base for ins in resolves} - self.locations
        self.units: dict[str, str] = {}  # field-less struct name -> its global (see unit)

    def name(self, value) -> str:
        """A global of the function, bound to value."""
        n = f"_k{len(self.ns)}"
        self.ns[n] = value
        return n

    def unit(self, struct_name: str) -> str:
        """The global bound to the routine's one value of a field-less
        struct, which has no parts: no write reaches into it, and a copy
        of it is a new value, so sharing it cannot be seen."""
        if struct_name not in self.units:
            self.units[struct_name] = self.name(StructVal(struct_name, []))
        return self.units[struct_name]

    def floats(self, slot: int) -> bool:
        """Whether slot holds a Float, by the type lowering recorded; a
        slot of no recorded type, as in a hand-built IR, holds an Int."""
        types = self.routine.slot_types
        return slot < len(types) and type(types[slot]) is FloatType

    def ref(self, slot: int) -> str:
        """The expression of a slot: a literal for a constant."""
        consts = self.routine.consts
        if slot in consts:
            return repr(consts[slot])
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
        i = 0
        while i < len(block):
            ins, after = block[i], block[i + 1] if i + 1 < len(block) else None
            if (
                type(after) is CondBr
                and type(ins) is BinaryInstr
                and ins.op in _COMPARISONS
                and after.cond == ins.dst
                and after.cond not in after.lent
            ):
                # The branch consumes the comparison, its only reader: it
                # tests the comparison itself, and no 1 or 0 is made.
                _branch(self, after, depth, f"{self.ref(ins.lhs)} {ins.op} {self.ref(ins.rhs)}")
                i += 2
                continue
            TEMPLATES[type(ins)](self, ins, depth)
            i += 1

    def location(self, slot: int, depth: int) -> tuple[str, str]:
        """Emit the O(1) check of the Location in slot, that its anchor
        still holds, and return its endpoint as (container, index)."""
        loc = self.ref(slot)
        self.emit(depth, f"_g = {loc}.anchor")
        self.emit(depth, "assert _g is None or _g[0][_g[1]] is _g[2], _STALE")
        return f"{loc}.container", f"{loc}.index"

    def place(self, ins: LoadPath | StorePath | ResolveLocation, depth: int, prepare: bool,
              trail: bool = False) -> tuple[str | None, str]:
        """Emit the walk of ins's path inline, in the order _place walks
        it, and return the place it reaches as (container, index), whose
        container[index] is assignable; container is None for a local,
        which index names.  A base that holds a Location starts at its
        endpoint.  A field step reads .fields[k].  An index step asserts
        that its subscript is an Int and the value a Block, with prepare
        replaces a shared block by a duplicate in the container it was
        read from, and checks bounds, trapping through the VM's
        check_bounds.  With trail the walk also records its hops in _T,
        as a resolution does."""
        span = self.name(ins.span)
        c: str | None
        if ins.base in self.locations:
            c, i = self.location(ins.base, depth)
            if trail:
                self.emit(depth, f"_T = [*{self.ref(ins.base)}.trail]")
        elif ins.base in self.framed:
            c, i = "_S", str(ins.base)
            if trail:
                self.emit(depth, f'_T = [("slot", _F, {ins.base})]')
        else:
            c, i = None, self.ref(ins.base)
        for step in ins.steps:
            place = _at(c, i)
            if step[0] == "field":
                c, i = f"{place}.fields", str(step[2])
                if trail:
                    self.emit(depth, f"_T.append({self.name(step)})")
                continue
            sub = self.ref(step[1])
            v = place if place.isidentifier() else "_v"
            if v != place:
                self.emit(depth, f"_v = {place}")
            if step[1] in self.routine.consts:
                assert type(self.routine.consts[step[1]]) is int
                self.emit(depth, f"assert type({v}) is _Block")
            else:
                self.emit(depth, f"assert type({sub}) is int and type({v}) is _Block")
            if prepare:
                targets = v if v == place else f"{v} = {place}"
                self.emit(depth, f"if {v}.r > 1: {targets} = _cow({v})")
            self.emit(depth, f"_e = {v}.elems")
            self.emit(depth, f"if not 0 <= {sub} < len(_e): _bounds({v}, {sub}, {span})")
            if trail:
                self.emit(depth, f'_T.append(("elem", {v}, {sub}))')
            c, i = "_e", sub
        return c, i


def _at(container: str | None, index: str) -> str:
    """The expression of the place (container, index) that _Emitter.place
    returns."""
    return index if container is None else f"{container}[{index}]"


# -- one template per instruction kind ------------------------------------------


def _make_scalar(e: _Emitter, ins: MakeInt | MakeFloat, depth: int) -> None:
    e.emit(depth, f"{e.ref(ins.dst)} = {ins.value!r}")


def _make_array(e: _Emitter, ins: MakeArray, depth: int) -> None:
    e.emit(depth, f"{e.ref(ins.dst)} = _alloc([{e.refs(ins.operands)}])")


def _make_struct(e: _Emitter, ins: MakeStruct, depth: int) -> None:
    if not ins.operands:  # a field-less struct: the routine's one value of it
        e.emit(depth, f"{e.ref(ins.dst)} = {e.unit(ins.struct_name)}")
        return
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
    c = e.routine.consts.get(ins.rhs)
    if op in _COMPARISONS:
        e.emit(depth, f"{dst} = 1 if {lhs} {op} {rhs} else 0")
    elif op == "/" and e.floats(ins.lhs):
        e.emit(depth, f"{dst} = {e.name(_float_div)}({lhs}, {rhs})")
    elif op in ("/", "%") and c is not None and c > 0:
        # A positive constant divisor can neither be zero nor overflow the
        # quotient: truncate toward zero inline.
        py = "//" if op == "/" else "%"
        e.emit(depth, f"{dst} = {lhs} {py} {rhs} if {lhs} >= 0 else -(-{lhs} {py} {rhs})")
    elif op in ("/", "%"):
        div = e.name(_int_div if op == "/" else _int_rem)
        e.emit(depth, f"{dst} = {div}({lhs}, {rhs}, {e.name(ins.span)})")
    else:
        e.emit(depth, f"{dst} = {lhs} {op} {rhs}")
        if e.floats(ins.lhs):
            return
        # Every Int in a slot is in range, so adding or subtracting a
        # constant can leave the range on one side only.
        if c is None or op == "*":
            in_range = f"{INT_MIN} <= {dst} <= {INT_MAX}"
        elif (c >= 0) == (op == "+"):
            in_range = f"{dst} <= {INT_MAX}"
        else:
            in_range = f"{INT_MIN} <= {dst}"
        e.emit(depth, f"if not {in_range}: _overflow({op!r}, {e.name(ins.span)})")


def _cond_br(e: _Emitter, ins: CondBr, depth: int) -> None:
    _branch(e, ins, depth, e.ref(ins.cond))


def _branch(e: _Emitter, ins: CondBr, depth: int, test: str) -> None:
    """ins's arms under if test / else."""
    e.emit(depth, f"if {test}:")
    e.block(ins.then_block, depth + 1)
    e.emit(depth, "else:")
    e.block(ins.else_block, depth + 1)


def _return(e: _Emitter, ins: Return, depth: int) -> None:
    e.emit(depth, f"return {e.ref(ins.slot)}")


def _load_path(e: _Emitter, ins: LoadPath, depth: int) -> None:
    place = _at(*e.place(ins, depth, False))
    e.emit(depth, f"{e.ref(ins.dst)} = {place if ins.scalar else f'_copy({place})'}")


def _store_path(e: _Emitter, ins: StorePath, depth: int) -> None:
    place = _at(*e.place(ins, depth, True))
    if not ins.scalar:
        e.emit(depth, f"_old = {place}")
    e.emit(depth, f"{place} = {e.ref(ins.value)}")
    if not ins.scalar:
        e.emit(depth, "_destroy(_old)")


def _resolve(e: _Emitter, ins: ResolveLocation, depth: int) -> None:
    # A resolution's base is framed or holds a Location, so its place has
    # a container, the frame's _S for a framed base with no steps.
    c, i = e.place(ins, depth, True, trail=True)
    e.emit(depth, f"{e.ref(ins.dst)} = _locate(_T, {c}, {i})")


def _overlap_check(e: _Emitter, ins: OverlapCheck, depth: int) -> None:
    e.emit(depth, f"_overlap([{e.refs(ins.locations)}], {e.name(ins.span)})")


def _call(e: _Emitter, ins: CallInstr, depth: int) -> None:
    callee = e.ref(ins.callee)
    if ins.callee in e.locations:
        callee = _at(*e.location(ins.callee, depth))
    fields = "".join(f".fields[{step[2]}]" for step in ins.callee_steps)
    e.emit(depth, f"_fn = {callee}{fields}")
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


# The VM's own helpers and tables, by the global name compiled code reads
# them under and their attribute of the VM.  A function is bound only to
# those it reads.
VM_GLOBALS = {
    "_cow": "cow_dup",
    "_bounds": "check_bounds",
    "_copy": "copy_value",
    "_destroy": "destroy_value",
    "_alloc": "alloc",
    "_stats": "stats",
    "_code": "code",
    "_enter": "enter",
}


def _emit(ir: IRProgram, routine: Routine) -> tuple | None:
    """routine's compiled module, the globals it reads that no VM binds
    and the names of the VM's own it reads, or None when its conditionals
    nest too deep to emit."""
    e = _Emitter(ir, routine)
    try:
        source = e.function()
    except _TooDeep:
        return None
    code = compile(source, f"<mvsl {routine.id}>", "exec")
    (function,) = [c for c in code.co_consts if type(c) is CodeType]
    return code, e.ns, [name for name in VM_GLOBALS if name in function.co_names]


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
    code, consts, names = emitted
    ns = {**consts, **{name: getattr(vm, VM_GLOBALS[name]) for name in names}}
    exec(code, ns)
    return ns["_routine"]
