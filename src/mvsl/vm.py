"""Virtual machine.

Values form disjoint trees.  Ints, floats, and structs live inline;
an array value is its refcounted Block; a closure is its own environment
record, the routine it runs next to the values it captured.  Copying an
array under copy-on-write just retains its block and shares it; the
block is duplicated lazily, the first time a mutation reaches it while
it is shared, and the fresh block replaces the shared one in the place
written.  With cow off every copy is a deep copy, so blocks are never
shared and the counters expose exactly what each strategy costs.  A
block whose elements are all Ints, or all Floats, holds no blocks: it is
deep-copied with one slice, freed without visiting its elements and
printed in one join, and each such copy and free still counts once.

The VM runs the layout lowering fixed: a field step carries its offset
in the struct or environment record, so no field is looked up by name.

inout arguments travel as Locations: a trail of frame-slot, field, and
array-element hops, never a machine address.  One walker, VM._place,
follows both a Location's trail and an instruction's path steps, from a
list of slots, which need not be a frame's; a
resolution duplicates every shared block along the path, so a callee
always writes uniquely-referenced storage.  Overlap between two
locations of one call is the trail-prefix relation, checked dynamically
in one pass over the places the type checker could not decide.  A call
reads its callee in place, from its slot through its field steps, as
native code loads a function from a struct field, and never consumes
it; a slot that holds a Location, as for a callee path with an index
step, is walked through its trail first.

An inout parameter passed on whole (&x) is forwarded, as native code
passes the same pointer on: the move-optimized IR lends the call the
parameter's own Location, which the callee's frame holds while the
caller's slot keeps it, so a second call in the same arm finds it
too.  Nothing can share a block on its trail while the caller runs, so
a new resolution would walk the same trail and duplicate nothing; with
debug on, VM.audit_location checks exactly that at each such call.
The naive IR resolves the parameter again, so the differential harness
compares the two.

A routine's constants sit in its frames from the start: a frame's slots
are a copy of Routine.template, so an instruction reads a constant
operand as it reads any slot, with no test.  Nothing clears a constant
slot: a BinaryInstr leaves its scalar operands where they are, and so
does an index step.

A call is one hop.  Every routine's frame has a size fixed by lowering,
and Routine.arg_slots and loc_slots name the slots of its by-value and
inout parameters.  The caller allocates the callee's frame and writes
each argument and each Location straight into its slot, and the closure
itself into slot 0; then it runs the callee's body.  The callee's frame
links to the caller's, the only record of the call stack.  An owned
argument leaves the caller's slot empty.  A lent argument stays in the
caller's slot, which still owns it: the callee's frame holds the same
value for the duration of the call and never destroys it.  The closure
is lent the same way.

Hot routines are compiled.  The VM counts each routine's entries in a
run, and at the COMPILE_THRESHOLD-th it compiles the routine to a
Python function (mvsl.codegen), which later calls run instead of the
routine's instructions: its slots are Python locals, and it calls this
VM's own _place, copy_value, destroy_value and alloc, so the counters
are the interpreter's.  A call of a compiled routine passes its
arguments positionally, the closure first, and costs one Python frame.
Compiled code calls a routine still cold through VM.enter.  The
tiering is per run, but the code is kept per IR: a routine is emitted
and compiled once per IRProgram, and each later run that compiles it
binds that code to its own VM in microseconds.  No run's VM outlives
the run.  With debug on nothing compiles, since the audit walks the
interpreter's frames.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Callable
from dataclasses import dataclass
from operator import countOf

from .diagnostics import RuntimeTrap, Span
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
    P_ENV,
    P_LENT,
    ResolveLocation,
    Return,
    Routine,
    StorePath,
)

# A routine is compiled to a Python function at this entry in a run (see
# mvsl.codegen); math.inf keeps every routine interpreted.  Entries are
# counted per run, though emitting is paid once per IR: every run of an IR
# interprets a routine's first 49 entries again, and from the second run
# on its compilation only binds the kept code.  In one execute pass at
# seed 0, fib_closure enters its recursive routine 3 193 times and
# cow_inout its 511, while no diff_sweep routine is entered more than 26
# times: at 50 each of the first two compiles its one hot routine, and
# diff_sweep, whose emission would not pay back, compiles none.
COMPILE_THRESHOLD = 50

INT_MIN = -(2**63)
INT_MAX = 2**63 - 1

# Trap kinds.
INDEX_OUT_OF_BOUNDS = "IndexOutOfBounds"
OVERLAP_VIOLATION = "OverlapViolation"
INTEGER_OVERFLOW = "IntegerOverflow"
DIVISION_BY_ZERO = "DivisionByZero"


@dataclass
class RuntimeStats:
    deep_copies: int = 0
    retains: int = 0
    releases: int = 0
    moves: int = 0
    cow_copies: int = 0
    allocs: int = 0
    frees: int = 0
    closure_copies: int = 0  # environment records copied with their closure

    def as_dict(self) -> dict[str, int]:
        """The counters by name, in declaration order: the instance's
        attributes are exactly its dataclass fields."""
        return dict(vars(self))

    def as_json(self) -> str:
        return json.dumps(self.as_dict(), separators=(",", ":"))


# ---------------------------------------------------------------------------
# Values


class StructVal:
    """Struct value; fields laid out in declaration order."""

    __slots__ = ("name", "fields")

    def __init__(self, name: str, fields: list):
        self.name = name
        self.fields = fields


class FuncVal:
    """A closure: the routine it runs plus its captured values, laid out
    as that routine's env_fields.  The closure is its own environment
    record: a field step reads its fields as it reads a struct's."""

    __slots__ = ("routine", "fields")

    def __init__(self, routine: Routine, fields: list):
        self.routine = routine
        self.fields = fields


Value = object  # int | float | StructVal | Block | FuncVal


class Block:
    """An array value: a reference count r and the elements.

    Each place holding the block is one reference; a freed block has
    r == 0.  Trails compare blocks and the debug audit counts them by
    identity, so Block defines no __eq__.
    """

    __slots__ = ("r", "elems")

    def __init__(self, elems: list):
        self.r = 1
        self.elems = elems


class Frame:
    """A routine's slots, linked to the frame of the call that made it
    (None for the entry).  The slots start as a copy of the routine's
    template: empty, except for its constants."""

    __slots__ = ("routine", "slots", "caller")

    def __init__(self, routine: Routine, caller: Frame | None = None):
        self.routine = routine
        self.slots: list = routine.template[:]
        self.caller = caller


# A location is a trail of hops from a frame slot down to a place:
#   ("slot", frame, index)  — always first;
#   ("field", name, offset) — struct or environment field step;
#   ("elem", block, index)  — array element step.
# Two locations overlap iff one trail is a prefix of the other.


class Location:
    """A trail, and nothing more: every use walks it again, since sharing
    created since the resolution must be duplicated."""

    __slots__ = ("trail",)

    def __init__(self, trail: tuple):
        self.trail = trail


def check_dynamic_overlap(locations: list[Location], span: Span) -> None:
    """Trap iff two locations denote the same place or one contains the
    other: filed in one trie of hops, where the key None marks an end,
    one trail ends where another ends or passes through."""
    trie: dict = {}
    for loc in locations:
        node = trie
        for hop in loc.trail:
            node = node.setdefault(hop, {})
            if None in node:
                break
        if node:
            raise RuntimeTrap(span, OVERLAP_VIOLATION, "overlapping inout arguments")
        node[None] = True


def _scalar_type(elems: list) -> type | None:
    """int or float when every element is exactly that type, else None.

    Such a block holds no other block: a slice of it is a deep copy,
    freeing it frees nothing more, and it prints in one join.  The first
    element is tested alone, so a block of aggregates pays one type
    test; a bool is neither type, so it still reaches the element-wise
    assertions."""
    t = type(elems[0]) if elems else None
    if (t is int or t is float) and countOf(map(type, elems), t) == len(elems):
        return t
    return None


# ---------------------------------------------------------------------------
# Array layout serialization


def serialize_array_layout(
    elements: list[int], element_size_bytes: int, byte_order: str
) -> tuple[int, int, int, bytes]:
    """Render an Int array's storage tuple ⟨r, n, k, payload⟩.

    Elements are two's-complement signed integers of the given width;
    a value outside the representable range is an error.
    """
    if byte_order not in ("little", "big"):
        raise ValueError(f"byte_order must be 'little' or 'big', got {byte_order!r}")
    n = len(elements)
    k = n * element_size_bytes
    payload = bytearray()
    lo = -(1 << (8 * element_size_bytes - 1))
    hi = (1 << (8 * element_size_bytes - 1)) - 1
    for v in elements:
        if not lo <= v <= hi:
            raise ValueError(f"value {v} does not fit in {element_size_bytes} bytes")
        payload += v.to_bytes(element_size_bytes, byte_order, signed=True)
    return (1, n, k, bytes(payload))


# ---------------------------------------------------------------------------
# Formatting


def format_value(v: Value) -> str:
    if isinstance(v, bool):  # defensive: comparisons must produce plain ints
        raise AssertionError("boolean leaked into a value")
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, Block):
        t = _scalar_type(v.elems)
        if t is not None:
            return f"[{', '.join(map(str if t is int else repr, v.elems))}]"
        return f"[{', '.join(format_value(e) for e in v.elems)}]"
    if isinstance(v, StructVal):
        return f"{v.name}({', '.join(format_value(f) for f in v.fields)})"
    if isinstance(v, FuncVal):
        return "<function>"
    raise AssertionError(f"cannot format {v!r}")


class VM:
    def __init__(self, ir: IRProgram, cow: bool, debug: bool):
        self.ir = ir
        self.cow = cow
        self.debug = debug
        self.stats = RuntimeStats()
        # Tiering, for this run only, by routine id: each routine's entries
        # so far, and its compiled code bound to this VM, None while it is
        # cold.
        self.entries: dict[str, int] = dict.fromkeys(ir.routines, 0)
        self.code: dict[str, Callable | None] = dict.fromkeys(ir.routines)
        self.codegen_s = 0.0  # seconds spent compiling hot routines

    def alloc(self, elems: list) -> Block:
        self.stats.allocs += 1
        return Block(elems)

    # -- value operations -----------------------------------------------------
    #
    # Values dispatch on their exact type, most frequent first: no value
    # class has subclasses, and bool never reaches the VM.

    def copy_value(self, v: Value) -> Value:
        """A copy of v that the caller owns.  Under copy-on-write an array
        is retained; otherwise it is deep-copied, and deep_copies counts
        each block copied, the nested ones too.  A block of scalars is
        copied in one slice, which is already a full deep copy."""
        t = type(v)
        if t is int or t is float:
            return v
        if t is StructVal:
            return StructVal(v.name, [self.copy_value(f) for f in v.fields])
        if t is FuncVal:
            self.stats.closure_copies += 1
            return FuncVal(v.routine, [self.copy_value(f) for f in v.fields])
        if t is Block:
            if self.cow:
                v.r += 1
                self.stats.retains += 1
                return v
            self.stats.deep_copies += 1
            return self.alloc(self._copy_elems(v.elems))
        raise AssertionError(f"cannot copy {v!r}")

    def _copy_elems(self, elems: list) -> list:
        if _scalar_type(elems) is not None:
            return elems[:]
        return [self.copy_value(e) for e in elems]

    def destroy_value(self, v: Value) -> None:
        """Drop one reference to v.  A block whose last reference goes is
        freed, counted once, and its elements are destroyed in turn,
        unless it holds only scalars, which own nothing."""
        t = type(v)
        if t is int or t is float or v is None:
            return
        if t is StructVal or t is FuncVal:
            for f in v.fields:
                self.destroy_value(f)
            return
        if t is Block:
            assert v.r >= 1, "destroy of a dead block"
            v.r -= 1
            if v.r == 0:
                if _scalar_type(v.elems) is None:
                    for e in v.elems:
                        self.destroy_value(e)
                self.stats.frees += 1
            else:
                self.stats.releases += 1
            return
        if t is Location:  # a place, which owns nothing
            return
        raise AssertionError(f"cannot destroy {v!r}")

    def cow_dup(self, old: Block) -> Block:
        """A fresh unique copy of the shared block old, for mutation: old
        loses one reference, and the elements are copied element-wise
        (retaining nested arrays when cow is on), or sliced when they are
        all scalars."""
        assert old.r > 1
        old.r -= 1
        self.stats.releases += 1
        self.stats.cow_copies += 1
        return self.alloc(self._copy_elems(old.elems))

    # -- frame helpers ----------------------------------------------------------

    def check_bounds(self, block: Block, index: int, span: Span) -> None:
        if not 0 <= index < len(block.elems):
            raise RuntimeTrap(
                span,
                INDEX_OUT_OF_BOUNDS,
                f"index {index} out of bounds for array of {len(block.elems)} elements",
            )

    # -- places -------------------------------------------------------------------

    def _place(self, slots: list, base: int, steps, span: Span, prepare: bool, trail=None):
        """Walk from slots[base] through the IR steps to (container,
        index): the place lives at container[index], a slot list, the
        field list of a struct or closure, or a block's element list.

        A base slot holding a Location is walked through its trail
        first.  An ("index", slot) step reads slots[slot] and leaves it
        as it is: an Int needs no destroy, and a constant slot must keep
        its value for the routine's next use.  With
        prepare=True a shared block crossed on the way is replaced by a
        fresh duplicate, so the place can be written.  trail, when given,
        receives the hops walked, each element hop naming the block it
        reached, after the head of the base Location's trail; for any
        other base the caller puts the ("slot", frame, base) head in
        trail first, since only it knows the frame that slots belong to.
        """
        container, index = slots, base
        hops = steps
        cur = slots[base]
        if type(cur) is Location:
            head = cur.trail[0]
            assert head[0] == "slot"
            container, index = head[1].slots, head[2]
            hops = (*cur.trail[1:], *steps)
            if trail is not None:
                trail.append(head)
        for hop in hops:
            cur = container[index]
            kind = hop[0]
            if kind == "field":
                assert type(cur) is StructVal or type(cur) is FuncVal
                container, index = cur.fields, hop[2]
                if trail is not None:
                    trail.append(hop)
                continue
            if kind == "index":
                i = slots[hop[1]]
                assert type(i) is int
                assert type(cur) is Block
            else:
                assert cur is hop[1], (
                    "stale location: storage replaced during argument evaluation"
                )
                i = hop[2]
            if prepare and cur.r > 1:
                cur = container[index] = self.cow_dup(cur)
            self.check_bounds(cur, i, span)
            container, index = cur.elems, i
            if trail is not None:
                trail.append(("elem", cur, i))
        return container, index

    # -- instruction execution ------------------------------------------------

    def exec_load(self, frame: Frame, ins: LoadPath) -> None:
        container, index = self._place(frame.slots, ins.base, ins.steps, ins.span, False)
        frame.slots[ins.dst] = self.copy_value(container[index])

    def exec_store(self, frame: Frame, ins: StorePath) -> None:
        slots = frame.slots
        value = slots[ins.value]
        slots[ins.value] = None
        if self.debug and type(slots[ins.base]) is not Location:
            assert ins.base not in frame.routine.immutable_slots, (
                "write through an immutable binding"
            )
        container, index = self._place(slots, ins.base, ins.steps, ins.span, True)
        old = container[index]
        container[index] = value
        self.destroy_value(old)

    def exec_resolve(self, frame: Frame, ins: ResolveLocation) -> None:
        slots = frame.slots
        trail: list = []
        if type(slots[ins.base]) is not Location:
            assert not self.debug or ins.borrow or ins.base not in frame.routine.immutable_slots, (
                "inout resolution of an immutable binding"
            )
            trail.append(("slot", frame, ins.base))
        self._place(slots, ins.base, ins.steps, ins.span, True, trail)
        slots[ins.dst] = Location(tuple(trail))

    def exec_call(self, frame: Frame, ins: CallInstr) -> None:
        slots = frame.slots
        # The callee is read in place, at its field steps from its slot:
        # the closure stays there and its environment mutations persist
        # there.  A Location in the slot is walked as a resolution walks
        # it.  Lowering resolves a callee path with an index step after
        # every argument, and only inout resolutions, which find its
        # blocks already unique, run before the call, so its walk
        # duplicates nothing.
        fn = slots[ins.callee]
        if type(fn) is Location:
            container, index = self._place(slots, ins.callee, ins.callee_steps, ins.span, True)
            fn = container[index]
        else:
            for step in ins.callee_steps:
                fn = fn.fields[step[2]]
        assert type(fn) is FuncVal
        routine = fn.routine
        rid = routine.id
        code = self.code[rid]
        if code is None:  # _count, inlined: most calls are to cold routines
            n = self.entries[rid] = self.entries[rid] + 1
            if n == COMPILE_THRESHOLD:
                code = self._compile(routine)
        # The closure is lent to the call, and so is a lent argument: each
        # stays where the caller holds it, and the caller still owns it.
        lent = ins.lent
        if code is not None:
            passed = (*ins.args, *ins.locations)
            values = [slots[a] for a in passed]
            for a in passed:
                if a not in lent:
                    slots[a] = None
            slots[ins.dst] = code(fn, *values)
            return
        callee_frame = Frame(routine, frame)
        into = callee_frame.slots
        into[0] = fn
        for a, s in zip(ins.args, routine.arg_slots):
            into[s] = slots[a]
            if a not in lent:
                slots[a] = None
        for a, s in zip(ins.locations, routine.loc_slots):
            into[s] = slots[a]
            if a not in lent:
                slots[a] = None
            elif self.debug:
                self.audit_location(frame, a, ins.span)
        result = self.exec_block(routine.body, callee_frame)
        assert result is not None, "routine body must end in Return"
        slots[ins.dst] = result

    def enter(self, fn: FuncVal, args: list, locations: list) -> Value:
        """Compiled code's call of a routine with no code yet: count the
        entry, and run its new code if this one compiled it, else run it
        interpreted, as exec_call does, in a frame with no caller, since
        compiled code never runs under the debug audit, the only reader
        of the links."""
        routine = fn.routine
        code = self._count(routine)
        if code is not None:
            return code(fn, *args, *locations)
        frame = Frame(routine)
        into = frame.slots
        into[0] = fn
        for v, s in zip(args, routine.arg_slots):
            into[s] = v
        for v, s in zip(locations, routine.loc_slots):
            into[s] = v
        result = self.exec_block(routine.body, frame)
        assert result is not None, "routine body must end in Return"
        return result

    def _count(self, routine: Routine):
        """Count one entry of routine, which has no code yet, and compile
        it at its COMPILE_THRESHOLD-th: its code, or None while it runs
        interpreted.  A routine that cannot be compiled is not tried
        again."""
        n = self.entries[routine.id] = self.entries[routine.id] + 1
        return self._compile(routine) if n == COMPILE_THRESHOLD else None

    def _compile(self, routine: Routine):
        """routine's code bound to this VM, timed and kept for the rest of
        the run, or None if it cannot be compiled.  The IR keeps what was
        emitted for it, so only the first run of an IR to compile routine
        emits it.  With debug on nothing compiles, since the audit walks
        the frames of interpreted calls."""
        if self.debug:
            return None
        # codegen reads this module's helpers, so it is imported here.
        from .codegen import compile_routine

        start = time.perf_counter()
        code = compile_routine(self, routine)
        self.codegen_s += time.perf_counter() - start
        if code is not None:
            self.code[routine.id] = code
        return code

    def exec_block(self, block: list[Instr], frame: Frame) -> Value | None:
        # One exact-type test per instruction, in the order of each kind's
        # mean share of the instructions that one execute pass of the
        # optimized IR runs in the three benchmark workloads (seed 0):
        # fib(16) through a closure box (22 356 instructions), the inout
        # fill of 256 elements (4 870) and the diff_sweep programs
        # (52 390).  BinaryInstr 38.6 %, CondBr 12.0, Return 11.0,
        # CallInstr 10.8, LoadPath 5.9, MakeInt 5.4, Destroy 5.4,
        # StorePath 4.0, MakeStruct 2.1, ResolveLocation 1.3, each other
        # kind 0.9 or less.
        slots = frame.slots
        debug = self.debug
        for ins in block:
            t = type(ins)
            if t is BinaryInstr:
                # Operands are scalars, which need no destroy, so a consumed
                # operand's slot is left as it is, like one read in place;
                # a constant operand's slot must keep its value anyway.
                lhs = slots[ins.lhs]
                ops = _INT_OPS if type(lhs) is int else _FLOAT_OPS
                slots[ins.dst] = ops[ins.op](lhs, slots[ins.rhs], ins.span)
            elif t is CondBr:
                cond = slots[ins.cond]  # a scalar, left in its slot
                assert type(cond) is int
                self.exec_block(ins.then_block if cond != 0 else ins.else_block, frame)
            elif t is Return:
                result = slots[ins.slot]
                slots[ins.slot] = None
                if debug:
                    self.audit_refcounts(frame, result)
                return result
            elif t is CallInstr:
                self.exec_call(frame, ins)
            elif t is LoadPath:
                self.exec_load(frame, ins)
            elif t is MakeInt:
                slots[ins.dst] = ins.value
            elif t is Destroy:
                v = slots[ins.slot]
                slots[ins.slot] = None
                self.destroy_value(v)
            elif t is StorePath:
                self.exec_store(frame, ins)
            elif t is MakeStruct:
                slots[ins.dst] = StructVal(ins.struct_name, _take_all(slots, ins.operands))
            elif t is ResolveLocation:
                self.exec_resolve(frame, ins)
            elif t is MakeClosure:
                routine = self.ir.routines[ins.routine_id]
                slots[ins.dst] = FuncVal(routine, _take_all(slots, ins.operands))
            elif t is MakeArray:
                elems = _take_all(slots, ins.operands)
                slots[ins.dst] = self.alloc(elems)
            elif t is Copy:
                slots[ins.dst] = self.copy_value(slots[ins.src])
            elif t is Move:
                slots[ins.dst] = slots[ins.src]
                slots[ins.src] = None
                self.stats.moves += 1
            elif t is MakeFloat:
                slots[ins.dst] = ins.value
            elif t is OverlapCheck:
                check_dynamic_overlap([slots[loc] for loc in ins.locations], ins.span)
            else:  # pragma: no cover
                raise AssertionError(f"unknown instruction {ins!r}")
            if debug:
                self.audit_refcounts(frame)
        return None

    # -- debug audit --------------------------------------------------------------

    def audit_location(self, frame: Frame, slot: int, span: Span) -> None:
        """Check that the Location in frame's slot, an inout parameter lent
        to a call as it is, is what resolving it again would give: the
        same trail, with no block on the way shared, so that the walk
        would duplicate nothing."""
        trail: list = []
        self._place(frame.slots, slot, (), span, False, trail)
        shared = [hop[2] for hop in trail if hop[0] == "elem" and hop[1].r != 1]
        assert tuple(trail) == frame.slots[slot].trail, (
            "stale location: a lent inout parameter no longer reaches its place"
        )
        assert not shared, (
            f"stale location: a lent inout parameter crosses shared blocks at {shared}"
        )

    def audit_refcounts(self, frame: Frame, pending: Value | None = None) -> None:
        """Safepoint check: each block reachable from frame, its callers
        and the pending value has r equal to the number of places holding
        it, and the reachable blocks are all allocs - frees live ones.  A
        frame's env slot borrows the callee's closure value, and its lent
        parameters borrow the caller's values: each is counted where it
        lives.  A block of scalars holds no block, so its elements are
        not walked."""
        refs: dict[Block, int] = {}

        def walk(v: Value) -> None:
            t = type(v)
            if t is Block:
                n = refs.get(v, 0)
                refs[v] = n + 1
                if n == 0 and _scalar_type(v.elems) is None:
                    for e in v.elems:
                        walk(e)
            elif t is StructVal or t is FuncVal:
                for f in v.fields:
                    walk(f)

        while frame is not None:
            params = frame.routine.params
            for i, v in enumerate(frame.slots):
                if v is None or type(v) is Location:
                    continue
                if i < len(params) and params[i][0] in (P_ENV, P_LENT):
                    continue
                walk(v)
            frame = frame.caller
        if pending is not None:
            walk(pending)
        live = self.stats.allocs - self.stats.frees
        drift = [(n, b.r) for b, n in refs.items() if b.r != n]
        assert not drift and len(refs) == live, (
            f"refcount drift: {len(refs)} blocks reachable of {live} live, "
            f"(references, r) {drift}"
        )

    # -- top level -------------------------------------------------------------

    def run(self) -> str:
        entry = self.ir.routines[self.ir.entry]
        code = self._count(entry)
        result = code() if code is not None else self.exec_block(entry.body, Frame(entry))
        assert result is not None, "routine body must end in Return"
        text = format_value(result)
        self.destroy_value(result)
        return text


def _take_all(slots: list, indices: list[int]) -> list:
    """Move the values out of slots[indices], leaving those slots empty."""
    values = [slots[s] for s in indices]
    for s in indices:
        slots[s] = None
    return values


# Scalar semantics, one function per operator, each taking (lhs, rhs,
# span): Int is checked 64-bit two's complement with truncating division;
# Float is IEEE 754 double (division by zero yields an infinity or nan,
# never a trap).  A comparison yields 1 or 0, never a bool.


def _overflow(op: str, span: Span):
    raise RuntimeTrap(span, INTEGER_OVERFLOW, f"integer overflow in '{op}'")


def _int_add(a: int, b: int, span: Span) -> int:
    r = a + b
    return r if INT_MIN <= r <= INT_MAX else _overflow("+", span)


def _int_sub(a: int, b: int, span: Span) -> int:
    r = a - b
    return r if INT_MIN <= r <= INT_MAX else _overflow("-", span)


def _int_mul(a: int, b: int, span: Span) -> int:
    r = a * b
    return r if INT_MIN <= r <= INT_MAX else _overflow("*", span)


def _truncated_quotient(a: int, b: int, span: Span) -> int:
    if b == 0:
        raise RuntimeTrap(span, DIVISION_BY_ZERO, "division by zero")
    q = a // b
    if (a % b != 0) and ((a < 0) != (b < 0)):
        q += 1  # truncate toward zero
    return q


def _int_div(a: int, b: int, span: Span) -> int:
    r = _truncated_quotient(a, b, span)  # INT_MIN / -1 overflows
    return r if INT_MIN <= r <= INT_MAX else _overflow("/", span)


def _int_rem(a: int, b: int, span: Span) -> int:
    # |r| < |b|, so the remainder is always in range.
    return a - b * _truncated_quotient(a, b, span)


def _float_div(a: float, b: float) -> float:
    if b == 0.0:
        if a != a or a == 0.0:
            return float("nan")
        sign = math.copysign(1.0, a) * math.copysign(1.0, b)
        return math.copysign(float("inf"), sign)
    return a / b


_COMPARISONS = {
    "==": lambda a, b, span: 1 if a == b else 0,
    "!=": lambda a, b, span: 1 if a != b else 0,
    "<": lambda a, b, span: 1 if a < b else 0,
    "<=": lambda a, b, span: 1 if a <= b else 0,
    ">": lambda a, b, span: 1 if a > b else 0,
    ">=": lambda a, b, span: 1 if a >= b else 0,
}
_INT_OPS = {
    **_COMPARISONS, "+": _int_add, "-": _int_sub, "*": _int_mul, "/": _int_div, "%": _int_rem,
}
_FLOAT_OPS = {
    **_COMPARISONS,
    "+": lambda a, b, span: a + b,
    "-": lambda a, b, span: a - b,
    "*": lambda a, b, span: a * b,
    "/": lambda a, b, span: _float_div(a, b),
}


def execute(
    ir: IRProgram, cow: bool = True, debug: bool = False, timings: dict | None = None
) -> tuple[str, RuntimeStats]:
    """Run ir's entry routine; returns the formatted final value and
    the run's counters.  Non-trapping runs must free every block:
    allocs == frees and retains == releases.  No block is freed twice,
    so equal counts mean none is left.  timings, when given, gets the
    seconds spent compiling hot routines under "codegen", also when the
    run traps; they are part of the run's own time.  The first run of an
    IR that compiles a routine emits it, in hundreds of microseconds;
    every later run only binds the code the IR keeps, in microseconds."""
    vm = VM(ir, cow=cow, debug=debug)
    try:
        text = vm.run()
    finally:
        if timings is not None:
            timings["codegen"] = vm.codegen_s
    assert vm.stats.allocs == vm.stats.frees, (
        f"leak: allocs {vm.stats.allocs} != frees {vm.stats.frees}"
    )
    assert vm.stats.retains == vm.stats.releases, (
        f"imbalance: retains {vm.stats.retains} != releases {vm.stats.releases}"
    )
    return text, vm.stats
