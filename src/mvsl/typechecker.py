"""Type checker.

Enforces, over parsed programs:
  (a) assignment targets are mutable along the entire path: a path
      rooted at a `let` binding or traversing a `let` field is
      immutable (indexing preserves the mutability of the array's
      position);
  (b) assignment and initializer types match exactly (no subtyping);
  (c) struct initializers are positional, one argument per field;
  (d) inout arguments are mutable paths and passing flags match the
      callee's function type;
  (e) free identifiers of function literals resolve in the declaration
      environment and are recorded as captures (captured copies are
      mutable regardless of the source binding's qualifier);
  (f) the wildcard `_` appears only as a binding or assignment target.

Checking annotates the AST in place: every expression gets a `ty`,
bindings get unique ids, paths learn their root binding, function
literals their capture lists, and calls the indexes of their places (a
path callee, then the inout arguments) whose overlap must be checked at
runtime.  Expressions are checked through one table keyed by exact node
type (_CHECK), and the function types of one program are interned: equal
ones are one object.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ast import (
    BINARY_PREC,
    PREC_CMP,
    ArrayLit,
    ArrayTE,
    Assign,
    Binary,
    Binding,
    Call,
    Capture,
    Chain,
    Cond,
    FieldAcc,
    FloatLit,
    FuncLit,
    FuncTE,
    InoutArg,
    IntLit,
    NamedTE,
    Path,
    Program,
    StructDecl,
    StructInit,
    TypeExpr,
    pretty_expr,
)
from .diagnostics import Span, TypeCheckError
from .types import BY_VALUE, FLOAT, INT, INOUT, ArrayType, FuncType, StructType, Type

# Diagnostic codes.
UNBOUND_NAME = "UnboundName"
TYPE_MISMATCH = "TypeMismatch"
IMMUTABLE_TARGET = "ImmutableTarget"
ARITY_MISMATCH = "ArityMismatch"
INVALID_INOUT_ARGUMENT = "InvalidInoutArgument"
OVERLAPPING_INOUT = "OverlappingInout"
RECURSIVE_STRUCT = "RecursiveStruct"
WILDCARD_READ = "WildcardRead"

# paths_overlap verdicts.
DISJOINT = "Disjoint"
OVERLAP = "Overlap"
MAYBE_OVERLAP = "MaybeOverlap"


def _err(span: Span, code: str, message: str) -> TypeCheckError:
    return TypeCheckError(span, code, message)


# ---------------------------------------------------------------------------
# Struct table


@dataclass
class StructInfo:
    decl: StructDecl
    # Parallel lists in declaration order.
    field_names: list[str]
    field_quals: list[str]
    field_types: list[Type]

    def index_of(self, name: str) -> int | None:
        try:
            return self.field_names.index(name)
        except ValueError:
            return None


# Function types by (params, ret); see intern_func_type.
FuncTypes = dict[tuple, FuncType]


def intern_func_type(func_types: FuncTypes, params: tuple, ret: Type) -> FuncType:
    """The one function type of params and ret in func_types, made on
    first use.  The key is the pair itself, not a FuncType: its function
    types are already interned, so a lookup compares them by identity,
    never through FuncType.__eq__'s walk of nested types."""
    key = (params, ret)
    ft = func_types.get(key)
    if ft is None:
        ft = func_types[key] = FuncType(params, ret)
    return ft


def resolve_type(te: TypeExpr, struct_names: set[str], func_types: FuncTypes) -> Type:
    """Resolve a surface type expression to a semantic type.  A function
    type is interned in func_types, so that equal ones are one object."""
    if type(te) is NamedTE:
        if te.name == "Int":
            return INT
        if te.name == "Float":
            return FLOAT
        if te.name in struct_names:
            return StructType(te.name)
        raise _err(te.span, UNBOUND_NAME, f"unknown type '{te.name}'")
    if type(te) is ArrayTE:
        return ArrayType(resolve_type(te.element, struct_names, func_types))
    if type(te) is FuncTE:
        params = tuple(
            (INOUT if passing == "inout" else BY_VALUE, resolve_type(pt, struct_names, func_types))
            for passing, pt in te.params
        )
        return intern_func_type(func_types, params, resolve_type(te.ret, struct_names, func_types))
    raise AssertionError(f"unknown type expression {te!r}")


def build_struct_table(structs: list[StructDecl], func_types: FuncTypes) -> dict[str, StructInfo]:
    """Resolve all field types, interning function types in func_types,
    and reject recursive struct cycles.

    Function-typed fields are exempt from the cycle check: a function
    value never stores another value inline, so recursion through a
    function type keeps representations finite.
    """
    names = {s.name for s in structs}
    table: dict[str, StructInfo] = {}
    deps: dict[str, list[str]] = {}
    for s in structs:
        info = StructInfo(s, [], [], [])
        edge: list[str] = []
        for f in s.fields:
            ty = resolve_type(f.type_expr, names, func_types)
            info.field_names.append(f.name)
            info.field_quals.append(f.qualifier)
            info.field_types.append(ty)
            _collect_inline_structs(ty, edge)
        table[s.name] = info
        deps[s.name] = edge

    # Depth-first cycle detection over the inline-containment graph, with
    # an explicit stack: a chain of structs may be any length.
    state: dict[str, int] = {n: 0 for n in table}  # 0 new, 1 on the path, 2 done
    for s in structs:
        if state[s.name] != 0:
            continue
        state[s.name] = 1
        path = [s.name]  # the structs being visited, outermost first
        pending = [iter(deps[s.name])]  # the unvisited deps of each
        while path:
            dep = next(pending[-1], None)
            if dep is None:
                state[path.pop()] = 2
                pending.pop()
            elif state[dep] == 1:
                cycle = path[path.index(dep) :]
                raise _err(
                    table[dep].decl.span,
                    RECURSIVE_STRUCT,
                    f"recursive struct cycle: {', '.join(cycle)}",
                )
            elif state[dep] == 0:
                state[dep] = 1
                path.append(dep)
                pending.append(iter(deps[dep]))
    return table


def _collect_inline_structs(ty: Type, out: list[str]) -> None:
    # Structs stored inline: direct struct fields and array elements.
    if isinstance(ty, StructType):
        out.append(ty.name)
    elif isinstance(ty, ArrayType):
        _collect_inline_structs(ty.element, out)
    # FuncType: heap environment, never inline; Int/Float: leaves.


# ---------------------------------------------------------------------------
# Access path shapes and the static overlap relation


@dataclass(frozen=True)
class AccessPathShape:
    """A path abstracted for the overlap check.

    steps classify each accessor: ("field", name), ("lit", value) for a
    compile-time integer literal subscript, or ("dyn", text) for any
    other subscript.  text is the subscript's canonical form, never used
    for overlap decisions: it only makes two shapes of one call equal
    exactly when their paths are character-identical.
    """

    root: int  # binding id: identity, not spelling
    steps: tuple[tuple[str, object], ...]


def shape_of_path(p: Path) -> AccessPathShape:
    assert p.root_binding_id is not None, "path must be type-checked first"
    steps: list[tuple[str, object]] = []
    for acc in p.accessors:
        if type(acc) is FieldAcc:
            steps.append(("field", acc.name))
        elif type(acc.index) is IntLit:
            steps.append(("lit", acc.index.value))
        else:
            steps.append(("dyn", pretty_expr(acc.index)))
    return AccessPathShape(p.root_binding_id, tuple(steps))


def paths_overlap(p1: AccessPathShape, p2: AccessPathShape) -> str:
    """Decide the static relation of two access paths.

    Overlap iff one shape is a prefix of the other with all common
    steps provably equal; Disjoint iff some common-position step is
    provably different; MaybeOverlap when a common step involves a
    dynamic index.
    """
    if p1.root != p2.root:
        return DISJOINT
    maybe = False
    for (k1, v1), (k2, v2) in zip(p1.steps, p2.steps):
        if k1 == k2 != "dyn":
            if v1 != v2:
                return DISJOINT
        else:
            # At least one dynamic subscript: undecidable here.
            maybe = True
    return MAYBE_OVERLAP if maybe else OVERLAP


# ---------------------------------------------------------------------------
# Typing context


@dataclass
class BindingInfo:
    name: str
    ty: Type
    mutable: bool
    binding_id: int


class TypingContext:
    """Scoped name environment for one function body.

    Lookups that miss every local scope fall back to the enclosing
    context; a hit there is recorded as a capture of this function.
    """

    def __init__(self, parent: TypingContext | None):
        self.parent = parent
        self.scopes: list[dict[str, BindingInfo]] = [{}]
        self.captures: dict[str, BindingInfo] = {}

    def push(self) -> None:
        self.scopes.append({})

    def pop(self) -> None:
        self.scopes.pop()

    def bind(self, info: BindingInfo) -> None:
        self.scopes[-1][info.name] = info

    def lookup(self, name: str) -> BindingInfo | None:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        if name in self.captures:
            return self.captures[name]
        if self.parent is None:
            return None
        outer = self.parent.lookup(name)
        if outer is None:
            return None
        # Captured copies are mutable regardless of the source qualifier.
        cap = BindingInfo(name, outer.ty, True, outer.binding_id)
        self.captures[name] = cap
        return cap


# ---------------------------------------------------------------------------
# The checker


@dataclass
class TypedProgram:
    program: Program
    structs: dict[str, StructInfo]
    entry_type: Type


class _Checker:
    def __init__(self, structs: dict[str, StructInfo], func_types: FuncTypes):
        self.structs = structs
        self.struct_names = set(structs)
        # Every function type made so far (see intern_func_type): an equal
        # type is never made again, so that move-opt finds each call's type
        # in its tables by identity.
        self.func_types = func_types
        self.next_binding_id = 0

    def fresh_id(self) -> int:
        self.next_binding_id += 1
        return self.next_binding_id - 1

    # -- expressions --------------------------------------------------------
    #
    # An expression is checked by _CHECK[type(e)](self, e, ctx): one
    # handler per kind of expression, keyed by exact type, since no AST
    # class has subclasses.  Each handler records the type it returns as
    # e.ty, and calls the table itself, not a dispatching method, so a
    # node costs one Python frame and deep programs recurse no deeper
    # than under a ladder of isinstance tests.  Types compare by identity
    # first: Int, Float and each function type are one object per
    # program, so most comparisons call no dataclass __eq__.

    def check_array(self, e: ArrayLit, ctx: TypingContext) -> Type:
        head = e.elements[0]
        first = _CHECK[type(head)](self, head, ctx)
        for elem in e.elements[1:]:
            t = _CHECK[type(elem)](self, elem, ctx)
            if t is not first and t != first:
                raise _err(
                    elem.span,
                    TYPE_MISMATCH,
                    f"array element has type {t}, expected {first}",
                )
        e.ty = ty = ArrayType(first)
        return ty

    def check_struct(self, e: StructInit, ctx: TypingContext) -> Type:
        info = self.structs.get(e.name)
        assert info is not None, "parser only classifies known struct names"
        if len(e.args) != len(info.field_types):
            raise _err(
                e.span,
                ARITY_MISMATCH,
                f"struct {e.name} has {len(info.field_types)} fields, "
                f"found {len(e.args)} arguments",
            )
        for arg, fname, fty in zip(e.args, info.field_names, info.field_types):
            t = _CHECK[type(arg)](self, arg, ctx)
            if t is not fty and t != fty:
                raise _err(
                    arg.span,
                    TYPE_MISMATCH,
                    f"field {fname} of {e.name} has type {fty}, found {t}",
                )
        e.ty = ty = StructType(e.name)
        return ty

    def check_path(self, e: Path, ctx: TypingContext) -> Type:
        e.ty = ty = self.resolve_path(e, ctx)[0]
        return ty

    def check_cond(self, e: Cond, ctx: TypingContext) -> Type:
        ct = _CHECK[type(e.cond)](self, e.cond, ctx)
        if ct is not INT and ct != INT:
            raise _err(e.cond.span, TYPE_MISMATCH, f"condition must be Int, found {ct}")
        tt = _CHECK[type(e.then)](self, e.then, ctx)
        et = _CHECK[type(e.orelse)](self, e.orelse, ctx)
        if tt is not et and tt != et:
            raise _err(
                e.orelse.span,
                TYPE_MISMATCH,
                f"branches differ: then has type {tt}, else has type {et}",
            )
        e.ty = tt
        return tt

    def check_chain(self, e: Chain, ctx: TypingContext) -> Type:
        # One scope: a later binding of a name replaces the earlier.
        ctx.push()
        for s in e.stmts:
            if type(s) is Binding:
                self.check_binding(s, ctx)
            else:
                self.check_assign(s, ctx)
        e.ty = tail_ty = _CHECK[type(e.tail)](self, e.tail, ctx)
        ctx.pop()
        return tail_ty

    def check_binding(self, e: Binding, ctx: TypingContext) -> None:
        init_ty = _CHECK[type(e.init)](self, e.init, ctx)
        if e.annotation is not None:
            want = resolve_type(e.annotation, self.struct_names, self.func_types)
            if init_ty is not want and init_ty != want:
                raise _err(
                    e.init.span,
                    TYPE_MISMATCH,
                    f"initializer has type {init_ty}, annotation says {want}",
                )
        e.binding_id = self.fresh_id()
        if e.name != "_":
            ctx.bind(BindingInfo(e.name, init_ty, e.qualifier == "var", e.binding_id))

    def check_assign(self, e: Assign, ctx: TypingContext) -> None:
        if e.target.root == "_" and not e.target.accessors:
            # Wildcard discard: value may have any type.
            _CHECK[type(e.value)](self, e.value, ctx)
        else:
            target_ty, mutable = self.resolve_path(e.target, ctx)
            if not mutable:
                raise _err(
                    e.target.span,
                    IMMUTABLE_TARGET,
                    f"cannot assign through immutable path '{pretty_expr(e.target)}'",
                )
            value_ty = _CHECK[type(e.value)](self, e.value, ctx)
            if value_ty is not target_ty and value_ty != target_ty:
                raise _err(
                    e.value.span,
                    TYPE_MISMATCH,
                    f"cannot assign {value_ty} to path of type {target_ty}",
                )

    def check_binary(self, e: Binary, ctx: TypingContext) -> Type:
        lt = _CHECK[type(e.lhs)](self, e.lhs, ctx)
        rt = _CHECK[type(e.rhs)](self, e.rhs, ctx)
        if lt is not rt and lt != rt:
            raise _err(
                e.rhs.span, TYPE_MISMATCH, f"operands differ: {lt} {e.op} {rt}"
            )
        if lt not in (INT, FLOAT):
            raise _err(
                e.span, TYPE_MISMATCH, f"operator '{e.op}' requires numeric operands, found {lt}"
            )
        if e.op == "%" and lt != INT:
            raise _err(e.span, TYPE_MISMATCH, "operator '%' requires Int operands")
        e.ty = ty = INT if BINARY_PREC[e.op] == PREC_CMP else lt
        return ty

    def check_funclit(self, e: FuncLit, ctx: TypingContext) -> Type:
        inner = TypingContext(ctx)
        param_ids: list[int] = []
        sig: list[tuple[str, Type]] = []
        for p in e.params:
            ty = resolve_type(p.type_expr, self.struct_names, self.func_types)
            passing = INOUT if p.passing == "inout" else BY_VALUE
            sig.append((passing, ty))
            pid = self.fresh_id()
            param_ids.append(pid)
            # By-value parameters are immutable; mutate a local copy instead.
            inner.bind(BindingInfo(p.name, ty, passing == INOUT, pid))
        ret = resolve_type(e.ret, self.struct_names, self.func_types)
        body_ty = _CHECK[type(e.body)](self, e.body, inner)
        if body_ty is not ret and body_ty != ret:
            raise _err(
                e.body.span,
                TYPE_MISMATCH,
                f"body has type {body_ty}, declared return type is {ret}",
            )
        e.param_ids = param_ids
        caps = sorted(inner.captures.values(), key=lambda b: b.binding_id)
        e.captures = [Capture(c.name, c.binding_id, c.ty) for c in caps]
        e.ty = ty = intern_func_type(self.func_types, tuple(sig), ret)
        return ty

    def check_call(self, e: Call, ctx: TypingContext) -> Type:
        callee_ty = _CHECK[type(e.callee)](self, e.callee, ctx)
        if type(callee_ty) is not FuncType:
            raise _err(
                e.callee.span, TYPE_MISMATCH, f"cannot call a value of type {callee_ty}"
            )
        if len(e.args) != len(callee_ty.params):
            raise _err(
                e.span,
                ARITY_MISMATCH,
                f"function takes {len(callee_ty.params)} arguments, found {len(e.args)}",
            )
        # The call's places: a path callee, then the inout arguments.
        places: list[Path] = [e.callee] if type(e.callee) is Path else []
        n_callee = len(places)
        for i, (arg, (passing, pty)) in enumerate(zip(e.args, callee_ty.params)):
            if passing == INOUT:
                if type(arg) is not InoutArg:
                    raise _err(
                        arg.span,
                        INVALID_INOUT_ARGUMENT,
                        f"argument {i + 1} must be passed inout with '&'",
                    )
                ty, mutable = self.resolve_path(arg.path, ctx)
                if not mutable:
                    raise _err(
                        arg.span,
                        IMMUTABLE_TARGET,
                        f"inout argument '{pretty_expr(arg.path)}' is an immutable path",
                    )
                if ty is not pty and ty != pty:
                    raise _err(
                        arg.span,
                        TYPE_MISMATCH,
                        f"inout argument has type {ty}, parameter expects {pty}",
                    )
                places.append(arg.path)
            else:
                if type(arg) is InoutArg:
                    raise _err(
                        arg.span,
                        INVALID_INOUT_ARGUMENT,
                        f"argument {i + 1} is passed by value; '&' is not allowed",
                    )
                ty = _CHECK[type(arg)](self, arg, ctx)
                if ty is not pty and ty != pty:
                    raise _err(
                        arg.span,
                        TYPE_MISMATCH,
                        f"argument has type {ty}, parameter expects {pty}",
                    )
        e.checked_places = self.check_exclusivity(e, places, n_callee)
        e.ty = ty = callee_ty.ret
        return ty

    def check_exclusivity(self, call: Call, places: list[Path], n_callee: int) -> list[int]:
        """Reject a call whose places clash statically, the first n_callee
        of them its borrowed callee; return the sorted indexes of the
        places to check at runtime.

        Two places clash when they are spelled identically, even with
        dynamic subscripts, or when one is a prefix of the other made
        only of fields and literal subscripts.  Filed in a trie of their
        steps, the arguments give their first clash in (i, j) order in
        time linear in their length; it is reported before a clash with
        the callee.  Every place of a root with two or more, one of them
        dynamically subscripted, is checked at runtime, and that check is
        exact.  A callee of field steps only is not: it is read in place,
        and two paths from one root have the same type at each common
        step, so it is statically disjoint from every other place.
        """
        if len(places) < 2:
            return []  # nothing to clash with or to check
        shapes = [shape_of_path(p) for p in places]
        trie: dict[object, int] = {}  # a root, or (node, step) -> node
        ends: dict[int, int] = {}  # node -> first argument ending there
        through: dict[int, int] = {}  # node -> first argument passing through
        clashes: list[tuple[int, int]] = []  # (first earlier argument, argument)
        for j in range(n_callee, len(places)):
            node = trie.setdefault(shapes[j].root, len(trie))
            static, earlier = True, []
            for step in shapes[j].steps:
                if static and node in ends:
                    earlier.append(ends[node])  # a prefix of fields and literals
                through.setdefault(node, j)
                node = trie.setdefault((node, step), len(trie))
                static = static and step[0] != "dyn"
            if node in ends:
                earlier.append(ends[node])  # spelled identically
            if static and node in through:
                earlier.append(through[node])  # a prefix of it
            ends.setdefault(node, j)
            if earlier:
                clashes.append((min(earlier), j))
        if clashes:
            i, j = min(clashes)
            raise _err(
                call.span,
                OVERLAPPING_INOUT,
                f"inout arguments '{pretty_expr(places[i])}' and "
                f"'{pretty_expr(places[j])}' overlap",
            )
        # No argument has the type of the callee, so none is spelled alike.
        for j in range(n_callee, len(places)):
            if n_callee and paths_overlap(shapes[0], shapes[j]) == OVERLAP:
                raise _err(
                    call.span,
                    OVERLAPPING_INOUT,
                    f"inout argument '{pretty_expr(places[j])}' overlaps "
                    f"the call target '{pretty_expr(places[0])}'",
                )
        dynamic = {s.root for s in shapes if any(kind == "dyn" for kind, _ in s.steps)}
        if not dynamic:
            return []
        groups: dict[int, list[int]] = {}  # root -> places, but a callee read in place
        for i, shape in enumerate(shapes):
            if i >= n_callee or any(kind != "field" for kind, _ in shape.steps):
                groups.setdefault(shape.root, []).append(i)
        return sorted(i for root in dynamic if len(groups[root]) > 1 for i in groups[root])

    # -- paths ---------------------------------------------------------------

    def resolve_path(self, p: Path, ctx: TypingContext) -> tuple[Type, bool]:
        """Type a path and report whether it is mutable end to end.

        Annotates the root binding id on the node.  Wildcard
        roots are rejected here; bare wildcard targets never reach this
        point.
        """
        if p.root == "_":
            raise _err(p.span, WILDCARD_READ, "wildcard '_' cannot be read")
        info = ctx.lookup(p.root)
        if info is None:
            raise _err(p.span, UNBOUND_NAME, f"unbound name '{p.root}'")
        p.root_binding_id = info.binding_id
        ty: Type = info.ty
        mutable = info.mutable
        for acc in p.accessors:
            if type(acc) is FieldAcc:
                if type(ty) is not StructType:
                    raise _err(
                        acc.span, TYPE_MISMATCH, f"type {ty} has no fields"
                    )
                sinfo = self.structs[ty.name]
                idx = sinfo.index_of(acc.name)
                if idx is None:
                    raise _err(
                        acc.span,
                        UNBOUND_NAME,
                        f"struct {ty.name} has no field '{acc.name}'",
                    )
                acc.offset = idx
                mutable = mutable and sinfo.field_quals[idx] == "var"
                ty = sinfo.field_types[idx]
            else:
                if type(ty) is not ArrayType:
                    raise _err(acc.span, TYPE_MISMATCH, f"cannot index type {ty}")
                idx_ty = _CHECK[type(acc.index)](self, acc.index, ctx)
                if idx_ty is not INT and idx_ty != INT:
                    raise _err(
                        acc.index.span,
                        TYPE_MISMATCH,
                        f"subscript must be Int, found {idx_ty}",
                    )
                # Indexing preserves the mutability of the array position.
                ty = ty.element
        return ty, mutable


_CHECK = {
    # setattr returns None, so a literal's handler returns its type.
    IntLit: lambda checker, e, ctx: setattr(e, "ty", INT) or INT,
    FloatLit: lambda checker, e, ctx: setattr(e, "ty", FLOAT) or FLOAT,
    Path: _Checker.check_path,
    Binary: _Checker.check_binary,
    Call: _Checker.check_call,
    Cond: _Checker.check_cond,
    Chain: _Checker.check_chain,
    ArrayLit: _Checker.check_array,
    StructInit: _Checker.check_struct,
    FuncLit: _Checker.check_funclit,
}


def check_program(program: Program) -> TypedProgram:
    """Type-check a parsed program; returns the annotated program."""
    func_types: FuncTypes = {}
    table = build_struct_table(program.structs, func_types)
    checker = _Checker(table, func_types)
    entry = program.entry
    entry_type = _CHECK[type(entry)](checker, entry, TypingContext(None))
    return TypedProgram(program, table, entry_type)
