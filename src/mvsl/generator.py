"""Deterministic well-typed program generator.

Produces programs the type checker accepts by construction, for
differential testing of the VM against the naive interpreter.  The
generator never produces IntegerOverflow or DivisionByZero: every
integer expression carries a conservative magnitude bound (divisors are
nonzero literals, products of literals only, reductions mod small
primes inside loops-in-spirit like counters), and the bound is kept far
below the 64-bit range.  Array subscripts are literals, or reads of
variables whose concrete value is statically known, so they are always
in bounds and the places of a call that need a runtime overlap check
are concretely disjoint.

Candidate places are tuples (variable, *steps), where each step is a
field name, a literal subscript or an Int variable read as a subscript;
only the place picked becomes a Path.

The same GenConfig always yields the same program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ast import (
    Accessor,
    ArrayLit,
    ArrayTE,
    Assign,
    Binary,
    Binding,
    Call,
    Chain,
    Cond,
    Expr,
    FieldAcc,
    FieldDecl,
    FloatLit,
    FuncLit,
    FuncTE,
    IndexAcc,
    InoutArg,
    IntLit,
    NamedTE,
    Param,
    Path,
    Program,
    StructDecl,
    StructInit,
    TypeExpr,
)
from .types import (
    INT,
    FLOAT,
    BY_VALUE,
    INOUT,
    ArrayType,
    FuncType,
    IntType,
    FloatType,
    StructType,
    Type,
)

_BOUND_CAP = 1 << 30
MAX_DEPTH = 4
STRUCT_COUNT = 2


def _int_lit(k: int) -> Expr:
    """There is no unary minus; negative constants are written 0 - k."""
    return IntLit(k) if k >= 0 else Binary("-", IntLit(0), IntLit(-k))


@dataclass(frozen=True)
class GenConfig:
    seed: int
    size_budget: int = 50


@dataclass
class _Var:
    name: str
    ty: Type
    mutable: bool
    bound: int = 8  # max |int| reachable anywhere inside the value
    length: int = 0  # array length
    inner_length: int = 0  # row length of an array of arrays
    known_value: int | None = None  # concrete value of an Int variable
    ret_bound: int = 0  # |result| bound when this is a closure


@dataclass
class _Struct:
    fields: list[tuple[str, Type]]
    ints: list[str]  # names of the Int fields


def _path(v: _Var, *steps: str | int | _Var) -> Path:
    """The place reached from v by steps (see the module docstring)."""
    accessors: list[Accessor] = []
    for s in steps:
        if isinstance(s, str):
            accessors.append(FieldAcc(s))
        else:
            accessors.append(IndexAcc(IntLit(s) if isinstance(s, int) else _path(s)))
    return Path(v.name, accessors)


def _te(ty: Type) -> TypeExpr:
    if isinstance(ty, IntType):
        return NamedTE("Int")
    if isinstance(ty, FloatType):
        return NamedTE("Float")
    if isinstance(ty, StructType):
        return NamedTE(ty.name)
    if isinstance(ty, ArrayType):
        return ArrayTE(_te(ty.element))
    assert isinstance(ty, FuncType)
    return FuncTE([(p, _te(t)) for p, t in ty.params], _te(ty.ret))


class _Gen:
    def __init__(self, cfg: GenConfig):
        self.cfg = cfg
        self.rng = random.Random(cfg.seed)
        self.budget = cfg.size_budget
        self.structs: dict[StructType, _Struct] = {}
        # Every variable in declaration order, and three indexes over it.
        self.vars: list[_Var] = []
        self.by_type: dict[Type, list[_Var]] = {}
        self.closures: list[_Var] = []  # Int closures taking only by-value Ints
        self.int_holders: list[_Var] = []  # structs with Int fields, [Int]s
        self.names = 0
        self.helpers: dict[str, _Var] = {}

    # -- plumbing ----------------------------------------------------------

    def fresh(self, prefix: str) -> str:
        self.names += 1
        return f"{prefix}{self.names}"

    def spend(self, n: int) -> None:
        self.budget -= n

    def pick(self, seq):
        return self.rng.choice(seq)

    def declare(self, v: _Var) -> None:
        """File v under its type, and as an Int closure taking by-value
        Ints or as a holder of readable Int places."""
        ty = v.ty
        self.vars.append(v)
        self.by_type.setdefault(ty, []).append(v)
        if isinstance(ty, FuncType):
            if ty.ret == INT and all(p == (BY_VALUE, INT) for p in ty.params):
                self.closures.append(v)
        elif ty == ArrayType(INT) or isinstance(ty, StructType) and self.structs[ty].ints:
            self.int_holders.append(v)

    def of_type(self, ty: Type) -> list[_Var]:
        return self.by_type.get(ty, [])

    def ints_of(self, pred) -> list[_Var]:
        return [v for v in self.of_type(INT) if pred(v)]

    # -- integer expressions -------------------------------------------------

    def gen_int(self, depth: int) -> tuple[Expr, int]:
        """An Int expression and a bound on its absolute value."""
        leafy = depth <= 0 or self.budget <= 0 or self.rng.random() < 0.3
        if leafy:
            return self.int_leaf()
        kind = self.pick(["bin", "bin", "cmp", "cond", "read"])
        if kind == "read":
            return self.int_leaf()
        if kind == "cmp":
            l, _ = self.gen_int(depth - 1)
            r, _ = self.gen_int(depth - 1)
            self.spend(1)
            return Binary(self.pick(["==", "!=", "<", "<=", ">", ">="]), l, r), 1
        if kind == "cond":
            c, _ = self.gen_int(depth - 1)
            t, bt = self.gen_int(depth - 1)
            f, bf = self.gen_int(depth - 1)
            self.spend(2)
            return Cond(c, t, f), max(bt, bf)
        op = self.pick(["+", "+", "-", "*", "/", "%"])
        if op == "*":
            # Products stay literal-by-literal so bounds stay tiny.
            a, b = self.rng.randint(-8, 8), self.rng.randint(-8, 8)
            self.spend(3)
            return Binary("*", _int_lit(a), _int_lit(b)), 64
        if op in ("/", "%"):
            l, bl = self.gen_int(depth - 1)
            d = self.pick([2, 3, 5, 7, -3])
            self.spend(2)
            bound = abs(d) if op == "%" else bl
            return Binary(op, l, _int_lit(d)), bound
        l, bl = self.gen_int(depth - 1)
        r, br = self.gen_int(depth - 1)
        if bl + br > _BOUND_CAP:
            return self.int_leaf()
        self.spend(1)
        return Binary(op, l, r), bl + br

    def int_leaf(self) -> tuple[Expr, int]:
        self.spend(1)
        sources: list[str] = ["lit", "lit"]
        ints = self.of_type(INT)
        if ints:
            sources.append("var")
        paths = self.int_paths()
        if paths:
            sources.append("path")
        if self.closures and self.budget > 2:
            sources.append("call")
        kind = self.pick(sources)
        if kind == "lit":
            k = self.rng.randint(-8, 8)
            return _int_lit(k), 8
        if kind == "var":
            v = self.pick(ints)
            return _path(v), v.bound
        if kind == "path":
            place = self.pick(paths)
            return _path(*place), place[0].bound
        v = self.pick(self.closures)
        assert isinstance(v.ty, FuncType)
        args = [self.gen_int(0)[0] for _ in v.ty.params]
        self.spend(2)
        return Call(_path(v), args), v.ret_bound

    def int_paths(self) -> list[tuple]:
        """Readable Int places through structs and arrays: every Int
        field, and one literal subscript drawn per [Int] variable."""
        out: list[tuple] = []
        for v in self.int_holders:
            if isinstance(v.ty, StructType):
                out += [(v, f) for f in self.structs[v.ty].ints]
            else:
                out.append((v, self.rng.randrange(v.length)))
        return out

    # -- float expressions -----------------------------------------------------

    def gen_float(self, depth: int) -> Expr:
        self.spend(1)
        if depth <= 0 or self.budget <= 0 or self.rng.random() < 0.4:
            floats = self.of_type(FLOAT)
            if floats and self.rng.random() < 0.5:
                return _path(self.pick(floats))
            k = self.rng.randint(0, 32)
            lit = FloatLit(k / 4.0)
            return lit if self.rng.random() < 0.8 else Binary("-", FloatLit(0.0), lit)
        op = self.pick(["+", "-", "*", "/"])
        lhs = self.gen_float(depth - 1)
        if op == "/":
            return Binary("/", lhs, FloatLit(float(self.pick([2, 4, 8, 16]))))
        return Binary(op, lhs, self.gen_float(depth - 1))

    # -- values of arbitrary type ------------------------------------------------

    def gen_value(self, ty: Type, depth: int) -> tuple[Expr, _Var]:
        """An expression of type ty plus a template _Var describing its
        tracked properties (bound, lengths, known value)."""
        meta = _Var("", ty, True)
        if ty == INT:
            e, meta.bound = self.gen_int(depth)
            if isinstance(e, IntLit):
                meta.known_value = e.value
            return e, meta
        if ty == FLOAT:
            return self.gen_float(depth), meta
        if isinstance(ty, ArrayType):
            same = self.of_type(ty)
            if same and self.rng.random() < 0.4:
                src = self.pick(same)
                self.spend(1)
                meta.bound = src.bound
                meta.length = src.length
                meta.inner_length = src.inner_length
                return _path(src), meta
            n = self.rng.randint(1, 3)
            inner = 0
            elems = []
            bound = 0
            for _ in range(n):
                if isinstance(ty.element, ArrayType):
                    # Rows of one nested literal share a length.
                    if not inner:
                        inner = self.rng.randint(1, 3)
                    row = []
                    for _ in range(inner):
                        e, m = self.gen_value(ty.element.element, depth - 1)
                        row.append(e)
                        bound = max(bound, m.bound)
                    elems.append(ArrayLit(row))
                else:
                    e, m = self.gen_value(ty.element, depth - 1)
                    elems.append(e)
                    bound = max(bound, m.bound)
            meta.bound = bound
            meta.length = n
            meta.inner_length = inner
            return ArrayLit(elems), meta
        if isinstance(ty, StructType):
            same = self.of_type(ty)
            if same and self.rng.random() < 0.4:
                src = self.pick(same)
                self.spend(1)
                meta.bound = src.bound
                return _path(src), meta
            args = []
            bound = 0
            for _, fty in self.structs[ty].fields:
                e, m = self.gen_value(fty, depth - 1)
                args.append(e)
                bound = max(bound, m.bound)
            self.spend(1)
            meta.bound = bound
            return StructInit(ty.name, args), meta
        raise AssertionError(f"no generator for {ty}")

    # -- statements -----------------------------------------------------------

    def stmt_bind(self) -> list[Binding | Assign]:
        menu: list[Type] = [INT, INT, FLOAT, ArrayType(INT)]
        if self.budget > 10:
            menu += [ArrayType(FLOAT), ArrayType(ArrayType(INT))]
        menu += self.structs
        ty = self.pick(menu)
        e, v = self.gen_value(ty, MAX_DEPTH - 1)
        v.name, v.mutable = self.fresh("v"), self.rng.random() < 0.7
        self.declare(v)
        self.spend(2)
        return [Binding("var" if v.mutable else "let", v.name, _te(ty), e)]

    def stmt_assign(self) -> list[Binding | Assign]:
        targets: list[tuple[tuple, Type]] = []
        for v in self.vars:
            if not v.mutable:
                continue
            if v.ty in (INT, FLOAT):
                targets.append(((v,), v.ty))
            elif isinstance(v.ty, StructType):
                f, fty = self.pick(self.structs[v.ty].fields)
                targets.append(((v, f), fty))
            elif v.ty == ArrayType(INT):
                targets.append(((v, self.index_expr(v.length)), INT))
            elif v.ty == ArrayType(ArrayType(INT)):
                steps = (self.index_expr(v.length), self.index_expr(v.inner_length))
                targets.append(((v, *steps), INT))
        if not targets:
            return self.stmt_bind()
        place, ty = self.pick(targets)
        v = place[0]
        e, meta = self.gen_value(ty, MAX_DEPTH - 2)
        v.bound = max(v.bound, meta.bound)
        if len(place) == 1 and v.ty == INT:
            v.known_value = meta.known_value
        self.spend(2)
        return [Assign(_path(*place), e)]

    def index_expr(self, length: int) -> int | _Var:
        """An in-bounds subscript: a literal, or an Int variable whose
        concrete value is known."""
        known = self.ints_of(lambda v: v.known_value is not None and 0 <= v.known_value < length)
        if known and self.rng.random() < 0.4:
            return self.pick(known)
        return self.rng.randrange(length)

    def let_fn(
        self, prefix: str, ty: FuncType, fn: FuncLit, ret_bound: int, cost: int
    ) -> tuple[_Var, Binding]:
        """Declare an immutable closure variable bound to fn."""
        v = _Var(self.fresh(prefix), ty, False, ret_bound=ret_bound)
        self.declare(v)
        self.spend(cost)
        return v, Binding("let", v.name, _te(ty), fn)

    def stmt_closure(self) -> list[Binding | Assign]:
        kind = self.pick(["counter", "pure", "reader"])
        if kind == "counter":
            state = self.ints_of(lambda v: v.mutable)
            if not state:
                return self.stmt_bind()
            sv = self.pick(state)
            step = Binary("+", Binary("%", _path(sv), IntLit(97)), IntLit(1))
            body = Chain([Assign(_path(sv), step)], _path(sv))
            fn = FuncLit([], NamedTE("Int"), body)
            return [self.let_fn("tick", FuncType((), INT), fn, 98, 6)[1]]
        if kind == "pure":
            k = self.rng.randint(1, 8)
            body = Binary("+", Binary("%", Path("p", []), IntLit(50)), IntLit(k))
            fn = FuncLit([Param("p", BY_VALUE, NamedTE("Int"))], NamedTE("Int"), body)
            return [self.let_fn("fn", FuncType(((BY_VALUE, INT),), INT), fn, 58, 5)[1]]
        arrays = self.of_type(ArrayType(INT))
        if not arrays:
            return self.stmt_bind()
        av = self.pick(arrays)
        body = _path(av, self.rng.randrange(av.length))
        fn = FuncLit([], NamedTE("Int"), body)
        return [self.let_fn("peek", FuncType((), INT), fn, av.bound, 4)[1]]

    def stmt_call(self) -> list[Binding | Assign]:
        if not self.closures:
            return self.stmt_closure()
        v = self.pick(self.closures)
        assert isinstance(v.ty, FuncType)
        args = [self.gen_int(1)[0] for _ in v.ty.params]
        call = Call(_path(v), args)
        self.spend(3)
        if self.rng.random() < 0.5:
            rv = _Var(self.fresh("r"), INT, False, bound=v.ret_bound)
            self.declare(rv)
            return [Binding("let", rv.name, _te(INT), call)]
        return [Assign(Path("_", []), call)]

    def helper(self, which: str) -> tuple[_Var, list[Binding | Assign]]:
        """Declare (once) and return an inout helper closure."""
        if which in self.helpers:
            return self.helpers[which], []
        if which == "swap":
            body = Chain(
                [
                    Binding("let", "t", NamedTE("Int"), Path("a", [])),
                    Assign(Path("a", []), Path("b", [])),
                    Assign(Path("b", []), Path("t", [])),
                ],
                IntLit(0),
            )
            fn = FuncLit(
                [Param("a", INOUT, NamedTE("Int")), Param("b", INOUT, NamedTE("Int"))],
                NamedTE("Int"),
                body,
            )
            ty = FuncType(((INOUT, INT), (INOUT, INT)), INT)
        elif which == "bump":
            k = IntLit(self.rng.randint(1, 8))
            step = Binary("+", Binary("%", Path("a", []), IntLit(89)), k)
            body = Chain([Assign(Path("a", []), step)], Path("a", []))
            fn = FuncLit([Param("a", INOUT, NamedTE("Int"))], NamedTE("Int"), body)
            ty = FuncType(((INOUT, INT),), INT)
        else:
            target, read, result = (Path("xs", [IndexAcc(IntLit(0))]) for _ in range(3))
            step = Binary("+", Binary("%", read, IntLit(83)), IntLit(1))
            body = Chain([Assign(target, step)], result)
            fn = FuncLit([Param("xs", INOUT, ArrayTE(NamedTE("Int")))], NamedTE("Int"), body)
            ty = FuncType(((INOUT, ArrayType(INT)),), INT)
        hv, decl = self.let_fn(which, ty, fn, 98, 7)
        self.helpers[which] = hv
        return hv, [decl]

    def stmt_inout(self) -> list[Binding | Assign]:
        which = self.pick(["swap", "bump", "bump", "abump"])
        if which == "swap":
            pairs = self.inout_pairs()
            if not pairs:
                return self.stmt_bind()
            hv, decl = self.helper("swap")
            places = self.pick(pairs)
            v1, v2 = places[0][0], places[1][0]
            v1.bound = v2.bound = max(v1.bound, v2.bound)
            v1.known_value = v2.known_value = None
        elif which == "bump":
            targets = self.int_places()
            if not targets:
                return self.stmt_bind()
            hv, decl = self.helper("bump")
            places = [self.pick(targets)]
            v = places[0][0]
            v.bound = max(v.bound, 97)
            v.known_value = None
        else:
            arrays = [v for v in self.of_type(ArrayType(INT)) if v.mutable]
            if not arrays:
                return self.stmt_bind()
            hv, decl = self.helper("abump")
            v = self.pick(arrays)
            v.bound = max(v.bound, 84)
            places = [(v,)]
        call = Call(_path(hv), [InoutArg(_path(*p)) for p in places])
        self.spend(4)
        if self.rng.random() < 0.6:
            return decl + [Assign(Path("_", []), call)]
        # Exercise the conditional path: the call happens on one branch only.
        c, _ = self.gen_int(1)
        return decl + [Assign(Path("_", []), Cond(c, call, IntLit(0)))]

    def int_places(self) -> list[tuple]:
        """Mutable Int-typed places usable as inout arguments."""
        out: list[tuple] = []
        for v in self.vars:
            if not v.mutable:
                continue
            if v.ty == INT:
                out.append((v,))
            elif isinstance(v.ty, StructType):
                out += [(v, f) for f in self.structs[v.ty].ints]
            elif v.ty == ArrayType(INT):
                out.append((v, self.index_expr(v.length)))
        return out

    def inout_pairs(self) -> list[tuple[tuple, tuple]]:
        """Pairs of provably-disjoint mutable Int places: sibling
        fields, distinct literal indexes, known-value reads against a
        different literal, and places in distinct variables."""
        pairs: list[tuple[tuple, tuple]] = []
        for v in self.vars:
            if not v.mutable:
                continue
            if isinstance(v.ty, StructType):
                ints = self.structs[v.ty].ints
                if len(ints) >= 2:
                    pairs.append(((v, ints[0]), (v, ints[1])))
            elif v.ty == ArrayType(INT) and v.length >= 2:
                i = self.rng.randrange(v.length - 1)
                pairs.append(((v, i), (v, i + 1)))
                known = self.ints_of(
                    lambda x: x.known_value is not None and 0 <= x.known_value < v.length
                )
                if known:
                    kv = self.pick(known)
                    other = (kv.known_value + 1) % v.length
                    if other != kv.known_value:
                        # Dynamic against literal: statically undecided,
                        # concretely disjoint, so the runtime check passes.
                        pairs.append(((v, kv), (v, other)))
        scalars = [(v,) for v in self.ints_of(lambda v: v.mutable)]
        return pairs + list(zip(scalars, scalars[1:]))

    # -- program assembly ------------------------------------------------------

    def declare_structs(self) -> None:
        for i in range(STRUCT_COUNT):
            fields = [
                (f"f{j}", INT if self.rng.random() < 0.75 else FLOAT)
                for j in range(self.rng.randint(2, 3))
            ]
            self.structs[StructType(f"S{i}")] = _Struct(fields, [f for f, t in fields if t == INT])
            self.spend(2)

    def final_expr(self) -> Expr:
        candidates = [v for v in self.vars if not isinstance(v.ty, FuncType)]
        if not candidates:
            e, _ = self.gen_int(1)
            return e
        mode = self.pick(["combine", "combine", "whole"])
        ints = self.of_type(INT)
        if mode == "combine" and len(ints) >= 2:
            a, b = self.pick(ints), self.pick(ints)
            return Binary("+", _path(a), _path(b))
        return _path(self.pick(candidates))

    def generate(self) -> Program:
        if self.cfg.size_budget <= 1:
            return Program([], IntLit(self.rng.randint(0, 9)))
        if self.cfg.size_budget >= 8:
            self.declare_structs()
        stmts: list[Binding | Assign] = []
        while self.budget > 3:
            kinds = [self.stmt_bind, self.stmt_bind, self.stmt_assign]
            kinds += [self.stmt_closure, self.stmt_call]
            if self.budget > 10:
                kinds += [self.stmt_inout, self.stmt_inout]
            stmts += self.pick(kinds)()
        entry = self.final_expr()
        decls = [
            StructDecl(t.name, [FieldDecl("var", f, _te(fty)) for f, fty in s.fields])
            for t, s in self.structs.items()
        ]
        return Program(decls, Chain(stmts, entry) if stmts else entry)


def generate_program(cfg: GenConfig) -> Program:
    """Generate a deterministic, always-well-typed program."""
    assert cfg.size_budget >= 1
    return _Gen(cfg).generate()
