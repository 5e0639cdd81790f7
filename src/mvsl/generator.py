"""Deterministic well-typed program generator.

Produces programs the type checker accepts by construction, for
differential testing of the VM against the naive interpreter.  The
generator never produces IntegerOverflow or DivisionByZero: every
integer expression carries a conservative magnitude bound (divisors are
nonzero literals, products of literals only, reductions mod small
primes inside loops-in-spirit like counters), and the bound is kept far
below the 64-bit range.  Array subscripts are literals, or reads of
variables whose concrete value is statically known, so they are always
in bounds and inout pairs that need a runtime overlap check are
concretely disjoint.

The same GenConfig always yields the same program.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .ast import (
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


def _int_lit(k: int) -> Expr:
    """There is no unary minus; negative constants are written 0 - k."""
    return IntLit(k) if k >= 0 else Binary("-", IntLit(0), IntLit(-k))


@dataclass(frozen=True)
class GenConfig:
    seed: int
    size_budget: int = 50
    max_depth: int = 4
    struct_count: int = 2
    enable_closures: bool = True
    enable_inout: bool = True


@dataclass
class _Var:
    name: str
    ty: Type
    mutable: bool
    bound: int = 8  # max |int| reachable anywhere inside the value
    length: int | None = None  # array length when statically tracked
    inner_length: int | None = None  # row length of an array of arrays
    known_value: int | None = None  # concrete value of an Int variable
    ret_bound: int = 0  # |result| bound when this is a closure


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
        self.vars: list[_Var] = []
        self.structs: list[StructDecl] = []
        self.struct_types: list[StructType] = []
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

    def ints_of(self, pred=None) -> list[_Var]:
        out = [v for v in self.vars if v.ty == INT]
        return [v for v in out if pred(v)] if pred else out

    def of_type(self, ty: Type) -> list[_Var]:
        return [v for v in self.vars if v.ty == ty]

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
        if self.ints_of():
            sources.append("var")
        paths = self.int_paths()
        if paths:
            sources.append("path")
        closures = [
            v
            for v in self.vars
            if isinstance(v.ty, FuncType)
            and v.ty.ret == INT
            and all(p == BY_VALUE for p, _ in v.ty.params)
        ]
        if closures and self.budget > 2:
            sources.append("call")
        kind = self.pick(sources)
        if kind == "lit":
            k = self.rng.randint(-8, 8)
            return _int_lit(k), 8
        if kind == "var":
            v = self.pick(self.ints_of())
            return Path(v.name, []), v.bound
        if kind == "path":
            p, bound = self.pick(paths)
            return p, bound
        v = self.pick(closures)
        assert isinstance(v.ty, FuncType)
        args = []
        for passing, pty in v.ty.params:
            assert passing == BY_VALUE and pty == INT
            a, _ = self.gen_int(0)
            args.append(a)
        self.spend(2)
        return Call(Path(v.name, []), args), v.ret_bound

    def int_paths(self) -> list[tuple[Path, int]]:
        """Readable Int-typed paths through structs and arrays."""
        out: list[tuple[Path, int]] = []
        for v in self.vars:
            if isinstance(v.ty, StructType):
                decl = self.structs[self.struct_types.index(v.ty)]
                for f in decl.fields:
                    if isinstance(f.type_expr, NamedTE) and f.type_expr.name == "Int":
                        out.append((Path(v.name, [FieldAcc(f.name)]), v.bound))
            elif v.ty == ArrayType(INT) and v.length:
                i = self.rng.randrange(v.length)
                out.append((Path(v.name, [IndexAcc(IntLit(i))]), v.bound))
        return out

    # -- float expressions -----------------------------------------------------

    def gen_float(self, depth: int) -> Expr:
        self.spend(1)
        if depth <= 0 or self.budget <= 0 or self.rng.random() < 0.4:
            floats = self.of_type(FLOAT)
            if floats and self.rng.random() < 0.5:
                return Path(self.pick(floats).name, [])
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
            same = [
                v
                for v in self.of_type(ty)
                if v.length is not None
            ]
            if same and self.rng.random() < 0.4:
                src = self.pick(same)
                self.spend(1)
                meta.bound = src.bound
                meta.length = src.length
                meta.inner_length = src.inner_length
                return Path(src.name, []), meta
            n = self.rng.randint(1, 3)
            inner: int | None = None
            elems = []
            bound = 0
            for _ in range(n):
                if isinstance(ty.element, ArrayType):
                    # Rows of one nested literal share a length.
                    if inner is None:
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
                return Path(src.name, []), meta
            decl = self.structs[self.struct_types.index(ty)]
            args = []
            bound = 0
            for f in decl.fields:
                fty = INT if (isinstance(f.type_expr, NamedTE) and f.type_expr.name == "Int") else FLOAT
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
        menu += self.struct_types
        ty = self.pick(menu)
        e, meta = self.gen_value(ty, self.cfg.max_depth - 1)
        v = _Var(
            self.fresh("v"),
            ty,
            self.rng.random() < 0.7,
            meta.bound,
            meta.length,
            meta.inner_length,
            meta.known_value,
        )
        self.vars.append(v)
        self.spend(2)
        return [Binding("var" if v.mutable else "let", v.name, _te(ty), e)]

    def stmt_assign(self) -> list[Binding | Assign]:
        targets: list[tuple[Path, Type, _Var]] = []
        for v in self.vars:
            if not v.mutable:
                continue
            if v.ty in (INT, FLOAT):
                targets.append((Path(v.name, []), v.ty, v))
            elif isinstance(v.ty, StructType):
                decl = self.structs[self.struct_types.index(v.ty)]
                f = self.pick(decl.fields)
                fty = INT if (isinstance(f.type_expr, NamedTE) and f.type_expr.name == "Int") else FLOAT
                targets.append((Path(v.name, [FieldAcc(f.name)]), fty, v))
            elif v.ty == ArrayType(INT) and v.length:
                targets.append(
                    (Path(v.name, [IndexAcc(self.index_expr(v.length))]), INT, v)
                )
            elif v.ty == ArrayType(ArrayType(INT)) and v.length and v.inner_length:
                targets.append(
                    (
                        Path(
                            v.name,
                            [
                                IndexAcc(self.index_expr(v.length)),
                                IndexAcc(self.index_expr(v.inner_length)),
                            ],
                        ),
                        INT,
                        v,
                    )
                )
        if not targets:
            return self.stmt_bind()
        path, ty, v = self.pick(targets)
        e, meta = self.gen_value(ty, self.cfg.max_depth - 2)
        v.bound = max(v.bound, meta.bound)
        if not path.accessors and v.ty == INT:
            v.known_value = meta.known_value
        self.spend(2)
        return [Assign(path, e)]

    def index_expr(self, length: int) -> Expr:
        """An in-bounds subscript: a literal, or a read of an Int
        variable whose concrete value is known."""
        known = self.ints_of(lambda v: v.known_value is not None and 0 <= v.known_value < length)
        if known and self.rng.random() < 0.4:
            return Path(self.pick(known).name, [])
        return IntLit(self.rng.randrange(length))

    def stmt_closure(self) -> list[Binding | Assign]:
        kind = self.pick(["counter", "pure", "reader"])
        if kind == "counter":
            state = self.ints_of(lambda v: v.mutable)
            if not state:
                return self.stmt_bind()
            sv = self.pick(state)
            name = self.fresh("tick")
            step = Binary("+", Binary("%", Path(sv.name, []), IntLit(97)), IntLit(1))
            body = Chain([Assign(Path(sv.name, []), step)], Path(sv.name, []))
            fn = FuncLit([], NamedTE("Int"), body)
            fv = _Var(name, FuncType((), INT), False, ret_bound=98)
            self.vars.append(fv)
            self.spend(6)
            return [Binding("let", name, _te(fv.ty), fn)]
        if kind == "pure":
            name = self.fresh("fn")
            k = self.rng.randint(1, 8)
            body = Binary("+", Binary("%", Path("p", []), IntLit(50)), IntLit(k))
            fn = FuncLit([Param("p", BY_VALUE, NamedTE("Int"))], NamedTE("Int"), body)
            fv = _Var(name, FuncType(((BY_VALUE, INT),), INT), False, ret_bound=58)
            self.vars.append(fv)
            self.spend(5)
            return [Binding("let", name, _te(fv.ty), fn)]
        arrays = [v for v in self.vars if v.ty == ArrayType(INT) and v.length]
        if not arrays:
            return self.stmt_bind()
        av = self.pick(arrays)
        name = self.fresh("peek")
        body = Path(av.name, [IndexAcc(IntLit(self.rng.randrange(av.length)))])
        fn = FuncLit([], NamedTE("Int"), body)
        fv = _Var(name, FuncType((), INT), False, ret_bound=av.bound)
        self.vars.append(fv)
        self.spend(4)
        return [Binding("let", name, _te(fv.ty), fn)]

    def stmt_call(self) -> list[Binding | Assign]:
        closures = [
            v
            for v in self.vars
            if isinstance(v.ty, FuncType) and all(p == BY_VALUE for p, _ in v.ty.params)
        ]
        if not closures:
            return self.stmt_closure() if self.cfg.enable_closures else self.stmt_bind()
        v = self.pick(closures)
        assert isinstance(v.ty, FuncType)
        args = [self.gen_int(1)[0] for _ in v.ty.params]
        call = Call(Path(v.name, []), args)
        self.spend(3)
        if self.rng.random() < 0.5:
            name = self.fresh("r")
            rv = _Var(name, INT, False, bound=v.ret_bound)
            self.vars.append(rv)
            return [Binding("let", name, _te(INT), call)]
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
        name = self.fresh(which)
        hv = _Var(name, ty, False, ret_bound=98)
        self.helpers[which] = hv
        self.vars.append(hv)
        self.spend(7)
        return hv, [Binding("let", name, _te(ty), fn)]

    def stmt_inout(self) -> list[Binding | Assign]:
        which = self.pick(["swap", "bump", "bump", "abump"])
        if which == "swap":
            pairs = self.inout_pairs()
            if not pairs:
                return self.stmt_bind()
            hv, decl = self.helper("swap")
            (p1, v1), (p2, v2) = self.pick(pairs)
            shared = max(v1.bound, v2.bound)
            v1.bound = max(v1.bound, shared)
            v2.bound = max(v2.bound, shared)
            v1.known_value = v2.known_value = None
            call = Call(Path(hv.name, []), [InoutArg(p1), InoutArg(p2)])
        elif which == "bump":
            targets = self.int_places()
            if not targets:
                return self.stmt_bind()
            hv, decl = self.helper("bump")
            p, v = self.pick(targets)
            v.bound = max(v.bound, 97)
            v.known_value = None
            call = Call(Path(hv.name, []), [InoutArg(p)])
        else:
            arrays = [v for v in self.vars if v.ty == ArrayType(INT) and v.mutable and v.length]
            if not arrays:
                return self.stmt_bind()
            hv, decl = self.helper("abump")
            v = self.pick(arrays)
            v.bound = max(v.bound, 84)
            call = Call(Path(hv.name, []), [InoutArg(Path(v.name, []))])
        self.spend(4)
        if self.rng.random() < 0.6:
            return decl + [Assign(Path("_", []), call)]
        # Exercise the conditional path: the call happens on one branch only.
        c, _ = self.gen_int(1)
        return decl + [Assign(Path("_", []), Cond(c, call, IntLit(0)))]

    def int_places(self) -> list[tuple[Path, _Var]]:
        """Mutable Int-typed places usable as inout arguments."""
        out: list[tuple[Path, _Var]] = []
        for v in self.vars:
            if not v.mutable:
                continue
            if v.ty == INT:
                out.append((Path(v.name, []), v))
            elif isinstance(v.ty, StructType):
                decl = self.structs[self.struct_types.index(v.ty)]
                for f in decl.fields:
                    if isinstance(f.type_expr, NamedTE) and f.type_expr.name == "Int":
                        out.append((Path(v.name, [FieldAcc(f.name)]), v))
            elif v.ty == ArrayType(INT) and v.length:
                out.append((Path(v.name, [IndexAcc(self.index_expr(v.length))]), v))
        return out

    def inout_pairs(self) -> list[tuple[tuple[Path, _Var], tuple[Path, _Var]]]:
        """Pairs of provably-disjoint mutable Int places: sibling
        fields, distinct literal indexes, known-value reads against a
        different literal, and places in distinct variables."""
        pairs = []
        for v in self.vars:
            if not v.mutable:
                continue
            if isinstance(v.ty, StructType):
                decl = self.structs[self.struct_types.index(v.ty)]
                ints = [
                    f.name
                    for f in decl.fields
                    if isinstance(f.type_expr, NamedTE) and f.type_expr.name == "Int"
                ]
                if len(ints) >= 2:
                    pairs.append(
                        (
                            (Path(v.name, [FieldAcc(ints[0])]), v),
                            (Path(v.name, [FieldAcc(ints[1])]), v),
                        )
                    )
            elif v.ty == ArrayType(INT) and v.length and v.length >= 2:
                i = self.rng.randrange(v.length - 1)
                pairs.append(
                    (
                        (Path(v.name, [IndexAcc(IntLit(i))]), v),
                        (Path(v.name, [IndexAcc(IntLit(i + 1))]), v),
                    )
                )
                known = self.ints_of(
                    lambda x: x.known_value is not None and 0 <= x.known_value < v.length
                )
                if known:
                    kv = self.pick(known)
                    other = (kv.known_value + 1) % v.length
                    if other != kv.known_value:
                        # Dynamic against literal: statically undecided,
                        # concretely disjoint, so the runtime check passes.
                        pairs.append(
                            (
                                (Path(v.name, [IndexAcc(Path(kv.name, []))]), v),
                                (Path(v.name, [IndexAcc(IntLit(other))]), v),
                            )
                        )
        scalars = [(Path(v.name, []), v) for v in self.vars if v.ty == INT and v.mutable]
        for i in range(len(scalars) - 1):
            pairs.append((scalars[i], scalars[i + 1]))
        return pairs

    # -- program assembly ------------------------------------------------------

    def declare_structs(self) -> None:
        for i in range(self.cfg.struct_count):
            name = f"S{i}"
            nf = self.rng.randint(2, 3)
            fields = []
            for j in range(nf):
                fty = "Int" if self.rng.random() < 0.75 else "Float"
                fields.append(FieldDecl("var", f"f{j}", NamedTE(fty)))
            self.structs.append(StructDecl(name, fields))
            self.struct_types.append(StructType(name))
            self.spend(2)

    def final_expr(self) -> Expr:
        candidates = [v for v in self.vars if not isinstance(v.ty, FuncType)]
        if not candidates:
            e, _ = self.gen_int(1)
            return e
        mode = self.pick(["combine", "combine", "whole"])
        ints = self.ints_of()
        if mode == "combine" and len(ints) >= 2:
            a, b = self.pick(ints), self.pick(ints)
            return Binary("+", Path(a.name, []), Path(b.name, []))
        return Path(self.pick(candidates).name, [])

    def generate(self) -> Program:
        if self.cfg.size_budget <= 1:
            return Program([], IntLit(self.rng.randint(0, 9)))
        if self.cfg.size_budget >= 8 and self.cfg.struct_count > 0:
            self.declare_structs()
        stmts: list[Binding | Assign] = []
        while self.budget > 3:
            kinds = ["bind", "bind", "assign"]
            if self.cfg.enable_closures:
                kinds += ["closure", "call"]
            if self.cfg.enable_inout and self.budget > 10:
                kinds += ["inout", "inout"]
            kind = self.pick(kinds)
            if kind == "bind":
                stmts += self.stmt_bind()
            elif kind == "assign":
                stmts += self.stmt_assign()
            elif kind == "closure":
                stmts += self.stmt_closure()
            elif kind == "call":
                stmts += self.stmt_call()
            else:
                stmts += self.stmt_inout()
        entry = self.final_expr()
        return Program(self.structs, Chain(stmts, entry) if stmts else entry)


def generate_program(cfg: GenConfig) -> Program:
    """Generate a deterministic, always-well-typed program."""
    assert cfg.size_budget >= 1
    return _Gen(cfg).generate()
