"""Naive reference interpreter.

Defines observable behavior in the most literal way possible: every
binding, assignment, capture, and by-value argument performs a full
deep copy, and inout arguments are copied in at the call and copied
back to their source places when it returns.  No storage is shared, no
copy is elided, nothing is counted.  The VM must agree with this
interpreter on every program; their implementations share nothing
beyond the typed AST, which is the point.  An array whose elements are
all Ints, or all Floats, is still copied in full, but with one slice,
and printed in one join.
"""

from __future__ import annotations

import operator

from .ast import (
    ArrayLit,
    Binary,
    Binding,
    Call,
    Chain,
    Cond,
    FieldAcc,
    FloatLit,
    FuncLit,
    InoutArg,
    IntLit,
    Path,
    StructInit,
)
from .diagnostics import RuntimeTrap, Span
from .typechecker import StructInfo, TypedProgram

_INT_MIN = -(2**63)
_INT_MAX = 2**63 - 1


class Struct:
    __slots__ = ("name", "fields")

    def __init__(self, name: str, fields: list):
        self.name = name
        self.fields = fields


class Func:
    """A closure value: the literal plus its captured environment.

    env maps capture names to values.  Copying the closure deep-copies
    env; calling the closure through a path reuses this very dict, so
    mutations of captures persist across calls of the same value.
    """

    __slots__ = ("lit", "env")

    def __init__(self, lit: FuncLit, env: dict):
        self.lit = lit
        self.env = env


class Scope:
    """One lexical scope level, a whole chain's bindings or a call's
    parameters; lookup walks outward.

    A closure body runs in a scope whose outermost level is the
    closure's env dict, so capture reads and writes hit the dict that
    lives in the Func value.
    """

    __slots__ = ("vars", "parent")

    def __init__(self, vars: dict, parent: Scope | None):
        self.vars = vars
        self.parent = parent

    def owner(self, name: str) -> dict:
        s: Scope | None = self
        while s is not None:
            if name in s.vars:
                return s.vars
            s = s.parent
        raise AssertionError(f"unbound '{name}' survived the typechecker")


def _scalar_type(v: list) -> type | None:
    """int or float when every element of v is exactly that type, else
    None: such a list holds nothing to copy further.  The first element
    is tested alone, so other lists pay one test."""
    t = type(v[0]) if v else None
    if (t is int or t is float) and operator.countOf(map(type, v), t) == len(v):
        return t
    return None


def deep_copy(v):
    t = type(v)
    if t is int or t is float:
        return v
    if t is Struct:
        return Struct(v.name, [deep_copy(f) for f in v.fields])
    if t is list:
        if _scalar_type(v) is not None:
            return v[:]
        return [deep_copy(e) for e in v]
    if t is Func:
        return Func(v.lit, {k: deep_copy(x) for k, x in v.env.items()})
    raise AssertionError(f"cannot copy {v!r}")  # a bool among them


def render(v) -> str:
    t = type(v)
    if t is int:
        return str(v)
    if t is float:
        return repr(v)
    if t is Struct:
        return f"{v.name}({', '.join(render(f) for f in v.fields)})"
    if t is list:
        st = _scalar_type(v)
        if st is not None:
            return f"[{', '.join(map(str if st is int else repr, v))}]"
        return f"[{', '.join(render(e) for e in v)}]"
    if t is Func:
        return "<function>"
    if t is bool:
        raise AssertionError("boolean leaked into a value")
    raise AssertionError(f"cannot render {v!r}")


_COMPARISONS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}


def _arith(op: str, a, b, span: Span):
    compare = _COMPARISONS.get(op)
    if compare is not None:
        return 1 if compare(a, b) else 0
    if type(a) is int:
        if op == "+":
            r = a + b
        elif op == "-":
            r = a - b
        elif op == "*":
            r = a * b
        else:
            if b == 0:
                raise RuntimeTrap(span, "DivisionByZero", "division by zero")
            # Truncate toward zero; remainder takes the dividend's sign.
            q = abs(a) // abs(b)
            if (a < 0) != (b < 0):
                q = -q
            r = q if op == "/" else a - b * q
        if not _INT_MIN <= r <= _INT_MAX:
            raise RuntimeTrap(span, "IntegerOverflow", f"integer overflow in '{op}'")
        return r
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if b == 0.0:
        if a != a or a == 0.0:
            return float("nan")
        neg = (repr(a)[0] == "-") != (repr(b)[0] == "-")
        return float("-inf") if neg else float("inf")
    return a / b


class _Interp:
    def __init__(self, structs: dict[str, StructInfo]):
        self.structs = structs

    # -- paths ------------------------------------------------------------

    def trail(self, p: Path, scope: Scope) -> tuple[dict, tuple]:
        """Concrete place of a path: the dict that owns its root, and the
        hops to it, (owning-dict identity, name) and then one per
        accessor with subscripts evaluated to numbers."""
        owner = scope.owner(p.root)
        hops: list = [(id(owner), p.root)]
        for acc in p.accessors:
            if type(acc) is FieldAcc:
                hops.append(("f", acc.name))
            else:
                hops.append(("i", _EVAL[type(acc.index)](self, acc.index, scope)))
        return owner, tuple(hops)

    def place(self, trail: tuple[dict, tuple], span: Span) -> tuple:
        """Walk a trail to (container, key): the place is container[key],
        a name of the owning dict, a field of a struct's list or an
        element of an array's list.  Each subscript is bounds-checked."""
        owner, hops = trail
        container, key = owner, hops[0][1]
        for kind, k in hops[1:]:
            v = container[key]
            if kind == "f":
                assert type(v) is Struct
                container, key = v.fields, self.structs[v.name].index_of(k)
            else:
                assert type(v) is list
                if not 0 <= k < len(v):
                    raise RuntimeTrap(
                        span,
                        "IndexOutOfBounds",
                        f"index {k} out of bounds for array of {len(v)} elements",
                    )
                container, key = v, k
        return container, key

    # -- evaluation --------------------------------------------------------
    #
    # An expression is evaluated by _EVAL[type(e)](self, e, scope): one
    # handler per kind of expression, keyed by exact type, since no AST
    # class has subclasses; a kind with no entry raises KeyError.  Each
    # handler calls the table itself, not a dispatching method, so a node
    # costs one Python frame and deep programs recurse no deeper than
    # under a ladder of isinstance tests.

    def eval_path(self, e: Path, scope: Scope):
        container, key = self.place(self.trail(e, scope), e.span)
        return deep_copy(container[key])

    def eval_array(self, e: ArrayLit, scope: Scope):
        return [_EVAL[type(x)](self, x, scope) for x in e.elements]

    def eval_struct(self, e: StructInit, scope: Scope):
        return Struct(e.name, [_EVAL[type(a)](self, a, scope) for a in e.args])

    def eval_funclit(self, e: FuncLit, scope: Scope):
        assert e.captures is not None
        env = {}
        for cap in e.captures:
            env[cap.name] = deep_copy(scope.owner(cap.name)[cap.name])
        return Func(e, env)

    def eval_binary(self, e: Binary, scope: Scope):
        lhs = _EVAL[type(e.lhs)](self, e.lhs, scope)
        rhs = _EVAL[type(e.rhs)](self, e.rhs, scope)
        return _arith(e.op, lhs, rhs, e.span)

    def eval_cond(self, e: Cond, scope: Scope):
        c = _EVAL[type(e.cond)](self, e.cond, scope)
        arm = e.then if c != 0 else e.orelse
        return _EVAL[type(arm)](self, arm, scope)

    def eval_chain(self, e: Chain, scope: Scope):
        # One scope: a later binding of a name replaces the earlier.
        inner = Scope({}, scope)
        for s in e.stmts:
            if type(s) is Binding:
                v = _EVAL[type(s.init)](self, s.init, inner)
                if s.name != "_":
                    inner.vars[s.name] = v
            elif s.target.root == "_" and not s.target.accessors:
                _EVAL[type(s.value)](self, s.value, inner)
            else:
                # Subscripts of the target run before the value; bounds
                # are checked by the write itself.
                t = self.trail(s.target, inner)
                v = _EVAL[type(s.value)](self, s.value, inner)
                container, key = self.place(t, s.span)
                container[key] = v
        return _EVAL[type(e.tail)](self, e.tail, inner)

    def call(self, e: Call, scope: Scope):
        # Phases match the compiled form: callee subscripts, arguments
        # left to right (an inout argument contributes its subscripts),
        # then the call's places, the callee first, are resolved with
        # bounds checks at their own paths' spans, then overlap checks,
        # then the call itself.  A path callee is read in place so
        # capture mutations persist in the named closure; any other
        # callee is a temporary.
        paths = [e.callee] if type(e.callee) is Path else []
        n_callee = len(paths)
        trails = [self.trail(p, scope) for p in paths]
        if not n_callee:
            fn = _EVAL[type(e.callee)](self, e.callee, scope)
        copied_in: list = []
        for a in e.args:
            if type(a) is InoutArg:
                paths.append(a.path)
                trails.append(self.trail(a.path, scope))
            else:
                copied_in.append(_EVAL[type(a)](self, a, scope))

        places = [self.place(t, p.span) for t, p in zip(trails, paths)]
        if n_callee:
            container, key = places.pop(0)
            fn = container[key]
        assert type(fn) is Func
        # Two places overlap iff one trail is a prefix of the other, and
        # sorted, a trail that is a prefix of any other is one of the next.
        if len(trails) > 1:
            hops = sorted(t[1] for t in trails)
            if any(b[: len(a)] == a for a, b in zip(hops, hops[1:])):
                raise RuntimeTrap(e.span, "OverlapViolation", "overlapping inout arguments")

        # Copy in.
        inout_vals = [deep_copy(container[key]) for container, key in places]

        # The closure's env dict itself is the outermost scope, so
        # capture mutations persist in the value across calls.
        body_scope = Scope({}, Scope(fn.env, None))
        vi = iter(copied_in)
        ii = iter(inout_vals)
        for p in fn.lit.params:
            body_scope.vars[p.name] = next(ii) if p.passing == "inout" else next(vi)
        body = fn.lit.body
        result = _EVAL[type(body)](self, body, body_scope)

        # Copy out, left to right; exclusivity keeps order unobservable.
        # The body cannot reach the caller's storage, so the places
        # resolved before the call still stand.
        inout_params = [p for p in fn.lit.params if p.passing == "inout"]
        for (container, key), p in zip(places, inout_params):
            container[key] = deep_copy(body_scope.vars[p.name])
        return result


_EVAL = {
    IntLit: lambda interp, e, scope: e.value,
    FloatLit: lambda interp, e, scope: e.value,
    Path: _Interp.eval_path,
    Binary: _Interp.eval_binary,
    Call: _Interp.call,
    Cond: _Interp.eval_cond,
    Chain: _Interp.eval_chain,
    ArrayLit: _Interp.eval_array,
    StructInit: _Interp.eval_struct,
    FuncLit: _Interp.eval_funclit,
}


def interpret_eager(tp: TypedProgram) -> str:
    """Run the program under literal copy-everywhere semantics and
    return its formatted final value; traps raise RuntimeTrap."""
    interp = _Interp(tp.structs)
    entry = tp.program.entry
    result = _EVAL[type(entry)](interp, entry, Scope({}, None))
    return render(result)
