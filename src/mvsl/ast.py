"""The kinds of token, surface syntax trees, and the pretty printer.

AST nodes are dataclasses that compare structurally; spans never take
part in equality so `parse(pretty(tree)) == tree` is a meaningful
property.  Fields that the type checker fills in later (ty, binding
ids, capture lists) live as plain attributes with class-level defaults
and stay out of equality as well.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from .diagnostics import NO_SPAN, Span
from .types import Type


class TokenKind(enum.Enum):
    KEYWORD = "keyword"
    IDENT = "identifier"
    INT = "integer-literal"
    FLOAT = "float-literal"
    PUNCT = "punctuation"
    OP = "operator"
    ARROW = "arrow"
    AMP = "ampersand"
    UNDERSCORE = "underscore"
    # The parser's end-of-input sentinel; the lexer never produces it.
    EOF = "end-of-input"


# ---------------------------------------------------------------------------
# Type expressions (surface syntax; resolved to types.Type by the checker)


class TypeExpr:
    span: Span


@dataclass
class NamedTE(TypeExpr):
    name: str
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass
class ArrayTE(TypeExpr):
    element: TypeExpr
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass
class FuncTE(TypeExpr):
    # Each parameter is (passing, type) with passing "byValue" or "inout".
    params: list[tuple[str, TypeExpr]]
    ret: TypeExpr
    span: Span = field(compare=False, default=NO_SPAN)


# ---------------------------------------------------------------------------
# Expressions


class Expr:
    """Base class for expression nodes.

    `span` is set by the parser.  `ty` is None until the type checker
    annotates the node.
    """

    span: Span
    ty: Type | None = None


@dataclass
class IntLit(Expr):
    value: int
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass
class FloatLit(Expr):
    value: float
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass
class ArrayLit(Expr):
    elements: list[Expr]
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass
class StructInit(Expr):
    name: str
    args: list[Expr]
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass
class FieldAcc:
    name: str
    span: Span = field(compare=False, default=NO_SPAN)
    # The field's position in its struct, set by the type checker.
    offset: int | None = field(compare=False, repr=False, default=None)


@dataclass
class IndexAcc:
    index: Expr
    span: Span = field(compare=False, default=NO_SPAN)


Accessor = FieldAcc | IndexAcc


@dataclass
class Path(Expr):
    """An identifier root followed by field and index accessors.

    The root "_" is the wildcard; it may only appear as a whole
    assignment or binding target, never be read.
    """

    root: str
    accessors: list[Accessor] = field(default_factory=list)
    span: Span = field(compare=False, default=NO_SPAN)

    # Filled by the type checker.
    root_binding_id: int | None = field(compare=False, default=None)


@dataclass
class Param:
    name: str
    passing: str  # "byValue" or "inout"
    type_expr: TypeExpr
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass
class Capture:
    """One captured binding of a function literal (checker output)."""

    name: str
    binding_id: int
    ty: Type


@dataclass
class FuncLit(Expr):
    params: list[Param]
    ret: TypeExpr
    body: Expr
    span: Span = field(compare=False, default=NO_SPAN)

    # Filled by the type checker.
    param_ids: list[int] | None = field(compare=False, default=None)
    captures: list[Capture] | None = field(compare=False, default=None)


@dataclass
class InoutArg:
    """An &-marked call argument; always a path."""

    path: Path
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass
class Call(Expr):
    callee: Expr
    args: list[Expr | InoutArg]
    span: Span = field(compare=False, default=NO_SPAN)

    # The places of a call are the paths it borrows for its duration:
    # its callee when that is a path, then its inout arguments, left to
    # right.  The law of exclusivity is one rule over this list, and
    # checked_places holds the sorted indexes of the places checked at
    # runtime, in one pass: those of each root with two or more places,
    # one of them dynamically subscripted.  Filled by the type checker.
    checked_places: list[int] | None = field(compare=False, default=None)


@dataclass
class Binary(Expr):
    op: str
    lhs: Expr
    rhs: Expr
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass
class Cond(Expr):
    cond: Expr
    then: Expr
    orelse: Expr
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass
class Binding:
    """`var`/`let` statement of a chain: qualifier name[: type] = init."""

    qualifier: str  # "var" or "let"
    name: str  # "_" for a wildcard binding
    annotation: TypeExpr | None
    init: Expr
    span: Span = field(compare=False, default=NO_SPAN)

    binding_id: int | None = field(compare=False, default=None)


@dataclass
class Assign:
    """Assignment statement of a chain: target = value.

    A wildcard discard `_ = e` is an Assign whose target is the path `_`.
    """

    target: Path
    value: Expr
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass
class Chain(Expr):
    """One or more statements, each closed by `in`, then the tail; the
    bindings live through the tail and then die in reverse order."""

    stmts: list[Binding | Assign]
    tail: Expr
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass
class FieldDecl:
    qualifier: str  # "var" or "let"
    name: str
    type_expr: TypeExpr
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass
class StructDecl:
    name: str
    fields: list[FieldDecl]
    span: Span = field(compare=False, default=NO_SPAN)


@dataclass
class Program:
    structs: list[StructDecl]
    entry: Expr


# ---------------------------------------------------------------------------
# Pretty printing
#
# Operand-level precedence, lowest binds loosest:
#   1 if-expression   2-4 binary operators, from BINARY_PREC
#   5 call/path postfix   6 primary
# A chain is parenthesized everywhere but the program's entry and a
# function body, its own tail included: there it would parse back as more
# statements of the outer chain.

_PREC_IF = 1
PREC_CMP = 2
_PREC_POSTFIX = 5
_PREC_PRIMARY = 6

# Binary operators by precedence, the one table of them: the parser
# groups, the pretty printer parenthesizes and the checker types by it.
# All of them are left-associative.
BINARY_PREC = {
    "==": PREC_CMP, "!=": PREC_CMP, "<": PREC_CMP, "<=": PREC_CMP, ">": PREC_CMP, ">=": PREC_CMP,
    "+": 3, "-": 3,
    "*": 4, "/": 4, "%": 4,
}  # fmt: skip


def pretty_type(te: TypeExpr) -> str:
    if isinstance(te, NamedTE):
        return te.name
    if isinstance(te, ArrayTE):
        return f"[{pretty_type(te.element)}]"
    if isinstance(te, FuncTE):
        parts = []
        for passing, pt in te.params:
            prefix = "inout " if passing == "inout" else ""
            parts.append(prefix + pretty_type(pt))
        return f"({', '.join(parts)}) -> {pretty_type(te.ret)}"
    raise AssertionError(f"unknown type expression {te!r}")


def _pretty_path(p: Path) -> str:
    out = [p.root]
    for acc in p.accessors:
        if isinstance(acc, FieldAcc):
            out.append(f".{acc.name}")
        else:
            out.append(f"[{_operand(acc.index)}]")
    return "".join(out)


def _operand(e: Expr) -> str:
    return pretty_expr(e, _PREC_IF)


def pretty_expr(e: Expr, min_prec: int = 0, multiline: bool = False) -> str:
    """Render e, parenthesizing when its form binds looser than min_prec.

    With multiline=True, a chain breaks onto one line per statement;
    function literal bodies always render inline.
    """
    if isinstance(e, Chain):
        parts = []
        for s in e.stmts:
            if isinstance(s, Binding):
                ann = f": {pretty_type(s.annotation)}" if s.annotation else ""
                parts.append(f"{s.qualifier} {s.name}{ann} = {_operand(s.init)} in")
            else:
                parts.append(f"{_pretty_path(s.target)} = {_operand(s.value)} in")
        parts.append(_operand(e.tail))
        text = ("\n" if multiline else " ").join(parts)
        return f"({text})" if min_prec > 0 else text
    text, prec = _pretty_operand(e)
    return f"({text})" if prec < min_prec else text


def _pretty_operand(e: Expr) -> tuple[str, int]:
    if isinstance(e, IntLit):
        return str(e.value), _PREC_PRIMARY
    if isinstance(e, FloatLit):
        return repr(e.value), _PREC_PRIMARY
    if isinstance(e, Path):
        prec = _PREC_PRIMARY if not e.accessors else _PREC_POSTFIX
        return _pretty_path(e), prec
    if isinstance(e, ArrayLit):
        return f"[{', '.join(_operand(x) for x in e.elements)}]", _PREC_PRIMARY
    if isinstance(e, StructInit):
        return f"{e.name}({', '.join(_operand(a) for a in e.args)})", _PREC_POSTFIX
    if isinstance(e, FuncLit):
        params = ", ".join(
            f"{p.name}: {'inout ' if p.passing == 'inout' else ''}{pretty_type(p.type_expr)}"
            for p in e.params
        )
        body = pretty_expr(e.body)
        return f"({params}) -> {pretty_type(e.ret)} {{ {body} }}", _PREC_PRIMARY
    if isinstance(e, Call):
        callee = pretty_expr(e.callee, _PREC_POSTFIX)
        args = []
        for a in e.args:
            if isinstance(a, InoutArg):
                args.append(f"&{_pretty_path(a.path)}")
            else:
                args.append(_operand(a))
        return f"{callee}({', '.join(args)})", _PREC_POSTFIX
    if isinstance(e, Binary):
        prec = BINARY_PREC[e.op]
        lhs = pretty_expr(e.lhs, prec)
        rhs = pretty_expr(e.rhs, prec + 1)
        return f"{lhs} {e.op} {rhs}", prec
    if isinstance(e, Cond):
        text = (
            f"if {_operand(e.cond)} then {_operand(e.then)} else {_operand(e.orelse)}"
        )
        return text, _PREC_IF
    raise AssertionError(f"unknown expression {e!r}")


def pretty_program(p: Program) -> str:
    lines = []
    for s in p.structs:
        fields = "; ".join(
            f"{f.qualifier} {f.name}: {pretty_type(f.type_expr)}" for f in s.fields
        )
        body = f"{{ {fields} }}" if s.fields else "{}"
        lines.append(f"struct {s.name} {body} in")
    lines.append(pretty_expr(p.entry, multiline=True))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# AST dump (for the --dump=ast driver mode)


def dump_ast(p: Program) -> str:
    out: list[str] = []
    for s in p.structs:
        out.append(f"struct {s.name}")
        for f in s.fields:
            out.append(f"  {f.qualifier} {f.name}: {pretty_type(f.type_expr)}")
    _dump_expr(p.entry, out, 0)
    return "\n".join(out)


def _dump_expr(e: Expr, out: list[str], depth: int) -> None:
    pad = "  " * depth

    def put(line: str) -> None:
        out.append(pad + line)

    if isinstance(e, IntLit):
        put(f"IntLit {e.value}")
    elif isinstance(e, FloatLit):
        put(f"FloatLit {e.value!r}")
    elif isinstance(e, Path):
        put(f"Path {_pretty_path(e)}")
        for acc in e.accessors:
            if isinstance(acc, IndexAcc):
                _dump_expr(acc.index, out, depth + 1)
    elif isinstance(e, ArrayLit):
        put("ArrayLit")
        for x in e.elements:
            _dump_expr(x, out, depth + 1)
    elif isinstance(e, StructInit):
        put(f"StructInit {e.name}")
        for a in e.args:
            _dump_expr(a, out, depth + 1)
    elif isinstance(e, FuncLit):
        params = ", ".join(
            f"{p.name}: {'inout ' if p.passing == 'inout' else ''}{pretty_type(p.type_expr)}"
            for p in e.params
        )
        put(f"FuncLit ({params}) -> {pretty_type(e.ret)}")
        _dump_expr(e.body, out, depth + 1)
    elif isinstance(e, Call):
        put("Call")
        _dump_expr(e.callee, out, depth + 1)
        for a in e.args:
            if isinstance(a, InoutArg):
                out.append("  " * (depth + 1) + f"InoutArg &{_pretty_path(a.path)}")
            else:
                _dump_expr(a, out, depth + 1)
    elif isinstance(e, Binary):
        put(f"Binary {e.op}")
        _dump_expr(e.lhs, out, depth + 1)
        _dump_expr(e.rhs, out, depth + 1)
    elif isinstance(e, Cond):
        put("Cond")
        _dump_expr(e.cond, out, depth + 1)
        _dump_expr(e.then, out, depth + 1)
        _dump_expr(e.orelse, out, depth + 1)
    elif isinstance(e, Chain):
        for s in e.stmts:
            if isinstance(s, Binding):
                ann = f": {pretty_type(s.annotation)}" if s.annotation else ""
                put(f"Binding {s.qualifier} {s.name}{ann}")
                _dump_expr(s.init, out, depth + 1)
            else:
                put(f"Assign {_pretty_path(s.target)}")
                _dump_expr(s.value, out, depth + 1)
        _dump_expr(e.tail, out, depth)
    else:  # pragma: no cover
        raise AssertionError(f"unknown expression {e!r}")
