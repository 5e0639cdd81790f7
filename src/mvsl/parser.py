"""Recursive descent parser.

Grammar, one production per comment below its parse function:

    program   -> struct-decl* expr
    struct    -> "struct" IDENT "{" [field (";" field)*] "}" "in"
    field     -> ("var" | "let") IDENT ":" type
    type      -> IDENT | "[" type "]"
               | "(" [param-type ("," param-type)*] ")" "->" type
    expr      -> binding | assignment | operand
    binding   -> ("var" | "let") (IDENT | "_") [":" type]
                 ("=" operand | braced-body) "in" expr
    assignment-> path "=" operand "in" expr
    operand   -> "if" operand "then" operand "else" operand | comparison
    comparison-> additive (("=="|"!="|"<"|"<="|">"|">=") additive)*
    additive  -> multiplicative (("+"|"-") multiplicative)*
    multiplicative -> postfix (("*"|"/"|"%") postfix)*
    postfix   -> primary ("(" args ")" | "." IDENT | "[" operand "]")*
    primary   -> INT | FLOAT | IDENT | "_" | "[" operand ("," operand)* "]"
               | func-lit | "(" operand ")"
    func-lit  -> "(" [param ("," param)*] ")" "->" type "{" expr "}"
    param     -> IDENT ":" ["inout"] type

The three binary levels are one function, `binary`, which climbs the
precedence table _BINARY_PREC instead of recursing through one function
per level; it builds the same left-associative trees.

The braced-body form is sugar: `var f: () -> T { e } in b` declares a
zero-parameter function literal and is only accepted when the binding
is annotated with a zero-parameter function type.

Calls `Name(...)` where Name is a declared struct are classified as
struct initializers during parsing; struct names are collected before
the entry expression is parsed.
"""

from __future__ import annotations

from .ast import (
    ArrayLit,
    ArrayTE,
    Assign,
    Binary,
    Binding,
    Call,
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
    Token,
    TokenKind,
    TypeExpr,
)
from .diagnostics import ParseError, Span
from .lexer import tokenize

_INT_MAX = 2**63 - 1
# Digits of _INT_MAX: a literal with more significant digits is out of
# range, and int() refuses strings of more than 4300 digits.
_INT_MAX_DIGITS = len(str(_INT_MAX))

# Binary operators by precedence; all of them are left-associative.
_BINARY_PREC = {
    "==": 1, "!=": 1, "<": 1, "<=": 1, ">": 1, ">=": 1,
    "+": 2, "-": 2,
    "*": 3, "/": 3, "%": 3,
}  # fmt: skip


class _Parser:
    def __init__(self, tokens: list[Token], source_len: int):
        # The EOF sentinel ends the list, so the cursor never runs off it:
        # nothing advances past EOF, and lookahead beyond the current
        # token only happens when that token is not EOF.
        self.tokens = tokens + [Token(TokenKind.EOF, "", Span(source_len, source_len))]
        self.pos = 0
        self.tok = self.tokens[0]
        self.struct_names: set[str] = set()

    # -- cursor helpers ----------------------------------------------------

    def peek(self, ahead: int) -> Token:
        return self.tokens[self.pos + ahead]

    def at(self, kind: TokenKind, lexeme: str | None = None) -> bool:
        t = self.tok
        return t.kind is kind and (lexeme is None or t.lexeme == lexeme)

    def advance(self) -> Token:
        t = self.tok
        self.pos += 1
        self.tok = self.tokens[self.pos]
        return t

    def match(self, kind: TokenKind, lexeme: str | None = None) -> Token | None:
        t = self.tok
        if t.kind is kind and (lexeme is None or t.lexeme == lexeme):
            self.pos += 1
            self.tok = self.tokens[self.pos]
            return t
        return None

    def here(self) -> Span:
        return self.tok.span

    def fail(self, what: str) -> ParseError:
        t = self.tok
        found = "end of input" if t.kind is TokenKind.EOF else f"'{t.lexeme}'"
        return ParseError(t.span, f"expected {what}, found {found}")

    def expect(self, kind: TokenKind, lexeme: str | None, what: str) -> Token:
        t = self.match(kind, lexeme)
        if t is None:
            raise self.fail(what)
        return t

    # -- program and declarations ------------------------------------------

    def parse_program(self) -> Program:
        structs = []
        while self.at(TokenKind.KEYWORD, "struct"):
            structs.append(self.struct_decl())
            self.expect(TokenKind.KEYWORD, "in", "'in' after struct declaration")
        entry = self.expr()
        if self.tok.kind is not TokenKind.EOF:
            raise self.fail("end of input")
        return Program(structs, entry)

    def struct_decl(self) -> StructDecl:
        start = self.expect(TokenKind.KEYWORD, "struct", "'struct'").span
        name_tok = self.expect(TokenKind.IDENT, None, "struct name")
        if name_tok.lexeme in self.struct_names:
            raise ParseError(name_tok.span, f"duplicate struct '{name_tok.lexeme}'")
        self.expect(TokenKind.PUNCT, "{", "'{'")
        fields: list[FieldDecl] = []
        seen: set[str] = set()
        if not self.at(TokenKind.PUNCT, "}"):
            while True:
                fields.append(self.field_decl(seen))
                if not self.match(TokenKind.PUNCT, ";"):
                    break
        end = self.expect(TokenKind.PUNCT, "}", "'}' or ';'").span
        self.struct_names.add(name_tok.lexeme)
        return StructDecl(name_tok.lexeme, fields, start.merge(end))

    def field_decl(self, seen: set[str]) -> FieldDecl:
        qual = self.tok
        if qual.kind is not TokenKind.KEYWORD or qual.lexeme not in ("var", "let"):
            raise self.fail("'var' or 'let' field")
        self.advance()
        name_tok = self.expect(TokenKind.IDENT, None, "field name")
        if name_tok.lexeme in seen:
            raise ParseError(name_tok.span, f"duplicate field '{name_tok.lexeme}'")
        seen.add(name_tok.lexeme)
        self.expect(TokenKind.PUNCT, ":", "':'")
        te = self.type_expr()
        return FieldDecl(qual.lexeme, name_tok.lexeme, te, qual.span.merge(te.span))

    # -- types ---------------------------------------------------------------

    def type_expr(self) -> TypeExpr:
        t = self.tok
        if t.kind is TokenKind.IDENT:
            self.advance()
            return NamedTE(t.lexeme, t.span)
        if t.kind is TokenKind.PUNCT and t.lexeme == "[":
            self.advance()
            elem = self.type_expr()
            end = self.expect(TokenKind.PUNCT, "]", "']'").span
            return ArrayTE(elem, t.span.merge(end))
        if t.kind is TokenKind.PUNCT and t.lexeme == "(":
            self.advance()
            params: list[tuple[str, TypeExpr]] = []
            if not self.at(TokenKind.PUNCT, ")"):
                while True:
                    passing = "inout" if self.match(TokenKind.KEYWORD, "inout") else "byValue"
                    params.append((passing, self.type_expr()))
                    if not self.match(TokenKind.PUNCT, ","):
                        break
            self.expect(TokenKind.PUNCT, ")", "')' or ','")
            self.expect(TokenKind.ARROW, None, "'->'")
            ret = self.type_expr()
            return FuncTE(params, ret, t.span.merge(ret.span))
        raise self.fail("a type")

    # -- expressions ---------------------------------------------------------

    def expr(self) -> Expr:
        t = self.tok
        if t.kind is TokenKind.KEYWORD and t.lexeme in ("var", "let"):
            return self.binding()
        e = self.operand()
        if self.at(TokenKind.OP, "="):
            if not isinstance(e, Path):
                raise ParseError(self.here(), "assignment target must be a path")
            self.advance()
            value = self.operand()
            self.expect(TokenKind.KEYWORD, "in", "'in' after assignment")
            body = self.expr()
            return Assign(e, value, body, e.span.merge(body.span))
        return e

    def binding(self) -> Expr:
        qual = self.advance()  # var or let
        name_tok = self.tok
        if name_tok.kind not in (TokenKind.IDENT, TokenKind.UNDERSCORE):
            raise self.fail("binding name")
        self.advance()
        annotation: TypeExpr | None = None
        if self.match(TokenKind.PUNCT, ":"):
            annotation = self.type_expr()
        if self.at(TokenKind.PUNCT, "{"):
            # Sugar for a zero-parameter function literal.
            if not isinstance(annotation, FuncTE) or annotation.params:
                raise self.fail("'='")
            open_brace = self.advance()
            fn_body = self.expr()
            end = self.expect(TokenKind.PUNCT, "}", "'}'").span
            init: Expr = FuncLit([], annotation.ret, fn_body, open_brace.span.merge(end))
        else:
            self.expect(TokenKind.OP, "=", "'='")
            init = self.operand()
        self.expect(TokenKind.KEYWORD, "in", "'in' after binding")
        body = self.expr()
        return Binding(
            qual.lexeme, name_tok.lexeme, annotation, init, body, qual.span.merge(body.span)
        )

    def operand(self) -> Expr:
        if self.at(TokenKind.KEYWORD, "if"):
            start = self.advance().span
            cond = self.operand()
            self.expect(TokenKind.KEYWORD, "then", "'then'")
            then = self.operand()
            self.expect(TokenKind.KEYWORD, "else", "'else'")
            orelse = self.operand()
            return Cond(cond, then, orelse, start.merge(orelse.span))
        return self.binary(1)

    def binary(self, min_prec: int) -> Expr:
        """Precedence climbing: operands joined by operators that bind at
        least as tightly as min_prec, grouped to the left."""
        lhs = self.postfix()
        while True:
            t = self.tok
            prec = _BINARY_PREC.get(t.lexeme) if t.kind is TokenKind.OP else None
            if prec is None or prec < min_prec:
                return lhs
            self.advance()
            rhs = self.binary(prec + 1)
            lhs = Binary(t.lexeme, lhs, rhs, lhs.span.merge(rhs.span))

    def postfix(self) -> Expr:
        e = self.primary()
        while True:
            t = self.tok
            if t.kind is not TokenKind.PUNCT:
                return e
            if t.lexeme == "(":
                e = self.call(e)
            elif t.lexeme == "." or t.lexeme == "[":
                if not isinstance(e, Path):
                    what = "field access" if t.lexeme == "." else "indexing"
                    raise ParseError(t.span, f"{what} requires a path")
                self.accessor(e)
            else:
                return e

    def accessor(self, p: Path) -> None:
        """Parse one `.name` or `[operand]` accessor, at its '.' or '[',
        onto the end of p."""
        t = self.advance()
        if t.lexeme == ".":
            name_tok = self.expect(TokenKind.IDENT, None, "field name")
            p.accessors.append(FieldAcc(name_tok.lexeme, t.span.merge(name_tok.span)))
            p.span = p.span.merge(name_tok.span)
        else:
            idx = self.operand()
            end = self.expect(TokenKind.PUNCT, "]", "']'").span
            p.accessors.append(IndexAcc(idx, idx.span.merge(end)))
            p.span = p.span.merge(end)

    def call(self, callee: Expr) -> Expr:
        self.expect(TokenKind.PUNCT, "(", "'('")
        args: list[Expr | InoutArg] = []
        if not self.at(TokenKind.PUNCT, ")"):
            while True:
                amp = self.match(TokenKind.AMP)
                if amp is not None:
                    p = self.inout_path()
                    args.append(InoutArg(p, amp.span.merge(p.span)))
                else:
                    args.append(self.operand())
                if not self.match(TokenKind.PUNCT, ","):
                    break
        end = self.expect(TokenKind.PUNCT, ")", "')' or ','").span
        span = callee.span.merge(end)
        if (
            isinstance(callee, Path)
            and not callee.accessors
            and callee.root in self.struct_names
        ):
            plain: list[Expr] = []
            for a in args:
                if isinstance(a, InoutArg):
                    raise ParseError(a.span, "inout argument in struct initializer")
                plain.append(a)
            return StructInit(callee.root, plain, span)
        return Call(callee, args, span)

    def inout_path(self) -> Path:
        root = self.tok
        if root.kind not in (TokenKind.IDENT, TokenKind.UNDERSCORE):
            raise self.fail("a path after '&'")
        self.advance()
        p = Path(root.lexeme, [], root.span)
        while self.at(TokenKind.PUNCT, ".") or self.at(TokenKind.PUNCT, "["):
            self.accessor(p)
        return p

    def primary(self) -> Expr:
        t = self.tok
        kind = t.kind
        if kind is TokenKind.IDENT:
            self.advance()
            return Path(t.lexeme, [], t.span)
        if kind is TokenKind.INT:
            self.advance()
            digits = t.lexeme.lstrip("0") or "0"
            value = int(digits) if len(digits) <= _INT_MAX_DIGITS else _INT_MAX + 1
            if value > _INT_MAX:
                raise ParseError(t.span, "integer literal out of range")
            return IntLit(value, t.span)
        if kind is TokenKind.FLOAT:
            self.advance()
            value = float(t.lexeme)
            if value != value or value in (float("inf"), float("-inf")):
                raise ParseError(t.span, "float literal out of range")
            return FloatLit(value, t.span)
        if kind is TokenKind.UNDERSCORE:
            self.advance()
            return Path("_", [], t.span)
        if kind is TokenKind.PUNCT and t.lexeme == "[":
            self.advance()
            elements = [self.operand()]
            while self.match(TokenKind.PUNCT, ","):
                elements.append(self.operand())
            end = self.expect(TokenKind.PUNCT, "]", "']' or ','").span
            return ArrayLit(elements, t.span.merge(end))
        if kind is TokenKind.PUNCT and t.lexeme == "(":
            # Function literal when the parenthesis opens a parameter list
            # (empty, or IDENT ':'), otherwise a grouping.
            nxt = self.peek(1)
            if (nxt.kind is TokenKind.PUNCT and nxt.lexeme == ")") or (
                nxt.kind is TokenKind.IDENT
                and self.peek(2).kind is TokenKind.PUNCT
                and self.peek(2).lexeme == ":"
            ):
                return self.func_lit()
            self.advance()
            inner = self.expr()
            self.expect(TokenKind.PUNCT, ")", "')'")
            return inner
        raise self.fail("an expression")

    def func_lit(self) -> FuncLit:
        start = self.expect(TokenKind.PUNCT, "(", "'('").span
        params: list[Param] = []
        seen: set[str] = set()
        if not self.at(TokenKind.PUNCT, ")"):
            while True:
                name_tok = self.expect(TokenKind.IDENT, None, "parameter name")
                if name_tok.lexeme in seen:
                    raise ParseError(name_tok.span, f"duplicate parameter '{name_tok.lexeme}'")
                seen.add(name_tok.lexeme)
                self.expect(TokenKind.PUNCT, ":", "':'")
                passing = "inout" if self.match(TokenKind.KEYWORD, "inout") else "byValue"
                te = self.type_expr()
                params.append(Param(name_tok.lexeme, passing, te, name_tok.span.merge(te.span)))
                if not self.match(TokenKind.PUNCT, ","):
                    break
        self.expect(TokenKind.PUNCT, ")", "')' or ','")
        self.expect(TokenKind.ARROW, None, "'->'")
        ret = self.type_expr()
        self.expect(TokenKind.PUNCT, "{", "'{'")
        body = self.expr()
        end = self.expect(TokenKind.PUNCT, "}", "'}'").span
        return FuncLit(params, ret, body, start.merge(end))


def parse_program(tokens: list[Token], source_len: int = 0) -> Program:
    """Parse a token stream into a Program; raises ParseError."""
    if tokens and source_len == 0:
        source_len = tokens[-1].span.end
    return _Parser(tokens, source_len).parse_program()


def parse_source(source: str) -> Program:
    """Tokenize and parse source text."""
    return parse_program(tokenize(source), len(source))
