"""Recursive descent parser.

Grammar, one production per comment below its parse function:

    program   -> struct-decl* expr
    struct    -> "struct" IDENT "{" [field (";" field)*] "}" "in"
    field     -> ("var" | "let") IDENT ":" type
    type      -> IDENT | "[" type "]"
               | "(" [param-type ("," param-type)*] ")" "->" type
    expr      -> (statement "in")* operand
    statement -> binding | assignment
    binding   -> ("var" | "let") (IDENT | "_") [":" type]
                 ("=" operand | braced-body)
    assignment-> path "=" operand
    operand   -> "if" operand "then" operand "else" operand | comparison
    comparison-> additive (("=="|"!="|"<"|"<="|">"|">=") additive)*
    additive  -> multiplicative (("+"|"-") multiplicative)*
    multiplicative -> postfix (("*"|"/"|"%") postfix)*
    postfix   -> primary ("(" args ")" | "." IDENT | "[" operand "]")*
    primary   -> INT | FLOAT | IDENT | "_" | "[" operand ("," operand)* "]"
               | func-lit | "(" expr ")"
    func-lit  -> "(" [param ("," param)*] ")" "->" type "{" expr "}"
    param     -> IDENT ":" ["inout"] type

A chain of statements is one Chain node, built by the loop in `expr`.
The three binary levels are one loop in `operand` over the precedence
table `ast.BINARY_PREC` with an operator stack, instead of one function
per level; it builds the same left-associative trees.

Nesting has a documented limit, MAX_NESTING.  One counter, `depth`,
rises on entry to each operand, type and function literal, and once per
binary operator, since a run of operators nests its Binary nodes; it
falls back when the construct is done.  An operand, operator, type or
function literal opened with more than MAX_NESTING levels around it is
`error[Syntax]: nesting too deep`.  The limit keeps the deepest accepted
program within Python's default recursion limit in every pass.

The braced-body form is sugar: `var f: () -> T { e } in b` declares a
zero-parameter function literal and is only accepted when the binding
is annotated with a zero-parameter function type.

Calls `Name(...)` where Name is a declared struct are classified as
struct initializers during parsing; struct names are collected before
the entry expression is parsed.
"""

from __future__ import annotations

from .ast import (
    BINARY_PREC,
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

# Levels of nesting allowed around an operand, operator, type or function
# literal.  At this depth the parser needs about 760 Python frames and no
# later pass more; the default recursion limit is 1000.
MAX_NESTING = 150


class _Parser:
    def __init__(self, tokens: list[Token], source_len: int):
        # The EOF sentinel ends the list, so the cursor never runs off it:
        # nothing advances past EOF, and lookahead beyond the current
        # token only happens when that token is not EOF.
        self.tokens = tokens + [Token(TokenKind.EOF, "", Span(source_len, source_len))]
        self.pos = 0
        self.tok = self.tokens[0]
        self.struct_names: set[str] = set()
        self.depth = 0

    def descend(self) -> int:
        """Open one more level of nesting; returns the depth to restore
        when the level closes."""
        depth = self.depth
        if depth > MAX_NESTING:
            raise ParseError(self.tok.span, f"nesting too deep (limit {MAX_NESTING})")
        self.depth = depth + 1
        return depth

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
        depth = self.descend()
        t = self.tok
        if t.kind is TokenKind.IDENT:
            self.advance()
            te: TypeExpr = NamedTE(t.lexeme, t.span)
        elif t.kind is TokenKind.PUNCT and t.lexeme == "[":
            self.advance()
            elem = self.type_expr()
            end = self.expect(TokenKind.PUNCT, "]", "']'").span
            te = ArrayTE(elem, t.span.merge(end))
        elif t.kind is TokenKind.PUNCT and t.lexeme == "(":
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
            te = FuncTE(params, ret, t.span.merge(ret.span))
        else:
            raise self.fail("a type")
        self.depth = depth
        return te

    # -- expressions ---------------------------------------------------------

    def expr(self) -> Expr:
        stmts: list[Binding | Assign] = []
        while True:
            t = self.tok
            if t.kind is TokenKind.KEYWORD and t.lexeme in ("var", "let"):
                stmts.append(self.binding())
                continue
            e = self.operand()
            if not self.at(TokenKind.OP, "="):
                return Chain(stmts, e, stmts[0].span.merge(e.span)) if stmts else e
            if not isinstance(e, Path):
                raise ParseError(self.here(), "assignment target must be a path")
            self.advance()
            value = self.operand()
            self.expect(TokenKind.KEYWORD, "in", "'in' after assignment")
            stmts.append(Assign(e, value, e.span.merge(value.span)))

    def binding(self) -> Binding:
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
        return Binding(qual.lexeme, name_tok.lexeme, annotation, init, qual.span.merge(init.span))

    def operand(self) -> Expr:
        depth = self.depth  # descend(), inlined on this hot path
        if depth > MAX_NESTING:
            self.descend()
        self.depth = depth + 1
        if self.at(TokenKind.KEYWORD, "if"):
            start = self.advance().span
            cond = self.operand()
            self.expect(TokenKind.KEYWORD, "then", "'then'")
            then = self.operand()
            self.expect(TokenKind.KEYWORD, "else", "'else'")
            orelse = self.operand()
            self.depth = depth
            return Cond(cond, then, orelse, start.merge(orelse.span))
        e = self.postfix()
        t = self.tok
        prec = BINARY_PREC.get(t.lexeme) if t.kind is TokenKind.OP else None
        if prec is not None:
            # Binary operators, grouped with an operator stack: once an
            # operand is read, every stacked operator that binds at least
            # as tightly as the next takes its two operands, since all of
            # them are left-associative.
            operands = [e]
            ops: list[tuple[str, int]] = []
            while prec is not None:
                # The operands after an operator nest one level deeper.
                self.descend()
                self.advance()
                ops.append((t.lexeme, prec))
                operands.append(self.postfix())
                t = self.tok
                prec = BINARY_PREC.get(t.lexeme) if t.kind is TokenKind.OP else None
                while ops and (prec is None or ops[-1][1] >= prec):
                    rhs = operands.pop()
                    lhs = operands.pop()
                    operands.append(Binary(ops.pop()[0], lhs, rhs, lhs.span.merge(rhs.span)))
            e = operands[0]
        self.depth = depth
        return e

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
        depth = self.descend()
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
        self.depth = depth
        return FuncLit(params, ret, body, start.merge(end))


def parse_program(tokens: list[Token], source_len: int = 0) -> Program:
    """Parse a token stream into a Program; raises ParseError."""
    if tokens and source_len == 0:
        source_len = tokens[-1].span.end
    return _Parser(tokens, source_len).parse_program()


def parse_source(source: str) -> Program:
    """Tokenize and parse source text."""
    return parse_program(tokenize(source), len(source))
