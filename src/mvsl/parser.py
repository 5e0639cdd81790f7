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

The parser reads the lexer's three lists by index (see `_Parser`).  A
path's root and its run of accessors are one function, `path`, which
builds the path's span once, after the run.

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
    TokenKind,
    TypeExpr,
)
from .diagnostics import ParseError, Span
from .lexer import Tokens, tokenize

_INT_MAX = 2**63 - 1
# Digits of _INT_MAX: a literal with more significant digits is out of
# range, and int() refuses strings of more than 4300 digits.
_INT_MAX_DIGITS = len(str(_INT_MAX))

# Levels of nesting allowed around an operand, operator, type or function
# literal.  At this depth the parser needs about 760 Python frames and no
# later pass more; the default recursion limit is 1000.
MAX_NESTING = 150

# The token kinds as module globals: in Python 3.11 reading a member off
# its enum class costs over ten times a global lookup, and the parser
# tests a kind several times per token.
KEYWORD, IDENT, INT, FLOAT = TokenKind.KEYWORD, TokenKind.IDENT, TokenKind.INT, TokenKind.FLOAT
PUNCT, OP, ARROW, AMP = TokenKind.PUNCT, TokenKind.OP, TokenKind.ARROW, TokenKind.AMP
UNDERSCORE, EOF = TokenKind.UNDERSCORE, TokenKind.EOF


class _Parser:
    """The cursor is an index into the lexer's parallel lists plus the
    current token's kind and lexeme.  A Span is built only for an AST
    node, from the offsets of its first and last token, and for a
    ParseError."""

    def __init__(self, tokens: Tokens, source_len: int):
        # The EOF sentinel ends the lists, so the cursor never runs off
        # them: nothing advances past EOF, and lookahead beyond the
        # current token only happens when that token is not EOF.
        self.kinds = tokens.kinds + [EOF]
        self.lexemes = tokens.lexemes + [""]
        self.starts = tokens.starts + [source_len]
        self.pos = 0
        self.kind = self.kinds[0]
        self.lexeme = self.lexemes[0]
        self.struct_names: set[str] = set()
        self.depth = 0

    def descend(self) -> int:
        """Open one more level of nesting; returns the depth to restore
        when the level closes."""
        depth = self.depth
        if depth > MAX_NESTING:
            here = self.span(self.pos, self.pos)
            raise ParseError(here, f"nesting too deep (limit {MAX_NESTING})")
        self.depth = depth + 1
        return depth

    # -- cursor helpers ----------------------------------------------------

    def end(self, i: int) -> int:
        """The end offset of token i."""
        return self.starts[i] + len(self.lexemes[i])

    def span(self, first: int, last: int) -> Span:
        """The span from the start of token first to the end of token last."""
        return Span(self.starts[first], self.starts[last] + len(self.lexemes[last]))

    def at(self, kind: TokenKind, lexeme: str) -> bool:
        return self.kind is kind and self.lexeme == lexeme

    def advance(self) -> int:
        """Step past the current token; returns its index."""
        i = self.pos
        self.pos = i + 1
        self.kind = self.kinds[i + 1]
        self.lexeme = self.lexemes[i + 1]
        return i

    def match(self, kind: TokenKind, lexeme: str) -> bool:
        if self.kind is kind and self.lexeme == lexeme:
            self.advance()
            return True
        return False

    def fail(self, what: str) -> ParseError:
        found = "end of input" if self.kind is EOF else f"'{self.lexeme}'"
        return ParseError(self.span(self.pos, self.pos), f"expected {what}, found {found}")

    def expect(self, kind: TokenKind, lexeme: str | None, what: str) -> int:
        """Step past a token of this kind and lexeme; returns its index."""
        if self.kind is kind and (lexeme is None or self.lexeme == lexeme):
            return self.advance()
        raise self.fail(what)

    # -- program and declarations ------------------------------------------

    def parse_program(self) -> Program:
        structs = []
        while self.at(KEYWORD, "struct"):
            structs.append(self.struct_decl())
            self.expect(KEYWORD, "in", "'in' after struct declaration")
        entry = self.expr()
        if self.kind is not EOF:
            raise self.fail("end of input")
        return Program(structs, entry)

    def struct_decl(self) -> StructDecl:
        start = self.expect(KEYWORD, "struct", "'struct'")
        name_at = self.expect(IDENT, None, "struct name")
        name = self.lexemes[name_at]
        if name in self.struct_names:
            raise ParseError(self.span(name_at, name_at), f"duplicate struct '{name}'")
        self.expect(PUNCT, "{", "'{'")
        fields: list[FieldDecl] = []
        seen: set[str] = set()
        if not self.at(PUNCT, "}"):
            while True:
                fields.append(self.field_decl(seen))
                if not self.match(PUNCT, ";"):
                    break
        end = self.expect(PUNCT, "}", "'}' or ';'")
        self.struct_names.add(name)
        return StructDecl(name, fields, self.span(start, end))

    def field_decl(self, seen: set[str]) -> FieldDecl:
        qual = self.lexeme
        if self.kind is not KEYWORD or qual not in ("var", "let"):
            raise self.fail("'var' or 'let' field")
        start = self.starts[self.advance()]
        name_at = self.expect(IDENT, None, "field name")
        name = self.lexemes[name_at]
        if name in seen:
            raise ParseError(self.span(name_at, name_at), f"duplicate field '{name}'")
        seen.add(name)
        self.expect(PUNCT, ":", "':'")
        te = self.type_expr()
        return FieldDecl(qual, name, te, Span(start, te.span.end))

    # -- types ---------------------------------------------------------------

    def type_expr(self) -> TypeExpr:
        depth = self.descend()
        kind = self.kind
        lexeme = self.lexeme
        first = self.pos
        if kind is IDENT:
            self.advance()
            te: TypeExpr = NamedTE(lexeme, self.span(first, first))
        elif kind is PUNCT and lexeme == "[":
            self.advance()
            elem = self.type_expr()
            end = self.expect(PUNCT, "]", "']'")
            te = ArrayTE(elem, self.span(first, end))
        elif kind is PUNCT and lexeme == "(":
            self.advance()
            params: list[tuple[str, TypeExpr]] = []
            if not self.at(PUNCT, ")"):
                while True:
                    passing = "inout" if self.match(KEYWORD, "inout") else "byValue"
                    params.append((passing, self.type_expr()))
                    if not self.match(PUNCT, ","):
                        break
            self.expect(PUNCT, ")", "')' or ','")
            self.expect(ARROW, None, "'->'")
            ret = self.type_expr()
            te = FuncTE(params, ret, Span(self.starts[first], ret.span.end))
        else:
            raise self.fail("a type")
        self.depth = depth
        return te

    # -- expressions ---------------------------------------------------------

    def expr(self) -> Expr:
        stmts: list[Binding | Assign] = []
        while True:
            if self.kind is KEYWORD and self.lexeme in ("var", "let"):
                stmts.append(self.binding())
                continue
            e = self.operand()
            if not self.at(OP, "="):
                return Chain(stmts, e, Span(stmts[0].span.start, e.span.end)) if stmts else e
            if not isinstance(e, Path):
                raise ParseError(self.span(self.pos, self.pos), "assignment target must be a path")
            self.advance()
            value = self.operand()
            self.expect(KEYWORD, "in", "'in' after assignment")
            stmts.append(Assign(e, value, Span(e.span.start, value.span.end)))

    def binding(self) -> Binding:
        qual = self.lexeme  # var or let
        start = self.starts[self.advance()]
        if self.kind is not IDENT and self.kind is not UNDERSCORE:
            raise self.fail("binding name")
        name = self.lexeme
        self.advance()
        annotation: TypeExpr | None = None
        if self.match(PUNCT, ":"):
            annotation = self.type_expr()
        if self.at(PUNCT, "{"):
            # Sugar for a zero-parameter function literal.
            if not isinstance(annotation, FuncTE) or annotation.params:
                raise self.fail("'='")
            open_brace = self.advance()
            fn_body = self.expr()
            end = self.expect(PUNCT, "}", "'}'")
            init: Expr = FuncLit([], annotation.ret, fn_body, self.span(open_brace, end))
        else:
            self.expect(OP, "=", "'='")
            init = self.operand()
        self.expect(KEYWORD, "in", "'in' after binding")
        return Binding(qual, name, annotation, init, Span(start, init.span.end))

    def operand(self) -> Expr:
        depth = self.depth  # descend(), inlined on this hot path
        if depth > MAX_NESTING:
            self.descend()
        self.depth = depth + 1
        if self.kind is KEYWORD and self.lexeme == "if":
            start = self.starts[self.advance()]
            cond = self.operand()
            self.expect(KEYWORD, "then", "'then'")
            then = self.operand()
            self.expect(KEYWORD, "else", "'else'")
            orelse = self.operand()
            self.depth = depth
            return Cond(cond, then, orelse, Span(start, orelse.span.end))
        e = self.postfix()
        op = self.lexeme
        prec = BINARY_PREC.get(op) if self.kind is OP else None
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
                ops.append((op, prec))
                operands.append(self.postfix())
                op = self.lexeme
                prec = BINARY_PREC.get(op) if self.kind is OP else None
                while ops and (prec is None or ops[-1][1] >= prec):
                    rhs = operands.pop()
                    lhs = operands.pop()
                    operands.append(
                        Binary(ops.pop()[0], lhs, rhs, Span(lhs.span.start, rhs.span.end))
                    )
            e = operands[0]
        self.depth = depth
        return e

    def postfix(self) -> Expr:
        e = self.primary()
        while self.kind is PUNCT:
            lexeme = self.lexeme
            if lexeme == "(":
                e = self.call(e)
            elif lexeme == "." or lexeme == "[":
                if not isinstance(e, Path):
                    what = "field access" if lexeme == "." else "indexing"
                    raise ParseError(self.span(self.pos, self.pos), f"{what} requires a path")
                self.accessors(e, e.span.start)
            else:
                break
        return e

    def path(self) -> Path:
        """Parse a path: the root name at the cursor and its run of
        accessors."""
        root = self.advance()
        if self.kind is PUNCT and (self.lexeme == "." or self.lexeme == "["):
            p = Path(self.lexemes[root])
            self.accessors(p, self.starts[root])
            return p
        return Path(self.lexemes[root], [], self.span(root, root))

    def accessors(self, p: Path, begin: int) -> None:
        """Parse the run of `.name` and `[operand]` accessors at the
        cursor, which is at a '.' or '[', onto the end of p, whose span
        starts at begin and ends with the run."""
        end = 0
        while self.kind is PUNCT:
            if self.lexeme == ".":
                start = self.starts[self.advance()]
                name_at = self.expect(IDENT, None, "field name")
                end = self.end(name_at)
                p.accessors.append(FieldAcc(self.lexemes[name_at], Span(start, end)))
            elif self.lexeme == "[":
                self.advance()
                idx = self.operand()
                end = self.end(self.expect(PUNCT, "]", "']'"))
                p.accessors.append(IndexAcc(idx, Span(idx.span.start, end)))
            else:
                break
        p.span = Span(begin, end)

    def call(self, callee: Expr) -> Call:
        args, end = self.arguments()
        return Call(callee, args, Span(callee.span.start, self.end(end)))

    def arguments(self) -> tuple[list[Expr | InoutArg], int]:
        """Parse a parenthesized argument list at the cursor; returns the
        arguments and the index of the closing ')'."""
        self.advance()  # the "("
        args: list[Expr | InoutArg] = []
        if not self.at(PUNCT, ")"):
            while True:
                if self.kind is AMP:
                    start = self.starts[self.advance()]
                    if self.kind is not IDENT and self.kind is not UNDERSCORE:
                        raise self.fail("a path after '&'")
                    p = self.path()
                    args.append(InoutArg(p, Span(start, p.span.end)))
                else:
                    args.append(self.operand())
                if not self.match(PUNCT, ","):
                    break
        return args, self.expect(PUNCT, ")", "')' or ','")

    def primary(self) -> Expr:
        kind = self.kind
        lexeme = self.lexeme
        first = self.pos
        if kind is IDENT and lexeme in self.struct_names and self.lexemes[first + 1] == "(":
            self.advance()
            args, end = self.arguments()
            for a in args:
                if isinstance(a, InoutArg):
                    raise ParseError(a.span, "inout argument in struct initializer")
            return StructInit(lexeme, args, self.span(first, end))
        if kind is IDENT or kind is UNDERSCORE:
            return self.path()
        if kind is INT:
            self.advance()
            digits = lexeme.lstrip("0") or "0"
            value = int(digits) if len(digits) <= _INT_MAX_DIGITS else _INT_MAX + 1
            if value > _INT_MAX:
                raise ParseError(self.span(first, first), "integer literal out of range")
            return IntLit(value, self.span(first, first))
        if kind is FLOAT:
            self.advance()
            value = float(lexeme)
            if value != value or value in (float("inf"), float("-inf")):
                raise ParseError(self.span(first, first), "float literal out of range")
            return FloatLit(value, self.span(first, first))
        if kind is PUNCT and lexeme == "[":
            self.advance()
            elements = [self.operand()]
            while self.match(PUNCT, ","):
                elements.append(self.operand())
            end = self.expect(PUNCT, "]", "']' or ','")
            return ArrayLit(elements, self.span(first, end))
        if kind is PUNCT and lexeme == "(":
            # Function literal when the parenthesis opens a parameter list
            # (empty, or IDENT ':'), otherwise a grouping.
            kinds, lexemes = self.kinds, self.lexemes
            if (kinds[first + 1] is PUNCT and lexemes[first + 1] == ")") or (
                kinds[first + 1] is IDENT
                and kinds[first + 2] is PUNCT
                and lexemes[first + 2] == ":"
            ):
                return self.func_lit()
            self.advance()
            inner = self.expr()
            self.expect(PUNCT, ")", "')'")
            return inner
        raise self.fail("an expression")

    def func_lit(self) -> FuncLit:
        depth = self.descend()
        start = self.expect(PUNCT, "(", "'('")
        params: list[Param] = []
        seen: set[str] = set()
        if not self.at(PUNCT, ")"):
            while True:
                name_at = self.expect(IDENT, None, "parameter name")
                name = self.lexemes[name_at]
                if name in seen:
                    raise ParseError(self.span(name_at, name_at), f"duplicate parameter '{name}'")
                seen.add(name)
                self.expect(PUNCT, ":", "':'")
                passing = "inout" if self.match(KEYWORD, "inout") else "byValue"
                te = self.type_expr()
                params.append(Param(name, passing, te, Span(self.starts[name_at], te.span.end)))
                if not self.match(PUNCT, ","):
                    break
        self.expect(PUNCT, ")", "')' or ','")
        self.expect(ARROW, None, "'->'")
        ret = self.type_expr()
        self.expect(PUNCT, "{", "'{'")
        body = self.expr()
        end = self.expect(PUNCT, "}", "'}'")
        self.depth = depth
        return FuncLit(params, ret, body, self.span(start, end))


def parse_program(tokens: Tokens, source_len: int) -> Program:
    """Parse the token stream that `tokenize` returns for a source of
    source_len characters into a Program; raises ParseError.  The
    end-of-input token sits at source_len."""
    return _Parser(tokens, source_len).parse_program()


def parse_source(source: str) -> Program:
    """Tokenize and parse source text."""
    return parse_program(tokenize(source), len(source))
