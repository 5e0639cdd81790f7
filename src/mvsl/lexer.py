"""Lexer.

Tokens tile the input: every token's span covers its lexeme exactly and
the gaps between consecutive tokens hold only whitespace and // line
comments.  Offsets index the decoded source text.
"""

from __future__ import annotations

from .ast import Token, TokenKind
from .diagnostics import ParseError, Span

KEYWORDS = frozenset({"var", "let", "struct", "in", "inout", "if", "then", "else"})

_PUNCT = frozenset("(){}[],;:.")
# ASCII only: str.isdigit also accepts characters such as "²" and "٣".
_DIGITS = frozenset("0123456789")
# Two-character operators first so == is not read as two = tokens.
_TWO_CHAR_OPS = ("==", "!=", "<=", ">=")
_ONE_CHAR_OPS = frozenset("+-*/%<>=")


def _is_ident_start(c: str) -> bool:
    return c.isalpha() or c == "_"


def _is_ident_char(c: str) -> bool:
    return c.isalnum() or c == "_"


def tokenize(source: str) -> list[Token]:
    """Split source into tokens; raises ParseError on a bad character."""
    tokens: list[Token] = []
    i = 0
    n = len(source)
    while i < n:
        c = source[i]
        if c in " \t\r\n":
            i += 1
            continue
        if c == "/" and source.startswith("//", i):
            nl = source.find("\n", i)
            i = n if nl < 0 else nl + 1
            continue
        start = i
        if _is_ident_start(c):
            while i < n and _is_ident_char(source[i]):
                i += 1
            text = source[start:i]
            if text == "_":
                kind = TokenKind.UNDERSCORE
            elif text in KEYWORDS:
                kind = TokenKind.KEYWORD
            else:
                kind = TokenKind.IDENT
            tokens.append(Token(kind, text, Span(start, i)))
            continue
        if c in _DIGITS:
            while i < n and source[i] in _DIGITS:
                i += 1
            # A float needs a digit on both sides of the dot; otherwise the
            # dot is left for the next token (field access on literals is a
            # parse error anyway).
            if i + 1 < n and source[i] == "." and source[i + 1] in _DIGITS:
                i += 1
                while i < n and source[i] in _DIGITS:
                    i += 1
                tokens.append(Token(TokenKind.FLOAT, source[start:i], Span(start, i)))
            else:
                tokens.append(Token(TokenKind.INT, source[start:i], Span(start, i)))
            continue
        if source.startswith("->", i):
            tokens.append(Token(TokenKind.ARROW, "->", Span(i, i + 2)))
            i += 2
            continue
        if c == "&":
            tokens.append(Token(TokenKind.AMP, "&", Span(i, i + 1)))
            i += 1
            continue
        two = source[i : i + 2]
        if two in _TWO_CHAR_OPS:
            tokens.append(Token(TokenKind.OP, two, Span(i, i + 2)))
            i += 2
            continue
        if c in _ONE_CHAR_OPS:
            tokens.append(Token(TokenKind.OP, c, Span(i, i + 1)))
            i += 1
            continue
        if c in _PUNCT:
            tokens.append(Token(TokenKind.PUNCT, c, Span(i, i + 1)))
            i += 1
            continue
        raise ParseError(Span(i, i + 1), f"unexpected character {c!r}")
    return tokens
