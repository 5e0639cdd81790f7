"""Lexer.

Tokens tile the input: every token's span covers its lexeme exactly and
the gaps between consecutive tokens hold only whitespace and // line
comments.  Offsets index the decoded source text.

One master regular expression does the scanning.  Each match is one
token, or whitespace or a comment, followed by any whitespace after it.
Comments are an alternative of their own, not part of a repeated prefix
of every token: a prefix like (?:ws|//...)* backtracks at end of input
and rescans a trailing comment as "/" operators.  The whitespace suffix
cannot backtrack, since nothing in the pattern follows it.
"""

from __future__ import annotations

import re

from .ast import Token, TokenKind
from .diagnostics import ParseError, Span

KEYWORDS = frozenset({"var", "let", "struct", "in", "inout", "if", "then", "else"})

# Alternatives are tried in order at each offset, so "//" is a comment
# before "/" is an operator, "->" an arrow before "-", "==" one operator
# before two "=", and a float before the integer part it starts with.
# Numbers are ASCII only: str.isdigit and \d also accept "²" and "٣".
# A word is \w+ (str.isalnum or "_") and may not start with an ASCII
# digit; tokenize also rejects the start characters that are \w but not
# str.isalpha, such as "²".
_TOKEN = re.compile(
    r"""
    (?:
      (?P<skip>[ \t\r\n]+|//[^\n]*)
    | (?P<word>[^\W0-9]\w*)
    | (?P<float>[0-9]+\.[0-9]+)
    | (?P<int>[0-9]+)
    | (?P<arrow>->)
    | (?P<amp>&)
    | (?P<op>[=!<>]=|[-+*/%<>=])
    | (?P<punct>[(){}\[\],;:.])
    )
    [ \t\r\n]*
    """,
    re.VERBOSE,
)

_GROUP_KINDS = {
    "skip": None,
    "word": TokenKind.IDENT,
    "float": TokenKind.FLOAT,
    "int": TokenKind.INT,
    "arrow": TokenKind.ARROW,
    "amp": TokenKind.AMP,
    "op": TokenKind.OP,
    "punct": TokenKind.PUNCT,
}
_WORD_KINDS = {kw: TokenKind.KEYWORD for kw in KEYWORDS} | {"_": TokenKind.UNDERSCORE}


def _unexpected(source: str, i: int) -> ParseError:
    return ParseError(Span(i, i + 1), f"unexpected character {source[i]!r}")


def tokenize(source: str) -> list[Token]:
    """Split source into tokens; raises ParseError on a bad character."""
    tokens: list[Token] = []
    append = tokens.append
    ident = TokenKind.IDENT
    pos = 0
    for m in _TOKEN.finditer(source):
        start = m.start()
        if start != pos:
            break  # nothing matched at pos
        pos = m.end()
        group = m.lastgroup
        kind = _GROUP_KINDS[group]
        if kind is None:
            continue
        text = m.group(group)
        if kind is ident:
            # Only a non-ASCII start can be \w without being a letter.
            if text[0] > "\x7f" and not text[0].isalpha():
                raise _unexpected(source, start)
            kind = _WORD_KINDS.get(text, ident)
        append(Token(kind, text, Span(start, start + len(text))))
    if pos != len(source):
        raise _unexpected(source, pos)
    return tokens
