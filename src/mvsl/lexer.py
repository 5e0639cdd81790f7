"""Lexer.

Tokens tile the input: each lexeme is the source text at its start
offset, and the gaps between consecutive tokens hold only whitespace
and // line comments.  Offsets index the decoded source text.

The token stream is three parallel lists held by one `Tokens`, one entry
per token: its kind, its lexeme and its start offset (its end is the
start plus the lexeme's length).  Lexing builds no object per token, and
the parser reads the lists by index.

One master regular expression does the scanning.  Each match is one
token, or whitespace or a comment, followed by any whitespace after it.
Comments are an alternative of their own, not part of a repeated prefix
of every token: a prefix like (?:ws|//...)* backtracks at end of input
and rescans a trailing comment as "/" operators.  The whitespace suffix
cannot backtrack, since nothing in the pattern follows it.
"""

from __future__ import annotations

import re

from .ast import TokenKind
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
# The same kinds by group number, as m.lastindex gives it: indexing a
# list is cheaper than looking m.lastgroup up in a dict.
_KIND_BY_GROUP = [None] + [
    _GROUP_KINDS[name] for name in sorted(_TOKEN.groupindex, key=_TOKEN.groupindex.__getitem__)
]
_WORD_KINDS = {kw: TokenKind.KEYWORD for kw in KEYWORDS} | {"_": TokenKind.UNDERSCORE}


class Tokens:
    """The token stream as three parallel lists, one entry per token:
    `kinds`, `lexemes` and `starts` (start offsets)."""

    __slots__ = ("kinds", "lexemes", "starts")

    def __init__(self, kinds: list[TokenKind], lexemes: list[str], starts: list[int]):
        self.kinds = kinds
        self.lexemes = lexemes
        self.starts = starts

    def __len__(self) -> int:
        return len(self.kinds)


def _unexpected(source: str, i: int) -> ParseError:
    return ParseError(Span(i, i + 1), f"unexpected character {source[i]!r}")


def tokenize(source: str) -> Tokens:
    """Split source into tokens, returned as the three parallel lists of
    one Tokens; raises ParseError on a bad character."""
    kinds: list[TokenKind] = []
    lexemes: list[str] = []
    starts: list[int] = []
    add_kind = kinds.append
    add_lexeme = lexemes.append
    add_start = starts.append
    kind_by_group = _KIND_BY_GROUP
    ident = TokenKind.IDENT
    pos = 0
    for m in _TOKEN.finditer(source):
        start = m.start()
        if start != pos:
            break  # nothing matched at pos
        pos = m.end()
        group = m.lastindex
        kind = kind_by_group[group]
        if kind is None:
            continue
        text = m.group(group)
        if kind is ident:
            # Only a non-ASCII start can be \w without being a letter.
            if text[0] > "\x7f" and not text[0].isalpha():
                raise _unexpected(source, start)
            kind = _WORD_KINDS.get(text, ident)
        add_kind(kind)
        add_lexeme(text)
        add_start(start)
    if pos != len(source):
        raise _unexpected(source, pos)
    return Tokens(kinds, lexemes, starts)
