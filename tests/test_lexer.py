import gc
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsl import ParseError, Span, parse_program, parse_source, tokenize
from mvsl.ast import Token, TokenKind

import workloads
from bench import count_nodes
from conftest import corpus_sources, lexable_corpus_sources


def kinds(source):
    return [t.kind for t in tokenize(source)]


def lexemes(source):
    return [t.lexeme for t in tokenize(source)]


def test_binding_tokens():
    toks = tokenize("var x: Int = 4 in x")
    assert [t.lexeme for t in toks] == ["var", "x", ":", "Int", "=", "4", "in", "x"]
    assert toks[0].kind == TokenKind.KEYWORD
    assert toks[1].kind == TokenKind.IDENT
    assert toks[5].kind == TokenKind.INT
    assert toks[6].kind == TokenKind.KEYWORD


def test_inout_argument_tokens():
    toks = tokenize("&p.fs")
    assert [(t.kind, t.lexeme) for t in toks] == [
        (TokenKind.AMP, "&"),
        (TokenKind.IDENT, "p"),
        (TokenKind.PUNCT, "."),
        (TokenKind.IDENT, "fs"),
    ]


def test_bad_character_position():
    with pytest.raises(ParseError) as e:
        tokenize("4 @ 2")
    assert e.value.span.start == 2


def test_two_char_operators_not_split():
    assert lexemes("a == b != c <= d >= e") == ["a", "==", "b", "!=", "c", "<=", "d", ">=", "e"]


def test_arrow_is_not_minus():
    assert lexemes("() -> Int") == ["(", ")", "->", "Int"]
    assert lexemes("a - b") == ["a", "-", "b"]


def test_float_needs_digits_both_sides():
    assert [t.kind for t in tokenize("1.5")] == [TokenKind.FLOAT]
    # "1." lexes as an int then a dot; the parser rejects it later.
    assert [t.kind for t in tokenize("1.x")] == [
        TokenKind.INT,
        TokenKind.PUNCT,
        TokenKind.IDENT,
    ]


@pytest.mark.parametrize("source, start", [("\u00b2", 0), ("1\u0663", 1), ("1.\u0663", 2)])
def test_only_ascii_digits_form_numbers(source, start):
    # "²" and "٣" satisfy str.isdigit, and int() would read "1٣" as 13.
    with pytest.raises(ParseError) as e:
        tokenize(source)
    assert e.value.span.start == start


def test_comments_and_whitespace_skipped():
    assert lexemes("x // trailing comment\n  y") == ["x", "y"]
    assert tokenize("// only a comment") == []
    assert tokenize("") == []


def test_wildcard_token():
    toks = tokenize("_ = f(x)")
    assert toks[0].kind == TokenKind.UNDERSCORE
    # but an underscore inside an identifier is part of the name
    assert tokenize("a_b")[0].kind == TokenKind.IDENT


def test_spans_cover_lexemes_exactly():
    # Tiling: spans are strictly increasing, each one covers its lexeme,
    # and every gap holds only whitespace or comments.
    for name, source in lexable_corpus_sources():
        toks = tokenize(source)
        pos = 0
        for t in toks:
            assert t.span.start < t.span.end, name
            assert t.span.start >= pos, name
            assert source[t.span.start : t.span.end] == t.lexeme, name
            gap = source[pos : t.span.start]
            assert all(c in " \t\r\n" for c in gap) or "//" in gap, name
            pos = t.span.end


# The language's characters and keywords, plus non-ASCII letters and
# digits; comment openers and line ends are repeated so that most drawn
# texts mix comments with tokens.
_PIECES = list("abxyz_0179 \t(){}[],;:.+-*/%<>=!&") + [
    "²", "٣", "é", "->", "==", "1.5", "var", "let", "in", "if", "then",
    "else", "struct", "inout",
] + ["//", "\r", "\n"] * 5  # fmt: skip
_GAP = re.compile(r"(?:[ \t\r\n]|//[^\n]*\n)*")
_LAST_GAP = re.compile(r"(?:[ \t\r\n]|//[^\n]*\n)*(?://[^\n]*)?")


@settings(deadline=None, max_examples=300)
@given(
    pieces=st.lists(st.sampled_from(_PIECES), max_size=40),
    tail=st.sampled_from(["", "//", "// comment at end of input"]),
)
def test_tokens_tile_any_input(pieces, tail):
    # Either tokenize rejects the text, or each lexeme is its source slice
    # and the gaps hold only whitespace and comments; a comment only ends
    # a gap at a newline or at the end of the input.  Nothing but
    # ParseError ever escapes the front end.
    source = "".join(pieces) + tail
    try:
        toks = tokenize(source)
    except ParseError:
        pass
    else:
        pos = 0
        for t in toks:
            assert pos <= t.span.start < t.span.end
            assert source[t.span.start : t.span.end] == t.lexeme
            assert _GAP.fullmatch(source, pos, t.span.start)
            pos = t.span.end
        assert _LAST_GAP.fullmatch(source, pos)
    try:
        parse_source(source)
    except ParseError:
        pass


def test_tokens_is_a_sequence_of_token():
    toks = tokenize("var x: Int = 4 in x")
    listed = list(toks)
    assert len(toks) == len(listed) == 8
    assert toks[-1] == listed[7] == Token(TokenKind.IDENT, "x", Span(18, 19))
    assert toks[-8] == toks[0] == Token(TokenKind.KEYWORD, "var", Span(0, 3))
    for bad in (8, -9):
        with pytest.raises(IndexError):
            toks[bad]
    assert toks[1:3] == listed[1:3]
    assert toks[::-3] == listed[::-3]
    assert toks[5:2] == []
    assert toks == listed and listed == toks
    assert toks != listed[:-1] and toks != listed[::-1]
    assert list(reversed(toks)) == listed[::-1]


def test_parsing_a_token_list_gives_the_same_tree():
    # parse_program takes a list of Token as well as what tokenize returns.
    def outcome(tokens, n):
        try:
            return repr(parse_program(tokens, n))
        except ParseError as e:
            return repr((e.message, e.span))

    for name, source in corpus_sources():
        try:
            toks = tokenize(source)
        except ParseError:
            continue
        n = len(source)
        assert outcome(list(toks), n) == outcome(toks, n), name
        assert outcome(list(toks), 0) == outcome(toks, 0), name


def _live(cls) -> int:
    return sum(1 for o in gc.get_objects() if o.__class__ is cls)


def test_front_end_builds_no_object_per_token():
    # Counts, not times: lexing a 256-element array literal builds no
    # Token or Span, and parsing builds at most one Span per AST node
    # (the benchmark's parser.nodes).
    source = workloads.cow_source(list(range(256)))
    gc.collect()
    tokens_before, spans_before = _live(Token), _live(Span)
    toks = tokenize(source)
    assert len(toks) > 256 * 2
    assert (_live(Token) - tokens_before, _live(Span) - spans_before) == (0, 0)
    program = parse_program(toks, len(source))
    assert _live(Span) - spans_before <= count_nodes(program)
    assert _live(Token) == tokens_before
