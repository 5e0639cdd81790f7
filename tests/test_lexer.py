import dataclasses
import gc
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvsl import ParseError, Span, parse_program, parse_source, tokenize
from mvsl.ast import Path, TokenKind

import workloads
from bench import count_nodes
from conftest import lexable_corpus_sources


def kinds(source):
    return tokenize(source).kinds


def lexemes(source):
    return tokenize(source).lexemes


def test_binding_tokens():
    toks = tokenize("var x: Int = 4 in x")
    assert toks.lexemes == ["var", "x", ":", "Int", "=", "4", "in", "x"]
    assert toks.starts == [0, 4, 5, 7, 11, 13, 15, 18]
    assert toks.kinds[0] == TokenKind.KEYWORD
    assert toks.kinds[1] == TokenKind.IDENT
    assert toks.kinds[5] == TokenKind.INT
    assert toks.kinds[6] == TokenKind.KEYWORD


def test_inout_argument_tokens():
    toks = tokenize("&p.fs")
    assert list(zip(toks.kinds, toks.lexemes)) == [
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
    assert kinds("1.5") == [TokenKind.FLOAT]
    # "1." lexes as an int then a dot; the parser rejects it later.
    assert kinds("1.x") == [
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
    for source in ("// only a comment", ""):
        toks = tokenize(source)
        assert len(toks) == 0
        assert (toks.kinds, toks.lexemes, toks.starts) == ([], [], [])


def test_wildcard_token():
    assert kinds("_ = f(x)")[0] == TokenKind.UNDERSCORE
    # but an underscore inside an identifier is part of the name
    assert kinds("a_b") == [TokenKind.IDENT]


def test_spans_cover_lexemes_exactly():
    # Tiling: spans are strictly increasing, each one covers its lexeme,
    # and every gap holds only whitespace or comments.
    for name, source in lexable_corpus_sources():
        toks = tokenize(source)
        assert len(toks) == len(toks.kinds) == len(toks.lexemes) == len(toks.starts), name
        pos = 0
        for lexeme, start in zip(toks.lexemes, toks.starts):
            end = start + len(lexeme)
            assert start < end, name
            assert start >= pos, name
            assert source[start:end] == lexeme, name
            gap = source[pos:start]
            assert all(c in " \t\r\n" for c in gap) or "//" in gap, name
            pos = end


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
        assert len(toks) == len(toks.kinds) == len(toks.lexemes) == len(toks.starts)
        pos = 0
        for lexeme, start in zip(toks.lexemes, toks.starts):
            end = start + len(lexeme)
            assert pos <= start < end
            assert source[start:end] == lexeme
            assert _GAP.fullmatch(source, pos, start)
            pos = end
        assert _LAST_GAP.fullmatch(source, pos)
    try:
        parse_source(source)
    except ParseError:
        pass


def _live(cls) -> int:
    return sum(1 for o in gc.get_objects() if o.__class__ is cls)


def test_front_end_builds_no_object_per_token():
    # Counts, not times: lexing a 256-element array literal builds no
    # Span, and parsing builds at most one Span per AST node (the
    # benchmark's parser.nodes).
    source = workloads.cow_source(list(range(256)))
    gc.collect()
    spans_before = _live(Span)
    toks = tokenize(source)
    assert len(toks) > 256 * 2
    assert _live(Span) == spans_before
    program = parse_program(toks, len(source))
    assert _live(Span) - spans_before <= count_nodes(program)


def _spanned_nodes(program) -> list:
    """The tree's nodes that keep a span, with its accessors."""
    nodes, stack = [], [program]
    while stack:
        x = stack.pop()
        if isinstance(x, (list, tuple)):
            stack.extend(x)
        elif dataclasses.is_dataclass(x) and type(x).__module__ == "mvsl.ast":
            if hasattr(x, "span"):
                nodes.append(x)
            stack.extend(getattr(x, f.name) for f in dataclasses.fields(x) if f.compare)
    return nodes


def test_parser_builds_one_span_per_node(monkeypatch):
    # A path's span is built once, after its run of accessors: none is
    # built for the root alone and then replaced.  (A struct
    # initializer's callee and the root of `(a).b` still build one that
    # is dropped, so the program has neither.)
    source = """
        struct P { var a: [Int]; var f: Int } in
        struct S { var p: P; var ps: [P] } in
        let inc: (inout Int) -> Int = (x: inout Int) -> Int { x = x + 1 in x } in
        (s: inout S, k: Int) -> Int {
            s.p.a[k] = s.ps[k].a[0] + inc(&s.ps[k].f) in
            s.p.f = inc(&s.p.a[s.p.f - 3]) in
            s.ps[0].a[k] + s.p.f
        }
    """
    toks = tokenize(source)
    built = []
    init = Span.__init__

    def counting_init(self, start, end):
        built.append(self)
        init(self, start, end)

    monkeypatch.setattr(Span, "__init__", counting_init)
    program = parse_program(toks, len(source))
    monkeypatch.undo()
    nodes = _spanned_nodes(program)
    assert sum(isinstance(n, Path) and len(n.accessors) > 1 for n in nodes) >= 8
    assert len(built) == len(nodes)
    assert {id(s) for s in built} == {id(n.span) for n in nodes}
