import pytest

from mvsl import ParseError, tokenize
from mvsl.ast import TokenKind

from conftest import lexable_corpus_sources


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
