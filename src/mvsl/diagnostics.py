"""Source spans and the error hierarchy shared by every pipeline stage.

All user-facing failures are subclasses of SourceError and carry a span
into the original source text.  render() produces the single diagnostic
format used everywhere:

    <line>:<col>: error[<code>]: <message>

Line and column are 1-based and computed lazily from the span's start
offset, so constructing an error never needs the source at hand.
"""

from __future__ import annotations


class Span:
    """Half-open offset range [start, end) into the source text.

    A plain slot class, since one is built per AST node.
    It compares, hashes and prints by value.  It must stay hashable: the
    AST and IR dataclasses use NO_SPAN as a field default, and
    @dataclass rejects an unhashable default as mutable.
    """

    __slots__ = ("start", "end")

    def __init__(self, start: int, end: int):
        self.start = start
        self.end = end

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Span:
            return NotImplemented
        return self.start == other.start and self.end == other.end

    def __hash__(self) -> int:
        return hash((self.start, self.end))

    def __repr__(self) -> str:
        return f"Span(start={self.start!r}, end={self.end!r})"


# Placeholder for nodes built programmatically rather than parsed.
NO_SPAN = Span(0, 0)


def line_col(source: str, offset: int) -> tuple[int, int]:
    """1-based (line, column) of an offset into source."""
    offset = min(offset, len(source))
    prefix = source[:offset]
    line = prefix.count("\n") + 1
    col = offset - prefix.rfind("\n")
    return line, col


class SourceError(Exception):
    """Base class for diagnostics anchored to a source span."""

    def __init__(self, span: Span, code: str, message: str):
        super().__init__(message)
        self.span = span
        self.code = code
        self.message = message

    def render(self, source: str) -> str:
        line, col = line_col(source, self.span.start)
        return f"{line}:{col}: error[{self.code}]: {self.message}"


class ParseError(SourceError):
    """Lexical or syntactic error.  The code is always "Syntax"."""

    def __init__(self, span: Span, message: str):
        super().__init__(span, "Syntax", message)


class TypeCheckError(SourceError):
    """Static semantic error.

    The code is one of: UnboundName, TypeMismatch, ImmutableTarget,
    ArityMismatch, InvalidInoutArgument, OverlappingInout,
    RecursiveStruct, WildcardRead.
    """


class RuntimeTrap(SourceError):
    """Deterministic runtime failure.

    The code names the trap kind: IndexOutOfBounds, OverlapViolation,
    IntegerOverflow, or DivisionByZero.  Traps map to exit code 2 in
    the command line driver.
    """

    def render(self, source: str) -> str:
        line, col = line_col(source, self.span.start)
        return f"{line}:{col}: trap[{self.code}]: {self.message}"


class UsageError(Exception):
    """Bad command line invocation.  Maps to exit code 4."""
