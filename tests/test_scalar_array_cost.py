"""An array of Ints or Floats is copied, freed and printed in one step.

Each operation of the VM and of the oracle that walks an array's elements
runs under sys.settrace, as in test_linearity.py, on an array of N
elements and on one of 2N, and the line events executed inside src/mvsl
are counted.  An array whose elements are all exact ints, or all exact
floats, is handled by C-level builtins (a type scan, a slice, a join), so
the two counts must be equal: any Python step per element shows as a
difference.  The difference is pinned, not the counts, since line events
differ between CPython versions.
"""

import math

import pytest

from mvsl import oracle
from mvsl.vm import VM, Block, format_value

from conftest import line_events, lower_source

N = 64


def ints(n: int) -> list:
    return [i * 7 - n for i in range(n)]


def floats(n: int) -> list:
    return [-0.0, math.nan, math.inf] + [i * 0.5 for i in range(n - 3)]


def vm_copy(elems: list):
    """copy_value without copy-on-write: one fresh block."""
    vm = VM(lower_source("0"), cow=False, debug=False)
    block = Block(elems)
    n, copy = line_events(vm.copy_value, block)
    assert copy is not block and copy.elems is not elems and copy.elems == elems
    assert (vm.stats.deep_copies, vm.stats.allocs) == (1, 1)
    return n


def vm_cow_dup(elems: list):
    """cow_dup of a block with two references."""
    vm = VM(lower_source("0"), cow=True, debug=False)
    block = Block(elems)
    block.r = 2
    n, copy = line_events(vm.cow_dup, block)
    assert copy.elems is not elems and copy.elems == elems and block.r == 1
    assert (vm.stats.cow_copies, vm.stats.allocs, vm.stats.releases) == (1, 1, 1)
    return n


def vm_destroy(elems: list):
    """destroy_value of a block's last reference."""
    vm = VM(lower_source("0"), cow=False, debug=False)
    block = Block(elems)
    n, _ = line_events(vm.destroy_value, block)
    assert block.r == 0 and vm.stats.frees == 1
    return n


def vm_format(elems: list):
    n, text = line_events(format_value, Block(elems))
    assert text == oracle.render(elems)
    return n


def oracle_copy(elems: list):
    n, copy = line_events(oracle.deep_copy, elems)
    assert copy is not elems and copy == elems
    return n


def oracle_render(elems: list):
    n, text = line_events(oracle.render, elems)
    assert text.count(", ") == len(elems) - 1
    return n


@pytest.mark.parametrize("make", [ints, floats])
@pytest.mark.parametrize(
    "operation", [vm_copy, vm_cow_dup, vm_destroy, vm_format, oracle_copy, oracle_render]
)
def test_scalar_array_cost_does_not_grow_with_length(operation, make):
    assert operation(make(2 * N)) - operation(make(N)) == 0
