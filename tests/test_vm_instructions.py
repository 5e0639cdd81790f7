"""Instructions the VM executes on the benchmark's three workloads, pinned.

The count is deterministic, so it gates VM work without a timer.  It is
taken from outside the VM: VM.exec_block is wrapped with monkeypatch and
adds len(block) on each entry, which counts a block that traps part way
in full.  The VM keeps no counter of its own, since one add per block
entry would cost fib(16), which enters 7 984 blocks, about 5 % of its
execute time.

Each workload is built as perfbench/workloads.py builds it at seed 0 and
runs one execute pass of the optimized IR with copy-on-write on, as the
benchmark's execute_s does.  A change that alters what runs re-pins
EXPECTED with

    PYTHONPATH=src python tests/test_vm_instructions.py
"""

from mvsl import RuntimeTrap, apply_move_optimization, check_program, lower_program, parse_source
from mvsl import vm as vm_module
from mvsl.vm import execute

from conftest import workloads

# Before literals became constant operands and initializers were produced
# in their binding's slot: 30 341, 7 683 and 80 118.  Before lowering
# built every computed value in its destination: diff_sweep 52 604.
EXPECTED = {"fib_closure": 22356, "cow_inout": 4870, "diff_sweep": 52390}


RUN_BLOCK = vm_module.VM.exec_block


def instructions(name: str, patch=setattr) -> int:
    """Instructions run by one optimized execute pass of workload name at
    seed 0, counted by a wrapper that patch puts in place of exec_block."""
    n = 0

    def counted(self, block, frame):
        nonlocal n
        n += len(block)
        return RUN_BLOCK(self, block, frame)

    patch(vm_module.VM, "exec_block", counted)
    for inp in workloads.build(name, 0).inputs():
        ir = apply_move_optimization(lower_program(check_program(parse_source(inp.source))))
        try:
            execute(ir)
        except RuntimeTrap:
            pass
    return n


def test_executed_instructions_are_pinned(monkeypatch):
    seen = {name: instructions(name, monkeypatch.setattr) for name in EXPECTED}
    assert seen == EXPECTED
    assert seen["fib_closure"] <= 22356


if __name__ == "__main__":
    print(f"EXPECTED = {({name: instructions(name) for name in EXPECTED})!r}")
