"""The bytecode interpreter.

Design constraints, in order:

1. **Determinism.**  Given the same snapshot and the same input journal,
   execution is bit-identical.  The only sanctioned nondeterminism is
   the RAND opcode, whose entropy source is deliberately *not* part of
   snapshots (it models timing/environment nondeterminism; the runtime
   reseeds it per execution attempt).
2. **Faithful memory physics.**  Every LOAD/STORE goes through the
   simulated heap; MALLOC/FREE go through the allocator extension with
   a multi-level call-site; faults carry the faulting instruction.
3. **Interpreter speed.**  The dispatch loop avoids attribute lookups
   where it matters; experiments execute tens of millions of
   instructions.

The machine never raises :class:`SimulatedFault` out of :meth:`run`;
it catches the fault, freezes, and returns a :class:`RunResult` --
that catch *is* the cheapest error monitor the paper describes
(exceptions raised from the kernel).  Host errors still propagate.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Optional

from repro.errors import (
    AssertionFailure,
    DivisionByZeroFault,
    SimulatedFault,
)
from repro.heap.base import Memory
from repro.heap.extension import AllocatorExtension, ExtensionMode
from repro.util.callsite import CallSite, interned
from repro.util.rng import DeterministicRNG
from repro.util.simclock import CostModel, SimClock
from repro.vm import isa
from repro.vm.compile import TIER_REFERENCE, TIERS, bind_program
from repro.vm.io import OutputLog, ReplayableInput
from repro.vm.program import Program
from repro.vm.state import Frame, MachineSnapshot

_MASK64 = (1 << 64) - 1


class VMInstruments:
    """The machine's telemetry counters, batch-flushed.

    The dispatch loop tallies instruction and heap-access counts in
    plain locals and flushes them here only at run/stop boundaries
    (exactly like the clock-charging batching), so telemetry adds no
    per-instruction Python calls; with telemetry disabled the machine
    holds no instruments at all.
    """

    __slots__ = ("instructions", "heap_reads", "heap_writes")

    def __init__(self, registry):
        self.instructions = registry.counter("vm.instructions")
        self.heap_reads = registry.counter("vm.heap_reads")
        self.heap_writes = registry.counter("vm.heap_writes")

    def flush(self, instrs: int, reads: int, writes: int) -> None:
        self.instructions.inc(instrs)
        if reads:
            self.heap_reads.inc(reads)
        if writes:
            self.heap_writes.inc(writes)


class RunReason(Enum):
    HALT = "halt"                  # program executed HALT or main returned
    STOP = "stop"                  # reached the requested instruction count
    INPUT_EXHAUSTED = "input"      # IN found no more live input
    FAULT = "fault"                # a SimulatedFault occurred


class RunResult:
    __slots__ = ("reason", "fault")

    def __init__(self, reason: RunReason,
                 fault: Optional[SimulatedFault] = None):
        self.reason = reason
        self.fault = fault

    def __repr__(self) -> str:
        if self.fault is not None:
            return f"RunResult({self.reason.value}, {self.fault.describe()})"
        return f"RunResult({self.reason.value})"


class Machine:
    """One simulated process."""

    def __init__(self, program: Program, mem: Memory,
                 extension: AllocatorExtension,
                 input_stream: Optional[ReplayableInput] = None,
                 output: Optional[OutputLog] = None,
                 clock: Optional[SimClock] = None,
                 costs: Optional[CostModel] = None,
                 entropy_seed: int = 1,
                 tier: str = TIER_REFERENCE):
        if tier not in TIERS:
            raise ValueError(f"unknown vm tier {tier!r} "
                             f"(expected one of {TIERS})")
        self.program = program
        self.mem = mem
        self.extension = extension
        self.input = (input_stream if input_stream is not None
                      else ReplayableInput())
        self.output = output if output is not None else OutputLog()
        self.clock = clock or SimClock()
        self.costs = costs or CostModel()
        self.entropy = DeterministicRNG(entropy_seed)
        self.trace_accesses = False
        self.tier = tier
        #: Set by attach_metrics(); None keeps the hot path untouched.
        self.vm_metrics: Optional[VMInstruments] = None
        #: Compiled-tier batching: sim-time and telemetry accumulated
        #: across block closures, charged/flushed at run exits (the
        #: same discipline the reference loop keeps in locals).
        self._pending = 0
        self._reads = 0
        self._writes = 0
        self._jit_unit = None
        #: The extension's watch_index() for the current traced
        #: compiled run (read by block prologues under trace).
        self._watch = None

        entry = program.entry
        self.frames: List[Frame] = [
            Frame(entry, 0, [0] * entry.n_locals, None)]
        self.globals: List[int] = [0] * program.n_globals
        self.instr_count = 0
        self.halted = False
        self.fault: Optional[SimulatedFault] = None

    def attach_metrics(self, registry) -> None:
        """Register the VM's counters against an *enabled* registry;
        a disabled registry leaves the machine uninstrumented."""
        self.vm_metrics = (VMInstruments(registry)
                           if getattr(registry, "enabled", False) else None)

    # ------------------------------------------------------------------
    # call-site capture
    # ------------------------------------------------------------------

    def current_callsite(self, pc: int) -> CallSite:
        """Multi-level call-site for the instruction at ``pc`` in the
        innermost frame: (this function, pc) plus up to two caller
        return addresses (``CallSite.DEPTH`` is 3)."""
        frames = self.frames
        if len(frames) >= 3:
            caller, outer = frames[-2], frames[-3]
            key = ((frames[-1].func.name, pc),
                   (caller.func.name, caller.pc),
                   (outer.func.name, outer.pc))
        elif len(frames) == 2:
            caller = frames[0]
            key = ((frames[1].func.name, pc),
                   (caller.func.name, caller.pc))
        else:
            key = ((frames[0].func.name, pc),)
        site = interned(key)
        if site is None:
            site = CallSite.intern(key)
        return site

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(self, stop_at: Optional[int] = None,
            max_steps: Optional[int] = None) -> RunResult:
        """Execute until HALT, fault, input exhaustion, or a stop point.

        ``stop_at`` is an absolute ``instr_count`` at which to pause
        (the checkpoint manager's boundary); ``max_steps`` is a relative
        budget on this call.

        Dispatches to the tier selected at construction: the reference
        interpreter, or the template-JIT compiled tier
        (:mod:`repro.vm.compile`), which is observably identical and
        exists purely to make the thousands of re-executions a recovery
        performs cheap.
        """
        if self.fault is not None:
            return RunResult(RunReason.FAULT, self.fault)
        if self.halted:
            return RunResult(RunReason.HALT)

        if max_steps is not None:
            budget_stop = self.instr_count + max_steps
            stop_at = (budget_stop if stop_at is None
                       else min(stop_at, budget_stop))

        if self.tier == TIER_REFERENCE:
            return self._run_reference(stop_at)
        return self._run_compiled(stop_at)

    def _finish_run(self, pending_ns: int, entry_count: int,
                    n_reads: int, n_writes: int) -> None:
        """The one exit sequence every run path funnels through:
        charge batched sim-time, flush batched telemetry."""
        if pending_ns:
            self.clock.charge(pending_ns)
        if self.vm_metrics is not None:
            self.vm_metrics.flush(self.instr_count - entry_count,
                                  n_reads, n_writes)

    def _run_reference(self, stop_at: Optional[int],
                       pending_ns: int = 0) -> RunResult:
        """The reference interpreter.  ``pending_ns`` is instruction
        time already batched but not yet charged (a compiled run
        handing its tail over), which stays batched here too."""
        mem = self.mem
        clock = self.clock
        instr_ns = self.costs.instr_ns
        frames = self.frames
        glb = self.globals
        ext = self.extension
        # trace_accesses only changes between runs, never during one,
        # so the flag (and the extension it gates) hoists out of the
        # per-instruction path.
        trace = self.trace_accesses
        # Per-instruction time is accumulated locally and charged in
        # bulk at run/stop boundaries and before any operation that
        # reads the clock: a clock.charge() attribute call on every one
        # of tens of millions of instructions is pure dispatch
        # overhead, and the clock value is only *observed* at OUT,
        # MALLOC/FREE (extension bookkeeping), and run exits.
        # Telemetry counters batch the same way: locals in the loop,
        # one flush per exit.  tel is False whenever no registry is
        # attached, so the disabled path adds no calls.
        vm_metrics = self.vm_metrics
        tel = vm_metrics is not None
        entry_count = self.instr_count
        n_reads = 0
        n_writes = 0

        while True:
            if stop_at is not None and self.instr_count >= stop_at:
                self._finish_run(pending_ns, entry_count,
                                 n_reads, n_writes)
                return RunResult(RunReason.STOP)
            frame = frames[-1]
            # No bounds check: Program.finalize appends a sentinel RET
            # to every function that can fall through, so pc is always
            # in range.
            pc = frame.pc
            instr = frame.func.code[pc]
            op = instr[0]
            frame.pc = pc + 1
            self.instr_count += 1
            pending_ns += instr_ns
            loc = frame.locals

            try:
                if op == isa.LOAD:
                    addr = loc[instr[2]] + instr[3]
                    if trace:
                        ext.note_access(
                            addr, instr[4], False, (frame.func.name, pc))
                    loc[instr[1]] = mem.read_uint(addr, instr[4])
                    if tel:
                        n_reads += 1
                elif op == isa.STORE:
                    addr = loc[instr[1]] + instr[2]
                    if trace:
                        ext.note_access(
                            addr, instr[3], True, (frame.func.name, pc))
                    mem.write_uint(addr, instr[3], loc[instr[4]])
                    if tel:
                        n_writes += 1
                elif op == isa.CONST:
                    loc[instr[1]] = instr[2] & _MASK64
                elif op == isa.MOV:
                    loc[instr[1]] = loc[instr[2]]
                elif op == isa.ADD:
                    loc[instr[1]] = (loc[instr[2]] + loc[instr[3]]) & _MASK64
                elif op == isa.ADDI:
                    loc[instr[1]] = (loc[instr[2]] + instr[3]) & _MASK64
                elif op == isa.SUB:
                    loc[instr[1]] = (loc[instr[2]] - loc[instr[3]]) & _MASK64
                elif op == isa.MUL:
                    loc[instr[1]] = (loc[instr[2]] * loc[instr[3]]) & _MASK64
                elif op == isa.DIV:
                    d = loc[instr[3]]
                    if d == 0:
                        raise DivisionByZeroFault("division by zero")
                    loc[instr[1]] = loc[instr[2]] // d
                elif op == isa.MOD:
                    d = loc[instr[3]]
                    if d == 0:
                        raise DivisionByZeroFault("modulo by zero")
                    loc[instr[1]] = loc[instr[2]] % d
                elif op == isa.AND:
                    loc[instr[1]] = loc[instr[2]] & loc[instr[3]]
                elif op == isa.OR:
                    loc[instr[1]] = loc[instr[2]] | loc[instr[3]]
                elif op == isa.XOR:
                    loc[instr[1]] = loc[instr[2]] ^ loc[instr[3]]
                elif op == isa.SHL:
                    loc[instr[1]] = (loc[instr[2]]
                                     << (loc[instr[3]] & 63)) & _MASK64
                elif op == isa.SHR:
                    loc[instr[1]] = loc[instr[2]] >> (loc[instr[3]] & 63)
                elif op == isa.LT:
                    loc[instr[1]] = 1 if loc[instr[2]] < loc[instr[3]] else 0
                elif op == isa.LE:
                    loc[instr[1]] = 1 if loc[instr[2]] <= loc[instr[3]] else 0
                elif op == isa.GT:
                    loc[instr[1]] = 1 if loc[instr[2]] > loc[instr[3]] else 0
                elif op == isa.GE:
                    loc[instr[1]] = 1 if loc[instr[2]] >= loc[instr[3]] else 0
                elif op == isa.EQ:
                    loc[instr[1]] = 1 if loc[instr[2]] == loc[instr[3]] else 0
                elif op == isa.NE:
                    loc[instr[1]] = 1 if loc[instr[2]] != loc[instr[3]] else 0
                elif op == isa.NOT:
                    loc[instr[1]] = 1 if loc[instr[2]] == 0 else 0
                elif op == isa.NEG:
                    loc[instr[1]] = (-loc[instr[2]]) & _MASK64
                elif op == isa.JMP:
                    frame.pc = instr[1]
                elif op == isa.JZ:
                    if loc[instr[1]] == 0:
                        frame.pc = instr[2]
                elif op == isa.JNZ:
                    if loc[instr[1]] != 0:
                        frame.pc = instr[2]
                elif op == isa.CALL:
                    callee = self.program.functions[instr[2]]
                    new_locals = [0] * callee.n_locals
                    for i, slot in enumerate(instr[3]):
                        new_locals[i] = loc[slot]
                    frames.append(Frame(callee, 0, new_locals, instr[1]))
                elif op == isa.RET:
                    value = 0 if instr[1] is None else loc[instr[1]]
                    finished = frames.pop()
                    if not frames:
                        self.halted = True
                        self._finish_run(pending_ns, entry_count,
                                         n_reads, n_writes)
                        return RunResult(RunReason.HALT)
                    if finished.ret_dst is not None:
                        frames[-1].locals[finished.ret_dst] = value
                elif op == isa.MALLOC:
                    clock.charge(pending_ns + self.costs.alloc_ns)
                    pending_ns = 0
                    site = (None if ext.mode is ExtensionMode.OFF
                            else self.current_callsite(pc))
                    loc[instr[1]] = ext.malloc(loc[instr[2]], site)
                elif op == isa.FREE:
                    clock.charge(pending_ns + self.costs.alloc_ns)
                    pending_ns = 0
                    site = (None if ext.mode is ExtensionMode.OFF
                            else self.current_callsite(pc))
                    ext.free(loc[instr[1]], site)
                elif op == isa.MEMSET:
                    addr, val, ln = (loc[instr[1]], loc[instr[2]],
                                     loc[instr[3]])
                    if ln:
                        if trace:
                            ext.note_access(
                                addr, ln, True, (frame.func.name, pc))
                        mem.fill(addr, val & 0xFF, ln)
                        clock.charge(self.costs.fill_cost(ln))
                        if tel:
                            n_writes += 1
                elif op == isa.MEMCPY:
                    dst, src, ln = (loc[instr[1]], loc[instr[2]],
                                    loc[instr[3]])
                    if ln:
                        if trace:
                            iid = (frame.func.name, pc)
                            ext.note_access(src, ln, False, iid)
                            ext.note_access(dst, ln, True, iid)
                        mem.copy_within(dst, src, ln)
                        clock.charge(self.costs.fill_cost(ln))
                        if tel:
                            n_reads += 1
                            n_writes += 1
                elif op == isa.IN:
                    token = self.input.next()
                    if token is None:
                        # Rewind so a later feed()+run() re-executes IN.
                        # The rewound IN is excluded from the charge as
                        # well as the count: it never executed, so its
                        # instr_ns stays out of sim time and the flushed
                        # telemetry matches instr_count exactly.
                        frame.pc = pc
                        self.instr_count -= 1
                        self._finish_run(pending_ns - instr_ns,
                                         entry_count, n_reads, n_writes)
                        return RunResult(RunReason.INPUT_EXHAUSTED)
                    loc[instr[1]] = token & _MASK64
                elif op == isa.OUT:
                    if pending_ns:
                        clock.charge(pending_ns)
                        pending_ns = 0
                    self.output.emit(clock.now_ns, loc[instr[1]])
                elif op == isa.ASSERT:
                    if loc[instr[1]] == 0:
                        raise AssertionFailure(instr[2] or "assertion failed")
                elif op == isa.HALT:
                    self.halted = True
                    self._finish_run(pending_ns, entry_count,
                                     n_reads, n_writes)
                    return RunResult(RunReason.HALT)
                elif op == isa.GLOAD:
                    loc[instr[1]] = glb[instr[2]]
                elif op == isa.GSTORE:
                    glb[instr[1]] = loc[instr[2]]
                elif op == isa.RAND:
                    loc[instr[1]] = self.entropy.next_u64()
                elif op == isa.NOP:
                    pass
                else:  # pragma: no cover - finalize() rejects these
                    raise SimulatedFault(f"illegal opcode {op}")
            except SimulatedFault as fault:
                self._finish_run(pending_ns, entry_count,
                                 n_reads, n_writes)
                fault.instr_id = (frame.func.name, pc)
                self.fault = fault
                return RunResult(RunReason.FAULT, fault)

    # ------------------------------------------------------------------
    # compiled tier
    # ------------------------------------------------------------------

    def _compiled_exit(self, entry_count: int) -> None:
        """Charge and flush the batched state block closures left in
        ``_pending``/``_reads``/``_writes`` (the compiled analogue of
        the reference loop's exit sequence)."""
        self._finish_run(self._pending, entry_count,
                         self._reads, self._writes)
        self._pending = 0
        self._reads = 0
        self._writes = 0

    def _run_compiled(self, stop_at: Optional[int]) -> RunResult:
        if self._jit_unit is None:
            self._jit_unit = bind_program(self.program)
        frames = self.frames
        entry_count = self.instr_count
        self._pending = 0
        self._reads = 0
        self._writes = 0
        if self.trace_accesses:
            self._watch = self.extension.watch_index(self.clock)

        while True:
            if stop_at is not None and self.instr_count >= stop_at:
                self._compiled_exit(entry_count)
                return RunResult(RunReason.STOP)
            frame = frames[-1]
            jit = frame.func.jit
            block = jit.blocks.get(frame.pc)
            if block is None:
                block = jit.compile_block(frame.pc)
            code = block(self, frame, stop_at)
            if code == 0:
                continue
            if code == 4:
                # The remaining budget is smaller than this block: the
                # reference loop steps the tail with per-instruction
                # stop precision.  Telemetry flushes now; the batched
                # instruction time stays batched, as it would in a
                # reference run, so an observation in the tail (a
                # traced access's flight-recorder timestamp) reads the
                # clock the reference tier would.
                pending = self._pending
                self._pending = 0
                self._compiled_exit(entry_count)
                return self._run_reference(stop_at, pending)
            self._compiled_exit(entry_count)
            if code == 1:
                return RunResult(RunReason.HALT)
            if code == 2:
                return RunResult(RunReason.FAULT, self.fault)
            return RunResult(RunReason.INPUT_EXHAUSTED)

    # ------------------------------------------------------------------
    # snapshot / restore (machine part only)
    # ------------------------------------------------------------------

    def snapshot(self) -> MachineSnapshot:
        return MachineSnapshot(self.frames, self.globals, self.instr_count,
                               self.halted, self.input.snapshot(),
                               self.output.snapshot())

    def restore(self, snap: MachineSnapshot) -> None:
        self.frames = snap.restore_frames()
        self.globals = list(snap.globals)
        self.instr_count = snap.instr_count
        self.halted = snap.halted
        self.fault = None
        self.input.restore(snap.input_cursor)
        self.output.restore(snap.output_length)
