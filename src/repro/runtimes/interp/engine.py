"""The interpretation engine behind the Wasm3 and WAMR runtime models.

Two phases, mirroring real interpreters:

* **prepare** (load time): one pass over each function body computes the
  static operand-stack height at every branch and resolves all structured
  labels to flat jump targets — the side tables WAMR's loader and Wasm3's
  "M3 code" translator build.  Its cost is charged to the CPU model.

* **execute**: a dispatch loop over the original instruction tuples.  Per
  instruction it charges: the dispatch *indirect branch* (from a
  per-instruction site in both models — Wasm3's threaded code and
  WAMR's pre-translated fast interpreter — so the two profiles differ
  in dispatch and handler cost, not in how dispatch predicts), the
  handler's instruction count, the handler's I-cache line, and two
  always-hitting L1D references for the operand stack.  Guest
  loads/stores additionally run through the full cache hierarchy at real
  linear-memory addresses, and guest conditional branches feed the
  conditional predictor, because the interpreter's ``br_if`` handler
  really does execute a data-dependent branch.

Finding 1/6/7/8's interpreter-side behavior (instruction blow-up, high
IPC, branch-miss profile) emerges from this structure rather than from
fitted constants.

The execute loop is also the warm-up tier of ``REPRO_SPEED=2``, as the
:class:`~repro.isa.machine.Machine` loop is for machine code: a hot
function runs as its :mod:`repro.speed.closures` closure, and a frame
that takes :data:`~repro.speed.modcache.HOT_BACKEDGES` backward
branches finishes in it by on-stack replacement (:meth:`Interpreter._osr`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ...errors import ReproError, Trap
from ...hw import CPUModel
from ...hw.config import RUNTIME_CODE_BASE
from ...isa import ops as mops
from ...isa import wasm_map
from ...isa.memory import LinearMemory
from ...wasm import Module
from ...wasm import opcodes as op
from ...wasm.module import KIND_FUNC, Function

# Load/store codecs keyed by *wasm* opcode.
_LOADC: Dict[int, tuple] = {}
for _wop, _mop in wasm_map.LOADS.items():
    _size, _fmt, _mask = mops.LOAD_CODEC[_mop]
    _LOADC[_wop] = (_size, struct.Struct("<" + _fmt).unpack_from, _mask)
_STOREC: Dict[int, tuple] = {}
for _wop, _mop in wasm_map.STORES.items():
    _size, _fmt, _mask = mops.STORE_CODEC[_mop]
    _STOREC[_wop] = (_size, struct.Struct("<" + _fmt).pack_into, _mask)

_BIN_FN = wasm_map.BIN_FN
_UN_FN = wasm_map.UN_FN

from ...speed import modcache as _modcache  # noqa: E402

_MAX_DEPTH = 1000

import sys as _sys

if _sys.getrecursionlimit() < _MAX_DEPTH * 6 + 200:
    _sys.setrecursionlimit(_MAX_DEPTH * 6 + 200)


# ---------------------------------------------------------------------------
# Cost profiles
# ---------------------------------------------------------------------------


def _default_handler_costs(base: int) -> List[int]:
    """Charged instructions per handler, by wasm opcode."""
    costs = [base + 4] * 256
    for o in range(op.I32_EQZ, op.F64_REINTERPRET_I64 + 1):
        costs[o] = base + 4          # ALU / compare / convert
    for o in (op.I32_CONST, op.I64_CONST, op.F32_CONST, op.F64_CONST,
              op.LOCAL_GET, op.LOCAL_SET, op.LOCAL_TEE, op.DROP, op.NOP,
              op.BLOCK, op.LOOP, op.END):
        costs[o] = base + 2
    for o in list(range(op.I32_LOAD, op.I64_STORE32 + 1)):
        costs[o] = base + 6          # address calc + bounds check + access
    for o in (op.GLOBAL_GET, op.GLOBAL_SET, op.SELECT):
        costs[o] = base + 3
    for o in (op.BR, op.BR_IF, op.IF, op.ELSE):
        costs[o] = base + 4
    costs[op.BR_TABLE] = base + 8
    costs[op.CALL] = base + 26       # frame setup / teardown
    costs[op.CALL_INDIRECT] = base + 34
    costs[op.RETURN] = base + 8
    costs[op.MEMORY_SIZE] = base + 3
    costs[op.MEMORY_GROW] = base + 60
    costs[op.UNREACHABLE] = base + 2
    return costs


@dataclass(frozen=True)
class InterpProfile:
    """What kind of interpreter this is (classic vs threaded-code)."""

    name: str
    dispatch_cost: int            # instructions per dispatch
    handler_base: int             # baseline handler instructions
    translate_cost_per_op: int    # load-time translation work
    code_bytes_per_op: int        # memory for the loaded/translated code

    def handler_costs(self) -> List[int]:
        return _default_handler_costs(self.handler_base)


CLASSIC_PROFILE = InterpProfile(
    name="classic", dispatch_cost=5, handler_base=6,
    translate_cost_per_op=14, code_bytes_per_op=12)

THREADED_PROFILE = InterpProfile(
    name="threaded", dispatch_cost=3, handler_base=4,
    translate_cost_per_op=36, code_bytes_per_op=20)


# ---------------------------------------------------------------------------
# Preparation (the loader pass)
# ---------------------------------------------------------------------------


@dataclass
class PreparedFunction:
    index: int
    name: str
    params: int
    results: int
    local_types: List[int]
    body: List[tuple]
    side: Dict[int, tuple]
    code_addr: int = 0


def _stack_effect(module: Module, ins: tuple) -> Tuple[int, int]:
    """(pops, pushes) for non-control instructions."""
    o = ins[0]
    sig = op.SIGNATURES.get(o)
    if sig is not None:
        return len(sig[0]), len(sig[1])
    if o == op.LOCAL_GET or o == op.GLOBAL_GET:
        return 0, 1
    if o == op.LOCAL_SET or o == op.GLOBAL_SET or o == op.DROP:
        return 1, 0
    if o == op.LOCAL_TEE:
        return 1, 1
    if o == op.SELECT:
        return 3, 1
    if o == op.CALL:
        ftype = module.func_type(ins[1])
        return len(ftype.params), len(ftype.results)
    if o == op.CALL_INDIRECT:
        ftype = module.types[ins[1]]
        return len(ftype.params) + 1, len(ftype.results)
    if o == op.NOP:
        return 0, 0
    raise ReproError(f"no stack effect for {op.name_of(o)}")


def prepare_function(module: Module, func: Function,
                     index: int) -> PreparedFunction:
    """Resolve structured control flow into flat jump side tables."""
    ftype = module.types[func.type_index]
    body = func.body
    n = len(body)
    side: Dict[int, tuple] = {}

    # Control stack entries:
    # [opcode, entry_height, arity, start_pc, else_pc, patch_list,
    #  entry_unreachable]
    func_arity = len(ftype.results)
    ctrl: List[list] = [[0, 0, func_arity, -1, -1, [], False]]
    height = 0
    unreachable = False

    for pc, ins in enumerate(body):
        o = ins[0]
        if o in (op.BLOCK, op.LOOP, op.IF):
            if o == op.IF and not unreachable:
                height -= 1
            arity = 0 if ins[1] == 0x40 else 1
            ctrl.append([o, height, arity, pc, -1, [], unreachable])
            if o == op.IF:
                side[pc] = None  # patched at ELSE/END
        elif o == op.ELSE:
            entry = ctrl[-1]
            entry[4] = pc
            height = entry[1]
            unreachable = entry[6]
            side[pc] = None  # patched at END: jump over else arm
        elif o == op.END:
            entry = ctrl.pop()
            eo, entry_height, arity, start_pc, else_pc, patches, \
                entry_unreachable = entry
            after = pc + 1
            if eo == op.IF:
                if else_pc >= 0:
                    side[start_pc] = ("if", else_pc + 1)
                    side[else_pc] = ("jump", after)
                else:
                    side[start_pc] = ("if", after)
            for patch_pc, patch_kind in patches:
                existing = side.get(patch_pc)
                if patch_kind == "single":
                    tgt, a, h = existing[1]
                    side[patch_pc] = (existing[0], (after, a, h))
                else:  # br_table entry: (list_index or -1 for default)
                    kind, targets, default = existing
                    if patch_kind == -1:
                        default = (after, default[1], default[2])
                    else:
                        targets = list(targets)
                        targets[patch_kind] = (after, targets[patch_kind][1],
                                               targets[patch_kind][2])
                    side[patch_pc] = (kind, targets, default)
            height = entry_height + arity
            unreachable = entry_unreachable
        elif o in (op.BR, op.BR_IF):
            if o == op.BR_IF and not unreachable:
                height -= 1
            depth = ins[1]
            target = _branch_target(ctrl, depth, pc, side,
                                    "brif" if o == op.BR_IF else "br",
                                    n, unreachable)
            if o == op.BR:
                unreachable = True
        elif o == op.BR_TABLE:
            if not unreachable:
                height -= 1
            labels, default_depth = ins[1], ins[2]
            entries = []
            for k, depth in enumerate(labels):
                entries.append(_table_target(ctrl, depth, pc, k, n,
                                             unreachable, height))
            default = _table_target(ctrl, default_depth, pc, -1, n,
                                    unreachable, height)
            side[pc] = ("brtab", entries, default)
            # register patches
            for k, depth in enumerate(labels):
                _register_table_patch(ctrl, depth, pc, k)
            _register_table_patch(ctrl, default_depth, pc, -1)
            unreachable = True
        elif o == op.RETURN:
            side[pc] = ("return",)
            unreachable = True
        elif o == op.UNREACHABLE:
            unreachable = True
        else:
            if not unreachable:
                pops, pushes = _stack_effect(module, ins)
                height += pushes - pops

    local_types = list(ftype.params) + func.local_types()
    return PreparedFunction(index=index, name=func.name or f"f{index}",
                            params=len(ftype.params),
                            results=func_arity,
                            local_types=local_types, body=body, side=side)


def _branch_target(ctrl: List[list], depth: int, pc: int,
                   side: Dict[int, tuple], kind: str, body_len: int,
                   unreachable: bool) -> None:
    if depth >= len(ctrl):
        depth = len(ctrl) - 1
    entry = ctrl[-1 - depth]
    eo, entry_height, arity, start_pc = entry[0], entry[1], entry[2], entry[3]
    if eo == op.LOOP:
        side[pc] = (kind, (start_pc + 1, 0, entry_height))
    elif eo == 0:
        # Branch to the function label == return.
        side[pc] = (kind, (body_len, arity, entry_height))
    else:
        side[pc] = (kind, (-1, arity, entry_height))  # patched at END
        entry[5].append((pc, "single"))


def _table_target(ctrl: List[list], depth: int, pc: int, k: int,
                  body_len: int, unreachable: bool,
                  height: int) -> tuple:
    if depth >= len(ctrl):
        depth = len(ctrl) - 1
    entry = ctrl[-1 - depth]
    eo, entry_height, arity, start_pc = entry[0], entry[1], entry[2], entry[3]
    if eo == op.LOOP:
        return (start_pc + 1, 0, entry_height)
    if eo == 0:
        return (body_len, arity, entry_height)
    return (-1, arity, entry_height)


def _register_table_patch(ctrl: List[list], depth: int, pc: int,
                          k: int) -> None:
    if depth >= len(ctrl):
        depth = len(ctrl) - 1
    entry = ctrl[-1 - depth]
    if entry[0] not in (op.LOOP, 0):
        entry[5].append((pc, k))


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class Interpreter:
    """Executes prepared functions against an environment."""

    def __init__(self, profile: InterpProfile, cpu: CPUModel,
                 memory: LinearMemory, globals_: List,
                 table: List[int], functions: List,
                 handler_costs: Optional[List[int]] = None):
        self.profile = profile
        self.cpu = cpu
        self.memory = memory
        self.globals = globals_
        self.table = table
        # functions: list of ("host", callable, n_params) or
        # ("wasm", PreparedFunction)
        self.functions = functions
        self.hcost = handler_costs or profile.handler_costs()
        self._depth = 0
        # Optional observer called as (func_index, pc, addr, size, is_store)
        # before every linear-memory access.  Used by the analysis test
        # suite as a ground-truth oracle for the static range analysis;
        # never set during normal runs.
        self.trace_memory = None
        # Optional observer called as (func_index, opcode, stack_len)
        # at every dispatch of the reference loop.  The static auditor
        # uses it to measure the executed opcode mix and the observed
        # operand-stack depth; like trace_memory it keeps every frame in
        # this loop (closures do not replay per-op dispatch).
        self.opcode_profile = None
        # Tier-2 lazy closure table (repro.speed.modcache.LazyClosures):
        # with no observer attached, a hot function runs as its closure,
        # and a looping frame moves into it by on-stack replacement.
        self.closure_code = None
        # The closures' shared model bindings and helpers, built at the
        # first closure call (closure_context).
        self._ctx = None
        # Handler code addresses: one cache line per opcode handler.
        shift = cpu.caches.line_shift
        self.handler_line = [
            (RUNTIME_CODE_BASE >> shift) + o * 2 for o in range(256)]

    def call(self, func_entry, args: Sequence):
        kind = func_entry[0]
        if kind == "host":
            return func_entry[1](self.memory, *args)
        return self._exec(func_entry[1], list(args))

    def call_index(self, index: int, args: Sequence):
        return self.call(self.functions[index], args)

    def _exec(self, func: PreparedFunction, args: List):
        self._depth += 1
        if self._depth > _MAX_DEPTH:
            self._depth -= 1
            raise Trap("call stack exhausted")
        try:
            return self._run(func, args)
        finally:
            self._depth -= 1

    def _run(self, func: PreparedFunction, args: List):
        code = self.closure_code
        if code is not None and self.trace_memory is None \
                and self.opcode_profile is None:
            fn = code.get(func.index)
            if fn is not None:
                return fn(self, args)
        return self._run_ref(func, args)

    def closure_context(self) -> tuple:
        """The model bindings and slow-path helpers every closure of
        this interpreter unpacks at entry (:func:`repro.speed.closures.
        context`), built once."""
        if self._ctx is None:
            from ...speed.closures import context
            self._ctx = context(self)
        return self._ctx

    def _osr(self, func: PreparedFunction, locals_: List, stack: List,
             pc: int, instr: int, stall: int):
        """Flush a loop frame's pending counts and finish the frame in
        the function's closure, entered at the loop header ``pc``
        (on-stack replacement)."""
        counters = self.cpu.counters
        counters.instructions += instr
        counters.stall_cycles += stall
        fn = self.closure_code.compile(func.index)
        return fn(self, locals_, stack, fn.osr_blocks[pc])

    def _run_ref(self, func: PreparedFunction, args: List):
        body = func.body
        side = func.side
        n = len(body)
        locals_ = args + [0.0 if t in (0x7D, 0x7C) else 0
                          for t in func.local_types[len(args):]]
        stack: List = []
        push = stack.append
        pop = stack.pop

        cpu = self.cpu
        counters = cpu.counters
        branches = cpu.branches
        indirect = branches.indirect_branch
        cond_branch = branches.cond_branch
        l1d = counters.l1d
        l1i_access = cpu.caches.l1i.access_line
        line_shift = cpu.caches.line_shift
        guest_line_base = 0x1000_0000 >> line_shift
        hcost = self.hcost
        hline = self.handler_line
        dispatch_cost = self.profile.dispatch_cost
        mem = self.memory
        globals_ = self.globals
        trace = self.trace_memory
        profile = self.opcode_profile
        func_tag = (func.index & 0x3FF) << 20
        stall = 0
        instr = 0
        # Tier 2 with no observer: the frame moves into its closure at
        # its HOT_BACKEDGES-th taken backward branch (never when 0).
        backedges = 0
        osr_at = _modcache.HOT_BACKEDGES if (
            self.closure_code is not None and trace is None
            and profile is None) else 0

        pc = 0
        while pc < n:
            ins = body[pc]
            o = ins[0]
            if profile is not None:
                profile(func.index, o, len(stack))
            # --- the interpreter's own footprint ---
            instr += dispatch_cost + hcost[o]
            # Dispatch indirect branch.  Both modeled interpreters
            # pre-translate and dispatch from per-location sites (Wasm3's
            # threaded code; WAMR's fast-interpreter design); prediction
            # quality is then set by whether the hot bytecode footprint
            # fits the BTB — tiny kernels predict near-perfectly, a chess
            # engine's search core thrashes it (paper Table 5).
            indirect(func_tag | pc, o)
            l1d.refs += 2                      # operand-stack traffic (L1 hit)
            stall += l1i_access(hline[o])

            # --- guest semantics ---
            if o == op.LOCAL_GET:
                push(locals_[ins[1]])
            elif o == op.I32_CONST or o == op.I64_CONST \
                    or o == op.F32_CONST or o == op.F64_CONST:
                push(ins[1] if o > op.I64_CONST else ins[1] &
                     (0xFFFFFFFF if o == op.I32_CONST
                      else 0xFFFFFFFFFFFFFFFF))
            elif o in _BIN_FN:
                b = pop()
                a = pop()
                try:
                    push(_BIN_FN[o](a, b))
                except Trap:
                    counters.instructions += instr
                    counters.stall_cycles += stall
                    raise
            elif o == op.LOCAL_SET:
                locals_[ins[1]] = pop()
            elif o == op.LOCAL_TEE:
                locals_[ins[1]] = stack[-1]
            elif o in _UN_FN:
                try:
                    stack[-1] = _UN_FN[o](stack[-1])
                except Trap:
                    counters.instructions += instr
                    counters.stall_cycles += stall
                    raise
            elif o in _LOADC:
                size, unpack, mask = _LOADC[o]
                addr = pop() + ins[2]
                if trace is not None:
                    trace(func.index, pc, addr, size, False)
                if addr + size > mem.size:
                    counters.instructions += instr
                    counters.stall_cycles += stall
                    raise Trap("out of bounds memory access",
                               f"{func.name}: load at {addr}")
                value = unpack(mem.data, addr)[0]
                push((value & mask) if mask else value)
                stall += cpu.caches.l1d.access_line(
                    guest_line_base + (addr >> line_shift))
            elif o in _STOREC:
                size, pack, mask = _STOREC[o]
                value = pop()
                addr = pop() + ins[2]
                if trace is not None:
                    trace(func.index, pc, addr, size, True)
                if addr + size > mem.size:
                    counters.instructions += instr
                    counters.stall_cycles += stall
                    raise Trap("out of bounds memory access",
                               f"{func.name}: store at {addr}")
                pack(mem.data, addr, (value & mask) if mask else value)
                mem.touched.add(addr >> 12)
                stall += cpu.caches.l1d.access_line(
                    guest_line_base + (addr >> line_shift))
            elif o == op.BR_IF:
                cond = pop()
                kind, target = side[pc][0], side[pc][1]
                cond_branch(func_tag | pc, bool(cond))
                if cond:
                    tgt, arity, hgt = target
                    if arity:
                        vals = stack[-arity:]
                        del stack[hgt:]
                        stack.extend(vals)
                    else:
                        del stack[hgt:]
                    if tgt <= pc:
                        backedges += 1
                        if backedges == osr_at:
                            return self._osr(func, locals_, stack, tgt,
                                             instr, stall)
                    pc = tgt
                    continue
            elif o == op.BR:
                tgt, arity, hgt = side[pc][1]
                if arity:
                    vals = stack[-arity:]
                    del stack[hgt:]
                    stack.extend(vals)
                else:
                    del stack[hgt:]
                if tgt <= pc:
                    backedges += 1
                    if backedges == osr_at:
                        return self._osr(func, locals_, stack, tgt, instr,
                                         stall)
                pc = tgt
                continue
            elif o == op.IF:
                cond = pop()
                cond_branch(func_tag | pc, not cond)
                if not cond:
                    pc = side[pc][1]
                    continue
            elif o == op.ELSE:
                pc = side[pc][1]
                continue
            elif o == op.BLOCK or o == op.LOOP or o == op.END or o == op.NOP:
                pass
            elif o == op.CALL:
                counters.instructions += instr
                counters.stall_cycles += stall
                instr = 0
                stall = 0
                callee = self.functions[ins[1]]
                branches.call(func_tag | pc)
                if callee[0] == "host":
                    n_args = callee[2]
                    call_args = stack[len(stack) - n_args:] if n_args else []
                    del stack[len(stack) - n_args:]
                    result = callee[1](mem, *call_args)
                else:
                    prepared = callee[1]
                    n_args = prepared.params
                    call_args = stack[len(stack) - n_args:] if n_args else []
                    del stack[len(stack) - n_args:]
                    result = self._exec(prepared, call_args)
                branches.ret(func_tag | pc)
                if result is not None:
                    push(result)
            elif o == op.CALL_INDIRECT:
                counters.instructions += instr
                counters.stall_cycles += stall
                instr = 0
                stall = 0
                elem_index = pop()
                if not 0 <= elem_index < len(self.table):
                    raise Trap("undefined element")
                callee_index = self.table[elem_index]
                if callee_index < 0:
                    raise Trap("uninitialized element")
                callee = self.functions[callee_index]
                expected = self._sig_of_type_index(ins[1])
                actual = self._sig_of_callee(callee)
                if expected != actual:
                    raise Trap("indirect call type mismatch")
                indirect(func_tag | pc | 0x8000_0000, callee_index)
                if callee[0] == "host":
                    n_args = callee[2]
                else:
                    n_args = callee[1].params
                call_args = stack[len(stack) - n_args:] if n_args else []
                del stack[len(stack) - n_args:]
                branches.call(func_tag | pc)
                if callee[0] == "host":
                    result = callee[1](mem, *call_args)
                else:
                    result = self._exec(callee[1], call_args)
                branches.ret(func_tag | pc)
                if result is not None:
                    push(result)
            elif o == op.GLOBAL_GET:
                push(globals_[ins[1]])
                l1d.refs += 1
            elif o == op.GLOBAL_SET:
                globals_[ins[1]] = pop()
                l1d.refs += 1
            elif o == op.DROP:
                pop()
            elif o == op.SELECT:
                c = pop()
                b = pop()
                a = pop()
                push(a if c else b)
            elif o == op.BR_TABLE:
                index = pop()
                kind, entries, default = side[pc]
                target = entries[index] if index < len(entries) else default
                indirect(func_tag | pc, target[0])
                tgt, arity, hgt = target
                if arity:
                    vals = stack[-arity:]
                    del stack[hgt:]
                    stack.extend(vals)
                else:
                    del stack[hgt:]
                if tgt <= pc:
                    backedges += 1
                    if backedges == osr_at:
                        return self._osr(func, locals_, stack, tgt, instr,
                                         stall)
                pc = tgt
                continue
            elif o == op.RETURN:
                break
            elif o == op.MEMORY_SIZE:
                push(mem.pages)
            elif o == op.MEMORY_GROW:
                counters.instructions += 200
                push(mem.grow(pop()) & 0xFFFFFFFF)
            elif o == op.UNREACHABLE:
                counters.instructions += instr
                counters.stall_cycles += stall
                raise Trap("unreachable")
            else:  # pragma: no cover - exhaustive over the MVP set
                raise ReproError(f"interpreter: unhandled opcode "
                                 f"{op.name_of(o)}")
            pc += 1

        counters.instructions += instr
        counters.stall_cycles += stall
        if func.results:
            return stack[-1] if stack else 0
        return None

    # -- signature identity for call_indirect ----------------------------

    def set_signatures(self, module: Module) -> None:
        self._module_types = module.types
        self._func_sigs = {}
        for idx in range(module.num_funcs):
            self._func_sigs[idx] = module.func_type(idx)

    def _sig_of_type_index(self, type_index: int):
        return self._module_types[type_index]

    def _sig_of_callee(self, callee) -> object:
        if callee[0] == "host":
            return callee[3]
        return self._func_sigs[callee[1].index]
