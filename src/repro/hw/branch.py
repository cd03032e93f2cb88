"""Branch prediction model.

Three structures, mirroring a modern front end:

* **gshare** for conditional branches: a table of 2-bit saturating counters
  indexed by PC xor a global taken/not-taken history register.
* a **two-component indirect target predictor** for computed jumps (the
  interpreter dispatch path, ``call_indirect``, jump tables): a
  BTB-capacity per-site table plus a target-history-indexed table, an
  ITTAGE-style hybrid.  Per-site prediction handles threaded code (each
  site has a fixed successor) *until the hot code footprint exceeds the
  table and aliasing sets in* — which is exactly how a big irregular
  bytecode like a chess engine defeats the BTB while small numeric kernels
  stay near-perfect (the paper's Table 5 gnuchess anomaly).  The
  history-indexed component captures repeating opcode *sequences* for
  single-site (switch / computed-goto) dispatch.
* a **return address stack** so call/return pairs predict near-perfectly.

The predictor *counts* branches and mispredicts into a
:class:`~repro.hw.counters.PerfCounters`; the caller adds the pipeline
penalty to stall cycles.
"""

from __future__ import annotations

from .config import BranchConfig
from .counters import PerfCounters


class BranchPredictor:
    """Conditional + indirect + return-address prediction."""

    __slots__ = ("config", "counters", "penalty", "_gshare", "_gshare_mask",
                 "_history", "_history_mask", "_btb", "_itc", "_meta",
                 "_itc_mask", "_target_history", "_ras", "_ras_depth")

    def __init__(self, config: BranchConfig, counters: PerfCounters):
        self.config = config
        self.counters = counters
        self.penalty = config.miss_penalty
        # gshare state: 2-bit counters initialized weakly not-taken
        self._gshare = bytearray(b"\x01" * (1 << config.gshare_bits))
        self._gshare_mask = (1 << config.gshare_bits) - 1
        self._history = 0
        self._history_mask = (1 << config.history_bits) - 1
        # indirect target predictor: per-site BTB + history-indexed table
        # (None: no target yet) and a per-site chooser counter, all
        # indexed by a masked site or history
        entries = 1 << config.indirect_bits
        self._btb = [None] * entries
        self._itc = [None] * entries
        self._meta = [1] * entries
        self._itc_mask = entries - 1
        self._target_history = 0
        # return address stack
        self._ras = []
        self._ras_depth = config.ras_depth

    # -- conditional branches ---------------------------------------------

    def cond_branch(self, pc: int, taken: bool) -> bool:
        """Predict+update a conditional branch; returns True on mispredict."""
        c = self.counters
        c.branches += 1
        index = (pc ^ self._history) & self._gshare_mask
        counter = self._gshare[index]
        predicted_taken = counter >= 2
        if taken:
            if counter < 3:
                self._gshare[index] = counter + 1
        else:
            if counter > 0:
                self._gshare[index] = counter - 1
        self._history = ((self._history << 1) | (1 if taken else 0)) \
            & self._history_mask
        if predicted_taken != taken:
            c.branch_misses += 1
            c.stall_cycles += self.penalty
            return True
        return False

    # -- unconditional direct branches/calls -------------------------------

    def direct_branch(self) -> None:
        """Direct jumps and calls: counted, never mispredicted."""
        self.counters.branches += 1

    # -- indirect branches ----------------------------------------------

    def indirect_branch(self, pc: int, target: int) -> bool:
        """Predict+update an indirect branch; returns True on mispredict."""
        c = self.counters
        c.branches += 1
        mask = self._itc_mask
        site_index = pc & mask
        # The history component is indexed by the recent-target path only,
        # so it can capture repeating *sequences* but cannot act as a
        # second site table for aliased sites.
        history = self._target_history
        hist_index = history & mask
        site_pred = self._btb[site_index]
        hist_pred = self._itc[hist_index]
        if site_pred == target and hist_pred == target:
            # Steady state (dominant in loops): both components already
            # predict this target, so the chooser update rules leave meta
            # untouched and both table writes are idempotent — only the
            # target history advances, and the branch hits.
            self._target_history = ((history << 4) ^ target) & mask
            return False
        # Chooser: a per-site 2-bit counter selects the component, as in
        # real hybrid indirect predictors.
        meta = self._meta[site_index]
        predicted = hist_pred if meta >= 2 else site_pred
        site_ok = target == site_pred
        hist_ok = target == hist_pred
        if hist_ok and not site_ok and meta < 3:
            self._meta[site_index] = meta + 1
        elif site_ok and not hist_ok and meta > 0:
            self._meta[site_index] = meta - 1
        self._btb[site_index] = target
        self._itc[hist_index] = target
        self._target_history = ((history << 4) ^ target) & mask
        if predicted == target:
            return False
        c.branch_misses += 1
        c.stall_cycles += self.penalty
        return True

    # -- calls and returns -----------------------------------------------

    def call(self, return_pc: int) -> None:
        """A direct call: push the return address, always predicted."""
        self.counters.branches += 1
        if len(self._ras) >= self._ras_depth:
            del self._ras[0]
        self._ras.append(return_pc)

    def ret(self, target_pc: int) -> bool:
        """A return; mispredicts only on RAS underflow/overflow damage."""
        c = self.counters
        c.branches += 1
        predicted = self._ras.pop() if self._ras else None
        if predicted != target_pc:
            c.branch_misses += 1
            c.stall_cycles += self.penalty
            return True
        return False
