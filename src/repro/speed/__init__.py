"""repro.speed — the fast-path execution layer.

Everything in this package is about *wall clock*, never about the model:
the modeled counters, traps, stdout and trace files produced with the
speed layer enabled are byte-identical to the reference implementation
(tests/test_speed.py, tests/test_closures.py and
tests/test_machine_closures.py enforce this; PERFORMANCE.md documents
the contract).  The reference loops — ``Interpreter._run_ref`` for Wasm
and the :class:`~repro.isa.machine.Machine` loop for machine code — are
tier 2's warm-up tier; four techniques make the rest fast:

* **closure compilation** (:mod:`repro.speed.closures`) — compile a
  hot Wasm function into one ``exec``-compiled Python closure: a
  template JIT *of the model itself* that specializes opcode dispatch
  away entirely.  A function is hot after
  :data:`~repro.speed.modcache.HOT_CALLS` calls, or when one reference
  loop frame of it takes :data:`~repro.speed.modcache.HOT_BACKEDGES`
  backward branches (that frame then moves into the closure by
  on-stack replacement).
* **predecode + fuse** (:mod:`repro.speed.predecode`) — the closure
  generator's input: a function body translated into a flat
  tuple-of-constants form, with superinstruction fusion for the
  dominant sequences; only a function being compiled is predecoded.
* **machine closures** (:mod:`repro.speed.mclosures`) — the same for
  the machine code of native, JIT and AOT runs: the
  :class:`~repro.isa.machine.Machine` loop is the warm-up tier, and a
  machine function is compiled once the instructions its loop frames
  retired reach :data:`HOT_WORK` times its length (checked at call
  entry, and at loop back-edges, where the frame moves over by
  on-stack replacement).
* **decoded-module caching** (:mod:`repro.speed.modcache`) — decoded,
  validated and prepared module forms are shared across engines and
  runs in-process.  Nothing in this package outlives the process.

Both closure tiers compile through one process-wide code memo
(:func:`compiled`), keyed by the SHA-256 digest of the generated
source.  The generators keep everything module-specific out of the
source (a Wasm closure's function name and tag are bound when its code
is ``exec``-ed), so the same function body in another module, or at
another function index, binds code that is already compiled.

The layer is tiered via ``REPRO_SPEED`` (or :func:`set_tier`):

=====  ==========================================================
tier   meaning
=====  ==========================================================
``0``  reference implementations only (the escape hatch)
``2``  reference loops until hot, then closures (default)
=====  ==========================================================

Any other value is rejected with a one-line :class:`HarnessError` the
first time the layer is consulted — a typo must never silently pick a
tier.
"""

from __future__ import annotations

import hashlib
import math
import os
import weakref
from collections import OrderedDict
from typing import Dict, List, Optional

from ..errors import HarnessError

#: The tiers `REPRO_SPEED` accepts (see module docstring).
TIERS = (0, 2)
_DEFAULT_TIER = 2

# Parsed lazily: a bad env var raises HarnessError at first *use* (the
# CLI turns that into a one-line exit 1), not at import.
_tier: Optional[int] = None


def tier() -> int:
    """The active speed tier (0 reference / 2 closures)."""
    global _tier
    if _tier is None:
        raw = os.environ.get("REPRO_SPEED", str(_DEFAULT_TIER))
        if raw not in ("0", "2"):
            raise HarnessError(
                f"REPRO_SPEED must be 0 (reference) or 2 (closures); "
                f"got {raw!r}")
        _tier = int(raw)
    return _tier


def set_tier(value: int) -> None:
    """Select the speed tier at runtime (CLI ``--speed-tier``, tests)."""
    global _tier
    if value not in TIERS:
        raise HarnessError(
            f"speed tier must be 0 (reference) or 2 (closures); "
            f"got {value!r}")
    _tier = value


def enabled() -> bool:
    """Is the fast path active? (``REPRO_SPEED=0`` turns it off.)"""
    return tier() >= 1


from .modcache import ModuleCache, ModuleEntry  # noqa: E402

#: Process-wide decoded-module cache.
module_cache = ModuleCache()


def entry_for(module) -> "ModuleEntry | None":
    """The cache entry owning ``module``, or None if uncached/disabled."""
    if not enabled():
        return None
    return module_cache.entry_for(module)


# ---------------------------------------------------------------------------
# The code memo of both closure tiers.
#
# A code object is a pure function of its source, so the digest of the
# source is a sound key; keying by the digest keeps 3-54 KB source
# strings out of the memo.  Whatever differs between two binds of one
# entry (constants, inline caches, a Wasm function's name and tag) lives
# in the namespace each bind execs the code in.
# ---------------------------------------------------------------------------

#: Capacity of the memo (bounded LRU): a budget-8 fuzz campaign needs
#: about 22 Wasm and 22 machine entries.
_MEMO_CAPACITY = 256
_memo: "OrderedDict[bytes, object]" = OrderedDict()


def compiled(source: str, filename: str):
    """The code object of ``source``: compiled on first use, then taken
    from the memo (``filename``, the name tracebacks show, is the first
    caller's)."""
    key = hashlib.sha256(source.encode()).digest()
    code = _memo.get(key)
    if code is None:
        code = _memo[key] = compile(source, filename, "exec")
        while len(_memo) > _MEMO_CAPACITY:
            _memo.popitem(last=False)
    else:
        _memo.move_to_end(key)
    return code


def memo_clear() -> None:
    """Empty the code memo, so the next bind of every closure compiles."""
    _memo.clear()


# ---------------------------------------------------------------------------
# Machine-closure hotness.
#
# The machine loop costs about 0.38 us per retired instruction and a
# closure about 58 us per static instruction to generate and compile
# (PERFORMANCE.md, "Machine closures"), so a function is compiled once
# its loop frames have retired HOT_WORK x len(code) instructions: its
# loop time then roughly equals its compile time, the ski-rental rule
# that is never worse than twice the better of the two choices.
# ---------------------------------------------------------------------------

HOT_WORK = 150


class MachineCode:
    """Tier-2 state of one machine program, kept off the (pickled)
    :class:`~repro.isa.program.MProgram`: per function, the work its
    loop frames may still retire before it is hot (``left``; a loop
    frame subtracts its own instructions when it returns), and its
    closure factory once generated (False: it stays in the loop)."""

    __slots__ = ("left", "_makers")

    def __init__(self, functions):
        self.left: List[float] = [HOT_WORK * len(f.code)
                                  for f in functions]
        self._makers: List = [None] * len(functions)

    def factory(self, func):
        """``func``'s closure factory (generated on first use), or None
        when the function stays in the loop."""
        make = self._makers[func.index]
        if make is None:
            # Imported here: the code generator is only needed once
            # something is hot.
            from . import mclosures
            make = self._makers[func.index] = \
                mclosures.factory_for(func) or False
            if not make:
                self.left[func.index] = math.inf
        return make or None


# Keyed by id(program); an entry is dropped when its program dies, so
# the tables of a long fuzz campaign never outlive its programs.
_machine_code: Dict[int, MachineCode] = {}


def machine_code(program) -> Optional[MachineCode]:
    """The machine-closure table of ``program``; None at tier 0."""
    if tier() < 2:
        return None
    key = id(program)
    table = _machine_code.get(key)
    if table is None:
        table = _machine_code[key] = MachineCode(program.functions)
        weakref.finalize(program, _machine_code.pop, key, None)
    return table


__all__ = ["TIERS", "tier", "set_tier", "enabled", "module_cache",
           "entry_for", "ModuleCache", "ModuleEntry", "compiled",
           "memo_clear", "HOT_WORK", "MachineCode", "machine_code"]
