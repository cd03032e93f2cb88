"""repro.speed — the fast-path execution layer.

Everything in this package is about *wall clock*, never about the model:
the modeled counters, traps, stdout and trace files produced with the
speed layer enabled are byte-identical to the reference implementation
(tests/test_speed.py and tests/test_closures.py enforce this;
PERFORMANCE.md documents the contract).  Four techniques:

* **predecode + fuse** (:mod:`repro.speed.predecode`) — translate a
  validated function body once into a flat tuple-of-handlers form, with
  superinstruction fusion for the dominant sequences, mirroring the
  locality discipline of ``repro.isa.machine``.
* **closure compilation** (:mod:`repro.speed.closures`) — compile a
  hot function's fcode into one ``exec``-compiled Python closure: a
  template JIT *of the model itself* that specializes opcode dispatch
  away entirely.  A function is hot after
  :data:`~repro.speed.modcache.HOT_CALLS` calls, or when one fastloop
  frame of it takes :data:`~repro.speed.fastloop.HOT_BACKEDGES`
  backward branches (that frame then moves into the closure by
  on-stack replacement).
* **decoded-module caching** (:mod:`repro.speed.modcache`) — decoded,
  validated and prepared module forms are shared across engines and
  runs in-process, and persisted through the content-addressed
  artifact cache keyed by module hash + :data:`SPEED_VERSION` so
  ``--jobs`` pool workers share them too.
* **inline caches** for ``call_indirect`` plus per-frame local binding
  in the interpreter hot loop (:mod:`repro.speed.fastloop`).

The layer is tiered via ``REPRO_SPEED`` (or :func:`set_tier`):

=====  ==========================================================
tier   meaning
=====  ==========================================================
``0``  reference implementations only (the escape hatch)
``1``  predecoded fastloop + module cache
``2``  fastloop until hot, then closures (default)
=====  ==========================================================

Any other value is rejected with a one-line :class:`HarnessError` the
first time the layer is consulted — a typo must never silently pick a
tier.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Optional

from ..errors import HarnessError

#: Version of the persisted decoded-module form; part of every
#: disk-cache key so a format change can never resurrect stale artifacts.
SPEED_VERSION = 2   # 2: DecodeStats gained the non_minimal offsets field

#: The tiers `REPRO_SPEED` accepts (see module docstring).
TIERS = (0, 1, 2)
_DEFAULT_TIER = 2

# Parsed lazily: a bad env var raises HarnessError at first *use* (the
# CLI turns that into a one-line exit 1), not at import.
_tier: Optional[int] = None


def tier() -> int:
    """The active speed tier (0 reference / 1 fastloop / 2 closures)."""
    global _tier
    if _tier is None:
        raw = os.environ.get("REPRO_SPEED", str(_DEFAULT_TIER))
        if raw not in ("0", "1", "2"):
            raise HarnessError(
                f"REPRO_SPEED must be 0 (reference), 1 (fastloop) or "
                f"2 (closures); got {raw!r}")
        _tier = int(raw)
    return _tier


def set_tier(value: int) -> None:
    """Select the speed tier at runtime (CLI ``--speed-tier``, tests)."""
    global _tier
    if value not in TIERS:
        raise HarnessError(
            f"speed tier must be 0 (reference), 1 (fastloop) or "
            f"2 (closures); got {value!r}")
    _tier = value


def enabled() -> bool:
    """Is any fast path active? (tier >= 1; ``REPRO_SPEED=0`` turns it
    off.)"""
    return tier() >= 1


def set_enabled(value: bool) -> None:
    """Back-compat toggle: True selects the default (closure) tier,
    False the reference tier."""
    set_tier(_DEFAULT_TIER if value else 0)


from .modcache import ModuleCache, ModuleEntry  # noqa: E402

#: Process-wide decoded-module cache.  Harness instances attach/detach
#: the persistent artifact-cache layer; everything else just reads.
module_cache = ModuleCache()


def entry_for(module) -> "ModuleEntry | None":
    """The cache entry owning ``module``, or None if uncached/disabled."""
    if not enabled():
        return None
    return module_cache.entry_for(module)


# ---------------------------------------------------------------------------
# Process-global compiled-wasm memo.
#
# scripts/bench_wall.py (and any caller that builds a fresh Harness per
# run) re-enters the MiniC front-end for every repeat even though the
# compiled bytes are a pure function of the artifact key.  Like the
# decoded-module cache above, this memo shares that pure work across
# Harness instances in one process; the modeled counters never include
# host-side compile time, so results are byte-identical either way.
# ---------------------------------------------------------------------------

_WASM_MEMO_CAPACITY = 256
_wasm_memo: "OrderedDict[str, bytes]" = OrderedDict()


def wasm_memo_get(key: str) -> Optional[bytes]:
    """Compiled wasm bytes for this artifact key, if seen this process."""
    if not enabled():
        return None
    payload = _wasm_memo.get(key)
    if payload is not None:
        _wasm_memo.move_to_end(key)
    return payload


def wasm_memo_put(key: str, wasm_bytes: bytes) -> None:
    if not enabled():
        return
    _wasm_memo[key] = wasm_bytes
    _wasm_memo.move_to_end(key)
    while len(_wasm_memo) > _WASM_MEMO_CAPACITY:
        _wasm_memo.popitem(last=False)


def wasm_memo_clear() -> None:
    _wasm_memo.clear()


__all__ = ["SPEED_VERSION", "TIERS", "tier", "set_tier", "enabled",
           "set_enabled", "module_cache", "entry_for", "ModuleCache",
           "ModuleEntry", "wasm_memo_get", "wasm_memo_put",
           "wasm_memo_clear"]
