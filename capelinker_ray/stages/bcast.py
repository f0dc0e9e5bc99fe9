"""Per-worker-process memoization of ``ray.get`` for broadcast objects.

``ray.get`` re-deserializes pickled payloads (python sets/dicts, pandas
objects — anything that is not a plasma-zero-copy numpy/arrow buffer) on
EVERY call, so a per-batch ``ray.get(ref)`` inside ``map_batches`` pays
O(|object|) per batch; a join's right side would also rebuild its key
index per batch (at a 1M-row entity map × thousands of turn batches that
was ~70 s of pure rework in the flagship tail). Worker processes are
reused across the tasks of a stage (and across stages), so memoizing by
ObjectRef makes the first batch a worker sees pay the deserialization
(and the ``build``) and every later batch free.

Only use for refs whose objects are treated as IMMUTABLE by the consumer
(the engine's broadcast contract everywhere ray.put is used).
"""

from __future__ import annotations

import ray

__all__ = ["cached_get"]

_CACHE: dict[str, object] = {}
# entries can be 128 MiB join sides (join.BROADCAST_MAX_BYTES), so a
# worker holds at most this many
_CACHE_MAX = 4


def cached_get(ref, build=None):
    """``ray.get(ref)`` — or ``build(ray.get(ref))`` — memoized per worker
    process by ref (oldest entry evicted first)."""
    key = ref.hex()
    if key not in _CACHE:
        obj = ray.get(ref)
        if build is not None:
            obj = build(obj)
        if len(_CACHE) >= _CACHE_MAX:
            _CACHE.pop(next(iter(_CACHE)))
        _CACHE[key] = obj
    return _CACHE[key]
