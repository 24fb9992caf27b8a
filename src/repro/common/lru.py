"""Deterministic, insertion-ordered LRU caching.

The hot-path kernels (erasure decode plans, hash vectors, Merkle levels,
wire-size accounting) memoize pure computations whose inputs recur
constantly across a sweep.  All of them share this cache class rather
than ``functools.lru_cache`` for two reasons the determinism lint
enforces:

* **Replayable state.** The cache is an explicit object owned by the
  component that uses it, so a fresh coder/simulator starts cold and two
  seeded runs see identical hit/miss sequences.  ``functools`` caches
  hang off module-level functions and leak state across runs within one
  process, which couples experiment timings to execution history.
* **Insertion-ordered eviction.** Entries live in a plain ``dict``
  (insertion-ordered by language guarantee); a hit re-inserts the key at
  the back, so the front is always the least-recently-used entry and
  eviction order is a pure function of the call sequence — never of hash
  seeds or interpreter memory layout.

Values are returned as stored: callers memoizing mutable results must
store immutable snapshots (``bytes``, ``tuple``) or defensively copy.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Hashable

_MISSING = object()


class LruCache:
    """A bounded mapping with deterministic least-recently-used eviction.

    ``capacity`` bounds the entry count; inserting beyond it evicts the
    least-recently-used key.  ``hits`` / ``misses`` counters are exposed
    for benchmark reporting (they never influence behaviour).
    """

    __slots__ = ("_data", "capacity", "hits", "misses")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"LRU capacity must be >= 1, got {capacity}")
        self._data: Dict[Hashable, Any] = {}
        self.capacity = capacity
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (refreshing its recency) or ``default``.

        An unhashable ``key`` raises ``TypeError`` — the signal callers
        use to bypass the cache — whatever the cache holds.
        """
        value = self._data.pop(key, _MISSING)
        if value is _MISSING:
            if not self._data:
                hash(key)  # an empty dict answers without hashing
            self.misses += 1
            return default
        # Re-insert at the back: most recently used.
        self._data[key] = value
        self.hits += 1
        return value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert/overwrite ``key``, evicting the LRU entry when full."""
        self._data.pop(key, None)
        self._data[key] = value
        if len(self._data) > self.capacity:
            # dicts iterate in insertion order, so the first key is the
            # least recently used.
            oldest = next(iter(self._data))
            del self._data[oldest]

    def get_or_compute(self, key: Hashable,
                       factory: Callable[[], Any]) -> Any:
        """Return the cached value, computing and storing it on a miss."""
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = factory()
            self.put(key, value)
        return value

    def clear(self) -> None:
        """Drop every entry (counters are kept)."""
        self._data.clear()

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters for benchmark reports."""
        return {"hits": self.hits, "misses": self.misses,
                "size": len(self._data), "capacity": self.capacity}


def memoize_unary(capacity: int) -> Callable[[Callable[[Any], Any]],
                                             Callable[[Any], Any]]:
    """Decorator: memoize a unary pure function through an
    :class:`LruCache`.

    The cache is attached to the wrapper as ``cache`` so tests and
    benchmarks can inspect or clear it.  Unhashable arguments bypass the
    cache (computed directly), so decorating a function never narrows
    the inputs it accepts.
    """
    def decorate(function: Callable[[Any], Any]) -> Callable[[Any], Any]:
        cache = LruCache(capacity)

        def wrapper(argument: Any) -> Any:
            try:
                value = cache.get(argument, _MISSING)
            except TypeError:  # unhashable argument
                return function(argument)
            if value is _MISSING:
                value = function(argument)
                cache.put(argument, value)
            return value

        wrapper.cache = cache  # type: ignore[attr-defined]
        wrapper.__wrapped__ = function  # type: ignore[attr-defined]
        wrapper.__doc__ = function.__doc__
        wrapper.__name__ = function.__name__
        return wrapper
    return decorate
