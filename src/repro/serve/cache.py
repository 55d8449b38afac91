"""The LRU response cache of ``repro serve``.

:class:`~repro.serve.http.AtomServer` keeps each finished ``200`` here
as its ``(body bytes, ETag)`` pair, under a plain tuple key: the
store's manifest digest plus the request path and ``snapshot``
parameter, which are all a response depends on.  A hit is therefore
answered without building, encoding or hashing anything.  The cache
itself is a bounded LRU: an ``OrderedDict`` under a lock, moved to the
tail on hit, evicted from the head past ``max_entries``.

Hits and misses are reported both on the instance (``hits`` /
``misses``, for ``/healthz``) and as ``serve.cache_hits`` /
``serve.cache_misses`` obs counters.  :meth:`ResponseCache.get` counts
the hits and :meth:`ResponseCache.put` the misses: a value is stored
once a lookup has missed and the answer was built, so a request
refused before its answer exists (a ``400`` or ``404``) counts as
neither.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Hashable, Tuple

from repro.obs import get_tracer

#: Default maximum cached responses.
DEFAULT_MAX_ENTRIES = 1024


class ResponseCache:
    """A bounded, thread-safe LRU of finished responses."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: "OrderedDict[Hashable, Any]" = OrderedDict()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Hashable) -> Tuple[bool, Any]:
        """``(hit, value)`` for ``key``; a hit refreshes its LRU slot.

        The flag distinguishes a cached ``None`` from a miss.  Only a
        hit is counted here; :meth:`put` counts the miss.
        """
        tracer = get_tracer()
        with self._lock:
            if key not in self._entries:
                return False, None
            self._entries.move_to_end(key)
            self.hits += 1
            value = self._entries[key]
        if tracer.enabled:
            tracer.count("serve.cache_hits")
        return True, value

    def put(self, key: Hashable, value: Any) -> None:
        """Store the value a missed lookup built, counting the miss;
        evicts the LRU tail past cap."""
        tracer = get_tracer()
        evicted = 0
        with self._lock:
            self.misses += 1
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                evicted += 1
        if tracer.enabled:
            tracer.count("serve.cache_misses")
            if evicted:
                tracer.count("serve.cache_evictions", evicted)

    def clear(self) -> None:
        """Drop every entry (hit/miss counters are kept)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Hit/miss/size snapshot (surfaced by ``/healthz``)."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
            }
