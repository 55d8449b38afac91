"""Tests for the serve response cache."""

import threading

from repro.serve.cache import ResponseCache


class TestResponseCache:
    def test_miss_then_hit(self):
        cache = ResponseCache(4)
        hit, value = cache.get("k")
        assert not hit and value is None
        cache.put("k", {"a": 1})
        hit, value = cache.get("k")
        assert hit and value == {"a": 1}

    def test_cached_none_is_a_hit(self):
        """A computed-to-None payload must not look like a miss."""
        cache = ResponseCache(4)
        cache.put("k", None)
        hit, value = cache.get("k")
        assert hit and value is None

    def test_lru_evicts_oldest(self):
        cache = ResponseCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("a") == (False, None)
        assert cache.get("b") == (True, 2)
        assert cache.get("c") == (True, 3)

    def test_get_refreshes_recency(self):
        cache = ResponseCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh: "b" is now the eviction candidate
        cache.put("c", 3)
        assert cache.get("a") == (True, 1)
        assert cache.get("b") == (False, None)

    def test_put_refreshes_recency(self):
        cache = ResponseCache(2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("a", 10)
        cache.put("c", 3)
        assert cache.get("a") == (True, 10)
        assert cache.get("b") == (False, None)

    def test_stats(self):
        cache = ResponseCache(2)
        cache.get("a")
        cache.put("a", 1)
        cache.get("a")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["max_entries"] == 2
        assert stats["hits"] == 1
        assert stats["misses"] == 1

    def test_misses_count_stored_answers(self):
        """A lookup that misses counts nothing until its answer is
        stored, so a request refused before it has one counts neither."""
        cache = ResponseCache(2)
        cache.get("a")
        cache.get("a")
        assert cache.stats()["misses"] == 0
        cache.put("a", 1)
        assert cache.stats()["misses"] == 1

    def test_clear(self):
        cache = ResponseCache(2)
        cache.put("a", 1)
        cache.clear()
        assert cache.get("a") == (False, None)
        assert cache.stats()["entries"] == 0

    def test_thread_safety_under_churn(self):
        cache = ResponseCache(8)
        barrier = threading.Barrier(4)
        errors = []

        def worker(offset):
            try:
                barrier.wait()
                for i in range(500):
                    key = f"k{(offset + i) % 16}"
                    cache.put(key, i)
                    hit, value = cache.get(key)
                    if hit:
                        assert isinstance(value, int)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(4)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert cache.stats()["entries"] <= 8
