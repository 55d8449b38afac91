"""Cache correctness: key sensitivity, round-trips, corruption recovery."""

import dataclasses
import json
import random
import threading

import pytest

from repro.core.sanitize import SanitizationConfig
from repro.engine.cache import (
    CACHE_SALT,
    ResultCache,
    content_digest,
    job_digest,
)
from repro.engine.jobs import (
    SnapshotJob,
    build_jobs,
    execute_snapshot_job,
    result_to_payload,
    suite_times,
)
from repro.engine.metrics import sweep_summary
from repro.engine.scheduler import ExecutionEngine
from repro.net.prefix import AF_INET, AF_INET6
from repro.obs import Tracer, use_tracer
from repro.util.dates import utc_timestamp

from tests.engine.conftest import ENGINE_WORLD


def make_job(**overrides):
    defaults = dict(
        params=ENGINE_WORLD,
        start=utc_timestamp(2004, 1, 1),
        warmup=(),
        times=suite_times(2004, 1, with_stability=False),
        family=AF_INET,
        sanitization=None,
        label="2004-01",
        calendar_year=2004,
        month=1,
        report_year=2004.0,
    )
    defaults.update(overrides)
    return SnapshotJob(**defaults)


class TestDigest:
    def test_stable_across_equal_jobs(self):
        assert job_digest(make_job()) == job_digest(make_job())

    def test_every_sanitization_field_is_keyed(self):
        """Changing any SanitizationConfig field must change the digest."""
        base = job_digest(make_job(sanitization=SanitizationConfig()))
        changed = [
            SanitizationConfig(fullfeed_ratio=0.8),
            SanitizationConfig(min_collectors=3),
            SanitizationConfig(min_peer_ases=5),
            SanitizationConfig(max_prefix_length={AF_INET: 22, AF_INET6: 48}),
            SanitizationConfig(max_corrupt_record_share=0.5),
            SanitizationConfig(max_private_asn_share=0.5),
            SanitizationConfig(max_duplicate_share=0.5),
            SanitizationConfig(keep_all_lengths=True),
        ]
        # Guard against a silently added field this test would miss.
        assert len(changed) == len(dataclasses.fields(SanitizationConfig))
        digests = {job_digest(make_job(sanitization=config)) for config in changed}
        assert base not in digests
        assert len(digests) == len(changed)

    def test_world_seed_and_scale_keyed(self):
        base = job_digest(make_job())
        reseeded = dataclasses.replace(ENGINE_WORLD, seed=32)
        rescaled = dataclasses.replace(ENGINE_WORLD, as_scale=1 / 300.0)
        assert job_digest(make_job(params=reseeded)) != base
        assert job_digest(make_job(params=rescaled)) != base

    def test_timestamp_family_and_cadence_keyed(self):
        base = job_digest(make_job())
        assert job_digest(make_job(times=suite_times(2005, 1, False))) != base
        assert job_digest(make_job(family=AF_INET6)) != base
        warmed = make_job(warmup=suite_times(2003, 1, False))
        assert job_digest(warmed) != base

    def test_salt_is_keyed(self):
        job = make_job()
        assert job_digest(job, salt=CACHE_SALT) != job_digest(job, salt="v2")

    def test_label_is_not_keyed(self):
        """Cosmetic fields must not fragment the cache."""
        assert job_digest(make_job(label="a")) == job_digest(make_job(label="b"))

    def test_job_digest_unchanged_by_world_checkpoint_fields(self):
        """Checkpoint wiring must not invalidate existing caches."""
        stamped = make_job(
            world_checkpoint_dir="/tmp/x", world_checkpoint_stride=2
        )
        assert job_digest(stamped) == job_digest(make_job())

    def test_salt_is_v4(self):
        """v2 entries must miss (their canonical form collided), and so
        must v3 entries (their spec carried the removed ``incremental``
        component)."""
        assert CACHE_SALT == "repro-engine-v4"


class TestCanonicalCollisions:
    """Regressions for the v2 canonical form's digest collisions."""

    def test_int_and_str_keys_do_not_collide(self):
        """v2 coerced keys with str(), so {1: x} == {"1": x}."""
        assert content_digest({1: "x"}) != content_digest({"1": "x"})

    def test_bool_and_int_keys_do_not_collide(self):
        assert content_digest({True: "x"}) != content_digest({1: "x"})

    def test_dict_and_pair_list_do_not_collide(self):
        """v2 canonicalized a dict to a sorted list of pairs, which is
        indistinguishable from a literal list of 2-tuples."""
        as_dict = {"a": 1, "b": 2}
        as_pairs = [["a", 1], ["b", 2]]
        assert content_digest(as_dict) != content_digest(as_pairs)

    def test_typed_pair_list_does_not_collide_either(self):
        """Nor may a pair list that mimics the v3 key tagging."""
        mimic = [[["str", "a"], 1]]
        assert content_digest({"a": 1}) != content_digest(mimic)
        assert content_digest({"a": 1}) != content_digest(["map", mimic])

    def test_dict_key_order_is_canonical(self):
        assert content_digest({"a": 1, "b": 2}) == content_digest(
            {"b": 2, "a": 1}
        )

    def test_mixed_key_types_are_orderable(self):
        """Int and str keys in one dict must digest without TypeError."""
        digest = content_digest({4: 24, 6: 48, "note": "families"})
        assert digest == content_digest({"note": "families", 6: 48, 4: 24})

    def test_tuple_and_list_spellings_are_equal(self):
        """Tuples vs lists stay interchangeable (spec round-trips
        through JSON, which cannot tell them apart)."""
        assert content_digest((1, 2, 3)) == content_digest([1, 2, 3])

    def test_salt_distinguishes(self):
        assert content_digest({"a": 1}) != content_digest(
            {"a": 1}, salt="other"
        )


class TestResultCache:
    def test_hit_returns_equal_result(self, tmp_path):
        job = make_job()
        computed = execute_snapshot_job(job)
        cache = ResultCache(tmp_path)
        key = job_digest(job)
        cache.put(key, computed)
        restored = cache.get(key)
        assert restored is not None
        assert restored.stats == computed.stats
        assert restored.formation_shares == computed.formation_shares
        assert restored.stability == computed.stability
        assert restored.feed == computed.feed
        assert restored.report == computed.report
        assert restored.record_count == computed.record_count

    def test_miss_on_unknown_key(self, tmp_path):
        assert ResultCache(tmp_path).get("0" * 64) is None

    def test_corrupted_entry_discarded_not_crashed(self, tmp_path):
        job = make_job()
        cache = ResultCache(tmp_path)
        key = job_digest(job)
        cache.put(key, execute_snapshot_job(job))
        path = cache._path(key)
        path.write_text("{ not json", encoding="utf-8")
        assert cache.get(key) is None
        assert not path.exists()  # poisoned entry removed

    def test_wrong_key_payload_discarded(self, tmp_path):
        """An entry whose embedded key disagrees with its name is stale."""
        job = make_job()
        cache = ResultCache(tmp_path)
        key = job_digest(job)
        cache.put(key, execute_snapshot_job(job))
        payload = json.loads(cache._path(key).read_text(encoding="utf-8"))
        payload["key"] = "f" * 64
        cache._path(key).write_text(json.dumps(payload), encoding="utf-8")
        assert cache.get(key) is None

    def test_concurrent_puts_never_persist_a_corrupt_entry(self, tmp_path):
        """Writers racing on the same key must not corrupt the entry.

        With the shared per-process tmp name, one thread could truncate
        the tmp file while another's os.replace was pending, persisting
        a partial JSON document.  Every surviving entry must round-trip.
        """
        job = make_job()
        computed = execute_snapshot_job(job)
        cache = ResultCache(tmp_path)
        keys = [f"{index:02d}" + "a" * 62 for index in range(4)]
        errors = []
        barrier = threading.Barrier(8)

        def hammer(key):
            try:
                barrier.wait()
                for _ in range(25):
                    cache.put(key, computed)
            except Exception as error:  # pragma: no cover - failure path
                errors.append(error)

        threads = [
            threading.Thread(target=hammer, args=(key,))
            for key in keys
            for _ in range(2)  # two writers per key race on one path
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not errors
        for key in keys:
            restored = cache.get(key)
            assert restored is not None, f"entry {key} did not round-trip"
            assert restored.stats == computed.stats
        # No tmp litter left behind by the unique-suffix writes.
        assert not list(tmp_path.glob("**/*.tmp*"))

    def test_engine_recomputes_after_corruption(self, tmp_path):
        """End to end: a corrupted cache entry is recomputed, not fatal."""
        jobs = build_jobs(
            ENGINE_WORLD,
            utc_timestamp(2004, 1, 1),
            [(2004, 1, 2004.0), (2004, 4, 2004.25)],
            with_stability=False,
        )
        cache = ResultCache(tmp_path)
        first = ExecutionEngine(jobs=1, cache=cache).run(jobs)

        cache._path(job_digest(jobs[0])).write_bytes(b"\x00garbage")
        from repro.engine.jobs import clear_worker_state

        clear_worker_state()
        tracer = Tracer()
        with use_tracer(tracer):
            second = ExecutionEngine(jobs=1, cache=cache).run(jobs)
        summary = sweep_summary(tracer)
        assert summary["computed"] == 1 and summary["cache_hits"] == 1
        for a, b in zip(first, second):
            assert a.stats == b.stats and a.feed == b.feed


def mutate(data: bytes, rng) -> bytes:
    """One bit flip, byte set or truncation of ``data``."""
    out = bytearray(data)
    kind = rng.randrange(3)
    if kind == 0:
        out[rng.randrange(len(out))] ^= 1 << rng.randrange(8)
    elif kind == 1:
        out[rng.randrange(len(out))] = rng.randrange(256)
    else:
        del out[rng.randrange(len(out)) :]
    return bytes(out)


class TestEntryIntegrity:
    """A read gives the stored result or a miss — never another result,
    never an exception."""

    @pytest.fixture(scope="class")
    def computed(self):
        return execute_snapshot_job(make_job())

    def test_byte_mutations_read_as_the_result_or_a_miss(
        self, tmp_path, computed
    ):
        """1,000 mutants of a real entry (seed 1), each read once."""
        cache = ResultCache(tmp_path)
        key = job_digest(make_job())
        path = cache.put(key, computed)
        data = path.read_bytes()
        original = result_to_payload(computed)
        assert result_to_payload(cache.get(key)) == original
        rng = random.Random(1)
        wrong = []
        for number in range(1000):
            path.write_bytes(mutate(data, rng))
            try:
                got = cache.get(key)
            except Exception as error:  # noqa: BLE001 - the point of the test
                wrong.append(f"mutation {number}: {type(error).__name__}")
                continue
            if got is not None and result_to_payload(got) != original:
                wrong.append(f"mutation {number}: a different result")
        assert wrong == []

    @pytest.mark.parametrize(
        "entry",
        [[1, 2], 7, "entry", {"result": ["not", "an", "object"]}],
        ids=["list", "number", "string", "result-list"],
    )
    def test_entry_that_is_not_an_object_is_a_miss(self, tmp_path, entry):
        cache = ResultCache(tmp_path)
        key = job_digest(make_job())
        if isinstance(entry, dict):
            entry = {"key": key, **entry}
        path = cache._path(key)
        path.parent.mkdir(parents=True)
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(key) is None
        assert not path.exists()  # deleted, so the job is recomputed

    def test_entry_without_digest_is_a_miss(self, tmp_path, computed):
        """Entries written before digests miss once and are rewritten."""
        cache = ResultCache(tmp_path)
        key = job_digest(make_job())
        path = cache.put(key, computed)
        entry = json.loads(path.read_text(encoding="utf-8"))
        del entry["digest"]
        path.write_text(json.dumps(entry), encoding="utf-8")
        assert cache.get(key) is None
        assert not path.exists()

    def test_entry_is_key_digest_and_result(self, tmp_path, computed):
        cache = ResultCache(tmp_path)
        key = job_digest(make_job())
        entry = json.loads(cache.put(key, computed).read_text(encoding="utf-8"))
        assert list(entry) == ["key", "digest", "result"]
        assert entry["key"] == key
        assert entry["result"] == json.loads(
            json.dumps(result_to_payload(computed))
        )
