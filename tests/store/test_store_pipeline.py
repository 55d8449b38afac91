"""End-to-end store pipeline tests: sweep → persist → reopen → parity.

The acceptance bar for the subsystem: a ``repro trend`` sweep with a
store sink persists a sharded store, and recomputing every atom and
stability series from the reopened store equals the in-memory
pipeline's results exactly.
"""

import dataclasses

import pytest

from repro.analysis.longitudinal import (
    LongitudinalStudy,
    trend_results_from_store,
)
from repro.cli import main
from repro.engine.cache import ResultCache, job_digest
from repro.engine.jobs import build_jobs
from repro.engine.metrics import sweep_summary
from repro.engine.scheduler import ExecutionEngine
from repro.obs import Tracer, use_tracer
from repro.simulation.scenario import SimulatedInternet
from repro.store import AtomStore, StoreError, merge_parts, part_complete
from repro.topology.evolution import WorldParams

WORLD = WorldParams(
    seed=5,
    as_scale=1 / 400.0,
    prefix_scale=1 / 400.0,
    peer_scale=0.03,
    collector_scale=0.3,
    min_fullfeed_peers=8,
)

YEARS = [2006, 2007]

COMMON = ["--scale", "400", "--peer-scale", "0.03", "--seed", "5"]


def _sweep(store_dir=None, engine=None):
    engine = engine or ExecutionEngine()
    study = LongitudinalStudy(
        SimulatedInternet(WORLD, start=f"{YEARS[0]}-01-01"),
        engine=engine,
        store_dir=None if store_dir is None else str(store_dir),
    )
    return study.run_years(YEARS)


def _assert_rows_equal(expected, actual):
    assert len(expected) == len(actual)
    for left, right in zip(expected, actual):
        assert left.year == right.year
        assert left.stats == right.stats
        assert left.formation_shares == right.formation_shares
        assert left.formation_shares_no_single == right.formation_shares_no_single
        assert left.stability == right.stability
        assert left.feed == right.feed


class TestStoreParity:
    def test_store_results_equal_in_memory_results(self, tmp_path):
        in_memory = _sweep()
        persisted = _sweep(store_dir=tmp_path / "store")
        _assert_rows_equal(in_memory, persisted)
        with AtomStore(tmp_path / "store") as store:
            assert len(store.snapshots()) == len(YEARS) * 4
            _assert_rows_equal(in_memory, trend_results_from_store(store))

    def test_cached_rerun_still_completes_the_store(self, tmp_path):
        """Run 1 fills the cache without a store; run 2 adds the store.

        Every job is a cache hit in run 2, but a hit may not skip the
        part write — the scheduler must recompute jobs whose part is
        missing so the merge has all columns.
        """
        cache = ResultCache(tmp_path / "cache")
        first = _sweep(engine=ExecutionEngine(cache=cache))
        store_dir = tmp_path / "store"
        second = _sweep(
            store_dir=store_dir, engine=ExecutionEngine(cache=cache)
        )
        _assert_rows_equal(first, second)
        with AtomStore(store_dir) as store:
            _assert_rows_equal(first, trend_results_from_store(store))

    def test_rerun_with_complete_parts_reuses_cache(self, tmp_path):
        """Once parts exist, a cached rerun does zero recomputation."""
        cache = ResultCache(tmp_path / "cache")
        store_dir = tmp_path / "store"
        _sweep(store_dir=store_dir, engine=ExecutionEngine(cache=cache))
        tracer = Tracer()
        with use_tracer(tracer):
            again = _sweep(
                store_dir=store_dir, engine=ExecutionEngine(cache=cache)
            )
        summary = sweep_summary(tracer)
        assert summary["cache_hits"] == len(YEARS)
        assert summary["computed"] == 0
        with AtomStore(store_dir) as store:
            _assert_rows_equal(again, trend_results_from_store(store))

    def test_parallel_sweep_builds_identical_store(self, tmp_path):
        serial = _sweep(store_dir=tmp_path / "serial")
        parallel = _sweep(
            store_dir=tmp_path / "parallel", engine=ExecutionEngine(jobs=2)
        )
        _assert_rows_equal(serial, parallel)
        with AtomStore(tmp_path / "serial") as left, \
                AtomStore(tmp_path / "parallel") as right:
            assert [e.key for e in left.snapshots()] == [
                e.key for e in right.snapshots()
            ]
            for entry in left.snapshots():
                ours, theirs = left.atoms(entry.key), right.atoms(entry.key)
                assert len(ours) == len(theirs)
                for a, b in zip(ours, theirs):
                    assert a.atom_id == b.atom_id
                    assert a.prefixes == b.prefixes
                    assert a.paths == b.paths


class TestMergeGuards:
    def test_merge_refuses_missing_parts(self, tmp_path):
        jobs = build_jobs(WORLD, 0, [(2006, 1, 2006.0)],
                          store_dir=str(tmp_path))
        key = job_digest(jobs[0])
        assert not part_complete(tmp_path, key)
        with pytest.raises(StoreError, match="missing"):
            merge_parts(tmp_path, [key])

    def test_store_dir_not_in_cache_key(self):
        job = build_jobs(WORLD, 0, [(2006, 1, 2006.0)])[0]
        stored = dataclasses.replace(job, store_dir="/elsewhere")
        assert job_digest(job) == job_digest(stored)

    def test_store_dir_without_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            LongitudinalStudy(
                SimulatedInternet(WORLD, start="2006-01-01"),
                store_dir="/tmp/nowhere",
            )


class TestStoreCli:
    def test_trend_store_dir_then_info_trend_matches(self, tmp_path, capsys):
        store = tmp_path / "store"
        argv = ["trend", "--first-year", "2006", "--last-year", "2007",
                "--step", "1", "--store-dir", str(store)] + COMMON
        assert main(argv) == 0
        swept = capsys.readouterr().out
        table = swept.split("store:")[0].rstrip("\n")

        assert main(["store", "info", str(store), "--check", "--trend"]) == 0
        info = capsys.readouterr().out
        assert "segment(s) verified" in info
        # The trend table recomputed from the store is byte-identical.
        assert table in info

    def test_store_build_and_query(self, tmp_path, capsys):
        store = tmp_path / "store"
        argv = ["store", "build", str(store), "--first-year", "2006",
                "--last-year", "2006", "--no-stability"] + COMMON
        assert main(argv) == 0
        assert "built atom store" in capsys.readouterr().out

        with AtomStore(store) as opened:
            entry = opened.snapshots()[0]
            prefix = next(iter(opened.atoms(entry.key).by_prefix))
        assert main(["store", "query", str(store), str(prefix)]) == 0
        out = capsys.readouterr().out
        assert "atom id:" in out

        assert main(["store", "query", str(store), "203.0.113.0/24"]) == 1
        assert "not in snapshot universe" in capsys.readouterr().out

    def test_store_info_on_missing_store(self, tmp_path, capsys):
        assert main(["store", "info", str(tmp_path / "nope")]) == 2
        assert "store error" in capsys.readouterr().err


class TestStoreTracing:
    def test_counters_cover_build_and_open(self, tmp_path):
        tracer = Tracer()
        with use_tracer(tracer):
            _sweep(store_dir=tmp_path / "store")
            with AtomStore(tmp_path / "store") as store:
                for entry in store.snapshots():
                    store.atoms(entry.key)
                store.atoms(store.snapshots()[0].key)  # cache hit
        counters = tracer.counters
        assert counters["store.snapshots_written"] >= len(YEARS) * 8
        assert counters["store.segments_written"] > 0
        assert counters["store.bytes_written"] > 0
        assert counters["store.parts_merged"] == len(YEARS)
        assert counters["store.segments_opened"] > 0
        assert counters["store.bytes_mapped"] > 0
        # 4 per quarter on our reopen of the final store: the merge
        # copies the parts' columns without loading their snapshots
        assert counters["store.snapshots_loaded"] == len(YEARS) * 4
        assert counters["store.query_cache_hits"] == 1
