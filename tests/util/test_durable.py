"""Durable writes: the atomic writer, the stale-temp sweep of every
writer's directory, and a kill at every step of every writer.

The kill matrix forks one child per ``atomic_file`` call an operation
makes and per kill point, and ends it with ``os._exit``, which like
SIGKILL runs no cleanup: after half the call's bytes are written, with
its temp complete but not yet renamed, and right after its
``os.replace``.  The points are reached by patching inside the child
only.  The parent must then read the old state, the new state or a
typed error, and the writer's next run must sweep the dead child's
temp and complete.
"""

import json
import os
import random
import re
import shutil
import signal
import time
import traceback
from types import SimpleNamespace

import pytest

import repro.util.durable as durable
from repro.bgp.attributes import PathAttributes
from repro.bgp.messages import ElementType, RouteElement, RouteRecord
from repro.bgp.rib import RIBSnapshot
from repro.core.atoms import compute_atoms
from repro.core.statistics import GeneralStats
from repro.engine.cache import ResultCache
from repro.engine.checkpoint import (
    StreamCheckpoint,
    StreamCheckpointError,
    WorldCheckpoint,
)
from repro.engine.jobs import QuarterResult, result_to_payload
from repro.engine.scheduler import ExecutionEngine
from repro.net.aspath import ASPath
from repro.net.prefix import Prefix
from repro.obs import Tracer, use_tracer
from repro.store import AtomStore, StoreError
from repro.store.writer import merge_parts, part_dir, write_part
from repro.stream.archive import RecordArchive
from repro.stream.serialize import record_to_json
from repro.util.durable import atomic_file, sweep_stale_tmp
from tests.conftest import TEST_WORLD

pytestmark = pytest.mark.skipif(
    not hasattr(os, "fork"), reason="kills need os.fork"
)

#: Exit code of a child that reached its kill point.
KILLED = 86

#: What an observation reads when the reader raised its typed error.
TYPED_ERROR = "typed error"


def temps(root):
    """Every temp file under ``root``."""
    return sorted(path for path in root.rglob("*.tmp*") if path.is_file())


def in_child(body, timeout=60.0):
    """Run ``body`` in a forked child; returns its exit code."""
    pid = os.fork()
    if pid == 0:  # the child never returns into pytest
        code = 0
        try:
            body()
        except BaseException:
            traceback.print_exc()
            code = 1
        os._exit(code)
    deadline = time.monotonic() + timeout
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            return os.waitstatus_to_exitcode(status)
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(f"child {pid} still running after {timeout} s")
        time.sleep(0.001)


def dead_pid():
    """The pid of a child that has exited and been reaped."""
    pid = os.fork()
    if pid == 0:
        os._exit(0)
    os.waitpid(pid, 0)
    return pid


# ----------------------------------------------------------------------
# The writer and the sweep
# ----------------------------------------------------------------------

def test_atomic_file_renames_on_a_clean_exit(tmp_path):
    target = tmp_path / "new" / "file.bin"
    with atomic_file(target) as handle:
        handle.write(b"new")
        (temp,) = temps(tmp_path)
        assert re.fullmatch(
            rf"file\.bin\.tmp{os.getpid()}-[0-9a-f]{{32}}", temp.name
        )
        assert not target.exists()
    assert target.read_bytes() == b"new"
    assert temps(tmp_path) == []


def test_atomic_file_error_keeps_the_old_file(tmp_path):
    target = tmp_path / "file.bin"
    target.write_bytes(b"old")
    with pytest.raises(RuntimeError):
        with atomic_file(target) as handle:
            handle.write(b"partial")
            raise RuntimeError("disk full")
    assert target.read_bytes() == b"old"
    assert temps(tmp_path) == []


def test_two_writers_of_one_file_never_share_a_temp(tmp_path):
    target = tmp_path / "file.bin"
    with atomic_file(target) as outer, atomic_file(target) as inner:
        outer.write(b"outer")
        inner.write(b"inner")
        assert len(temps(tmp_path)) == 2
    assert target.read_bytes() == b"outer"  # the last to finish wins


def test_sweep_counts_what_it_removes(tmp_path):
    for name in ("a.seg", "b.json"):
        (tmp_path / f"{name}.tmp{dead_pid()}-{'0' * 32}").write_bytes(b"")
    keep = tmp_path / f"c.seg.tmp{'9' * 10}"  # ten digits: not a pid
    keep.write_bytes(b"")
    tracer = Tracer()
    with use_tracer(tracer):
        assert sweep_stale_tmp(tmp_path) == 2
    assert tracer.counters["durable.tmp_swept"] == 2
    assert temps(tmp_path) == [keep]


# ----------------------------------------------------------------------
# Small inputs for every writer
# ----------------------------------------------------------------------

PREFIXES = [Prefix.parse(f"10.{index}.0.0/16") for index in range(6)]


def window_atoms(seed):
    """A small atom set whose paths depend on ``seed``."""
    records = []
    for peer in (1, 2, 3):
        elements = [
            RouteElement(
                ElementType.RIB,
                prefix,
                PathAttributes(
                    ASPath.from_asns([peer, 100 + seed + (row + peer) % 3, 9])
                ),
            )
            for row, prefix in enumerate(PREFIXES)
        ]
        records.append(RouteRecord(
            "rib", "ris", "rrc00", peer, f"10.9.9.{peer}", 100, elements
        ))
    return compute_atoms(RIBSnapshot.from_records(records))


PART_ATOMS = {f"p{seed}": window_atoms(seed) for seed in range(3)}


def put_part(root, key):
    write_part(root, key, [
        {"key": key, "atoms": PART_ATOMS[key], "label": key},
    ])


def dump_record(collector):
    return RouteRecord(
        "update", "ris", collector, 7, "10.0.0.7", 1000,
        [RouteElement(ElementType.ANNOUNCEMENT, PREFIXES[0],
                      PathAttributes(ASPath.from_asns([7, 9])))],
    )


STREAM_CONFIG = {"window_seconds": 900}

WORLD_START = 1_000_000
WORLD_CADENCE = [WORLD_START + 3600, WORLD_START + 7200]


def world(applied):
    """A picklable stand-in for a world at ``applied``."""
    return SimpleNamespace(
        params=TEST_WORLD,
        start=WORLD_START,
        state=random.Random(len(applied)).randbytes(20000),
    )


CACHE_KEY = "ab" + "c" * 62
RESULT = QuarterResult(
    label="2004-01", year=2004.0, month=1, family=4,
    stats=GeneralStats(6, 3, 2, 3, 1, 2.0, 3, 3),
    formation_shares={1: 50.0}, formation_shares_no_single={},
    stability={}, feed={"peers": 3},
)


# ----------------------------------------------------------------------
# Each writer sweeps the directory it opens
# ----------------------------------------------------------------------

def sweep_archive(root):
    RecordArchive(root).write_dump([dump_record("rrc00")])
    directory = next(root.rglob("*.jsonl.gz")).parent
    return directory, lambda: RecordArchive(root).dumps()


def sweep_part(root):
    return part_dir(root, "p0"), lambda: put_part(root, "p0")


def sweep_store_root(root):
    put_part(root, "p0")
    return root, lambda: merge_parts(root, ["p0"])


def sweep_cache(root):
    return root / CACHE_KEY[:2], lambda: ResultCache(root)


def sweep_stream(root):
    return root, lambda: StreamCheckpoint(root)


def sweep_world(root):
    return root, lambda: ExecutionEngine(world_checkpoint_dir=root).run([])


@pytest.mark.parametrize("setup", [
    sweep_archive, sweep_part, sweep_store_root, sweep_cache, sweep_stream,
    sweep_world,
], ids=lambda setup: setup.__name__)
def test_each_writer_sweeps_the_directory_it_opens(tmp_path, setup):
    directory, open_writer = setup(tmp_path)
    directory.mkdir(parents=True, exist_ok=True)
    dead = [directory / f"x.seg.tmp{dead_pid()}-{'d' * 32}",
            directory / f"y.seg.tmp{dead_pid()}"]
    live = [directory / f"x.seg.tmp{os.getpid()}-{'e' * 32}",
            directory / "x.seg.tmpl", directory / "notes.txt"]
    for path in dead + live:
        path.write_bytes(b"partial")
    open_writer()
    assert [path for path in dead if path.exists()] == []
    assert all(path.exists() for path in live)


# ----------------------------------------------------------------------
# The kill matrix
# ----------------------------------------------------------------------

def observe_store(root):
    """The final store, read with ``verify`` off and on."""
    seen = {}
    for verify in (False, True):
        try:
            with AtomStore(root, verify=verify) as store:
                seen[verify] = tuple(
                    (entry.key, tuple(
                        (atom.atom_id, tuple(map(str, atom.prefixes)),
                         tuple(map(str, atom.paths)))
                        for atom in store.atoms(entry.key)
                    ))
                    for entry in store.snapshots()
                )
        except StoreError:
            seen[verify] = TYPED_ERROR
    return seen


def observe_stream(root):
    try:
        state = StreamCheckpoint(root).load(config=STREAM_CONFIG)
    except StreamCheckpointError:
        return {"state": TYPED_ERROR}
    return {"state": json.dumps(state, sort_keys=True)}


def observe_world(root):
    restored = WorldCheckpoint(root).restore(
        TEST_WORLD, WORLD_START, WORLD_CADENCE
    )
    return {"prefix": None if restored is None else len(restored[1])}


def observe_cache(root):
    hit = ResultCache(root).get(CACHE_KEY)
    return {"entry": None if hit is None else result_to_payload(hit)}


def observe_archive(root):
    archive = RecordArchive(root)
    return {
        str(path.relative_to(root)): [
            record_to_json(record) for record in archive.read_file(path)
        ]
        for *_, path in archive.dumps()
    }


def fresh_store(root):
    put_part(root, "p0")
    put_part(root, "p1")
    merge_parts(root, ["p0", "p1"])


def remerge_prepare(root):
    for key in PART_ATOMS:
        put_part(root, key)
    merge_parts(root, ["p0", "p1"])


def save_stream(index):
    def save(root):
        StreamCheckpoint(root).save(
            index, 900 * index, STREAM_CONFIG,
            meta={"records_consumed": 10 * index},
        )
    return save


def save_world(length):
    def save(root):
        applied = WORLD_CADENCE[:length]
        WorldCheckpoint(root).save(world(applied), applied)
    return save


def rerun_world(root):
    ExecutionEngine(world_checkpoint_dir=root).run([])
    save_world(2)(root)


def nothing(root):
    pass


def put_cache_entry(root):
    ResultCache(root).put(CACHE_KEY, RESULT)


def write_two_dumps(root):
    RecordArchive(root).write_dump([dump_record("rrc00"), dump_record("rrc01")])


#: name -> (prepare the old state, the operation, observe, next run)
OPERATIONS = {
    "write_part+merge_parts": (nothing, fresh_store, observe_store, None),
    "re-merge": (remerge_prepare,
                 lambda root: merge_parts(root, list(PART_ATOMS)),
                 observe_store, None),
    "first-stream-save": (nothing, save_stream(1), observe_stream, None),
    "second-stream-save": (save_stream(1), save_stream(2), observe_stream,
                           None),
    "world-save": (save_world(1), save_world(2), observe_world, rerun_world),
    "cache-put": (nothing, put_cache_entry, observe_cache, None),
    "write_dump": (nothing, write_two_dumps, observe_archive, None),
}


class HalfWritten:
    """A temp handle whose process dies once ``budget`` bytes are in."""

    def __init__(self, handle, budget):
        self.handle, self.budget = handle, budget

    def write(self, data):
        if len(data) >= self.budget:
            self.handle.write(data[:self.budget])
            self.handle.flush()
            os._exit(KILLED)
        self.budget -= len(data)
        return self.handle.write(data)

    def __getattr__(self, name):
        return getattr(self.handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return self.handle.__exit__(*exc_info)


def record_sizes(operation, root, out):
    """Child body: run ``operation``, writing each call's size to ``out``."""
    real_replace = os.replace
    sizes = []

    def replace(source, target):
        sizes.append(os.path.getsize(source))
        real_replace(source, target)

    os.replace = replace
    operation(root)
    out.write_text(json.dumps(sizes))


def kill_at(operation, root, call, point, size):
    """Child body: run ``operation``, dying at ``point`` of ``call``."""
    real_open, real_replace = open, os.replace
    calls = {"open": 0, "replace": 0}

    def opener(file, mode="r", *args, **kwargs):
        handle = real_open(file, mode, *args, **kwargs)
        calls["open"] += 1
        if calls["open"] == call:
            return HalfWritten(handle, size // 2)
        return handle

    def replace(source, target):
        calls["replace"] += 1
        if calls["replace"] == call and point == "complete":
            os._exit(KILLED)
        real_replace(source, target)
        if calls["replace"] == call and point == "replaced":
            os._exit(KILLED)

    if point == "half":
        durable.open = opener  # shadows the builtin in atomic_file
    os.replace = replace
    operation(root)


@pytest.mark.parametrize("name", list(OPERATIONS))
def test_a_kill_at_any_step_leaves_old_new_or_a_typed_error(tmp_path, name):
    prepare, operation, observe, rerun = OPERATIONS[name]
    rerun = rerun or operation
    template = tmp_path / "template"
    template.mkdir()
    prepare(template)

    def copy(label):
        root = tmp_path / label
        shutil.copytree(template, root)
        return root

    old = observe(copy("old"))
    done = copy("new")
    operation(done)
    new = observe(done)
    assert new != old

    sizes_file = tmp_path / "sizes.json"
    assert in_child(lambda: record_sizes(
        operation, copy("sizes"), sizes_file)) == 0
    sizes = json.loads(sizes_file.read_text())
    assert sizes

    for call, size in enumerate(sizes, start=1):
        for point in ("half", "complete", "replaced"):
            root = copy(f"kill-{call}-{point}")
            code = in_child(
                lambda: kill_at(operation, root, call, point, size)
            )
            where = f"{name}: call {call} of {len(sizes)}, {point}"
            assert code == KILLED, where
            assert len(temps(root)) == (point != "replaced"), where
            seen = observe(root)
            for key in seen.keys() | old.keys() | new.keys():
                assert seen.get(key) in (
                    old.get(key), new.get(key), TYPED_ERROR
                ), where
            rerun(root)
            assert temps(root) == [], where
            assert observe(root) == new, where
