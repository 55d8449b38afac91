"""Orphaned temp-file sweeping under a store's tree.

A sweep worker killed mid-write leaves ``*.tmp<pid>-<hex>`` litter next
to its part segments — harmless to correctness (renames are atomic,
the manifest lands last) but accumulating across re-runs.  The sweep
(:func:`repro.util.durable.sweep_stale_tmp`) must remove exactly the
dead writers' files: live pids and non-temp names stay untouched.
"""

import os

from repro.store.writer import PARTS_DIR, merge_parts, part_dir, write_part
from repro.util.durable import sweep_stale_tmp


def seed_part(root, job_key, computation):
    """Write one complete part for ``job_key``."""
    return write_part(
        root,
        job_key,
        [{"key": f"{job_key}:base", "atoms": computation.atoms,
          "label": job_key}],
    )


def test_dead_writer_litter_is_removed(tmp_path):
    target = tmp_path / "parts" / "job-a"
    target.mkdir(parents=True)
    # pid 2**22 - 1 is the ceiling of the default pid space — certainly
    # not a live writer of ours.
    dead = target / f"shard-0000.seg.tmp{2**22 - 1}"
    dead.write_bytes(b"partial")
    survivor = target / "shard-0000.seg"
    survivor.write_bytes(b"complete")
    assert sweep_stale_tmp(tmp_path / "parts") == 1
    assert not dead.exists()
    assert survivor.exists()


def test_live_writer_tmp_is_kept(tmp_path):
    target = tmp_path / "parts" / "job-b"
    target.mkdir(parents=True)
    live = target / f"manifest.json.tmp{os.getpid()}"
    live.write_bytes(b"in flight")
    assert sweep_stale_tmp(tmp_path / "parts") == 0
    assert live.exists()


def test_non_pid_suffixes_are_ignored(tmp_path):
    target = tmp_path / "parts"
    target.mkdir()
    odd = target / "notes.tmpl"  # matches *.tmp* but has no pid
    odd.write_bytes(b"keep me")
    named = target / "file.tmpabc"
    named.write_bytes(b"keep me too")
    assert sweep_stale_tmp(target) == 0
    assert odd.exists() and named.exists()


def test_cache_style_uuid_suffix_of_dead_pid_is_removed(tmp_path):
    # ResultCache/WorldCheckpoint temp names append "-<uuid>" after the
    # pid; the sweep parses only the leading digit run.
    target = tmp_path / "parts"
    target.mkdir()
    dead = target / f"entry.json.tmp{2**22 - 1}-deadbeef"
    dead.write_bytes(b"partial")
    assert sweep_stale_tmp(target) == 1
    assert not dead.exists()


def test_missing_directory_is_a_noop(tmp_path):
    assert sweep_stale_tmp(tmp_path / "nowhere") == 0


def test_merge_parts_sweeps_before_merging(tmp_path, atoms_2024):
    seed_part(tmp_path, "job-a", atoms_2024)
    litter = part_dir(tmp_path, "job-a") / f"x.seg.tmp{2**22 - 1}"
    litter.write_bytes(b"orphan")
    merge_parts(tmp_path, ["job-a"])
    assert not litter.exists()
    assert (tmp_path / "manifest.json").is_file()


def test_write_part_sweeps_its_own_directory(tmp_path, atoms_2024):
    target = part_dir(tmp_path, "job-c")
    target.mkdir(parents=True)
    litter = target / f"manifest.json.tmp{2**22 - 1}"
    litter.write_bytes(b"orphan")
    seed_part(tmp_path, "job-c", atoms_2024)
    assert not litter.exists()
    assert (target / "manifest.json").is_file()


def test_parts_dir_constant_matches_layout(tmp_path, atoms_2024):
    seed_part(tmp_path, "job-d", atoms_2024)
    assert (tmp_path / PARTS_DIR / "job-d").is_dir()
