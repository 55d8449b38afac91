"""Merging sweep parts as columns against merging rebuilt atoms.

:func:`rebuild_merge` is the merge as it was before parts were merged
as columns: every part snapshot is rebuilt with ``AtomStore.atoms`` and
written again with ``add_snapshot``.  ``merge_parts`` copies prefix and
atom columns and remaps path ids in the order ``add_snapshot`` interns
them, so both must write the same bytes, file for file, whenever the
parts' shards have the reference writer's ``shard_rows``.  A malformed
part must fail the column merge with :class:`StoreError`.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings

from repro.bgp.rib import RIBSnapshot
from repro.core.atoms import compute_atoms
from repro.core.pipeline import compute_policy_atoms
from repro.store import AtomStore, StoreError, StoreWriter, merge_parts
from repro.store.format import (
    BYTE_ORDER,
    COLUMN_COUNTS,
    HEADER,
    PREFIX_RECORD,
    column_padding,
    digest,
)
from repro.store.writer import MANIFEST_NAME, PARTS_DIR, part_dir
from tests.core.test_kernel import snapshots

#: Small shards, so every snapshot spans several of them.
SHARD_ROWS = 7


def write_parts(root, parts, shard_rows=SHARD_ROWS):
    """Write ``{job key: [(snapshot key, atoms, metadata)]}`` as parts."""
    for job_key, items in parts.items():
        writer = StoreWriter(part_dir(root, job_key), shard_rows=shard_rows)
        for key, atoms, meta in items:
            writer.add_snapshot(key, atoms, **meta)
        writer.close()


def rebuild_merge(root, job_keys, shard_rows=SHARD_ROWS):
    """The reference merge: rebuild every part snapshot, write it again."""
    writer = StoreWriter(root, shard_rows=shard_rows)
    for job_key in job_keys:
        with AtomStore(part_dir(root, job_key)) as part:
            for entry in part.snapshots():
                writer.add_snapshot(
                    entry.key,
                    part.atoms(entry.key),
                    label=entry.label,
                    role=entry.role,
                    year=entry.year,
                    month=entry.month,
                    family=entry.family,
                    feed=entry.feed,
                    report=entry.report,
                )
    return writer.close()


def store_files(root):
    """Every file of a store outside its parts, by relative path."""
    root = Path(root)
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.relative_to(root).parts[0] != PARTS_DIR
    }


def assert_merges_identical(base, parts):
    """Column-merge and rebuild-merge ``parts`` under ``base``."""
    columns, rebuilt = Path(base) / "columns", Path(base) / "rebuilt"
    write_parts(columns, parts)
    shutil.copytree(columns / PARTS_DIR, rebuilt / PARTS_DIR)
    merge_parts(columns, list(parts))
    rebuild_merge(rebuilt, list(parts))
    ours, reference = store_files(columns), store_files(rebuilt)
    assert ours.keys() == reference.keys()
    for name in reference:
        assert ours[name] == reference[name], name
    return ours


@pytest.fixture(scope="module")
def atoms_2004(records_2004):
    return compute_policy_atoms(records_2004).atoms


class TestColumnMerge:
    def test_multi_part_store_is_byte_identical(self, tmp_path, atoms_2004,
                                                atoms_2024):
        feed = {"max_prefixes": 10, "full_feed": 3}
        report = {"fullfeed_peers": 3, "removed_peers": {"65001": "addpath"}}
        files = assert_merges_identical(tmp_path, {
            "job-1": [
                ("2004-01:base", atoms_2004,
                 dict(label="2004-01", role="base", year=2004.0, month=1,
                      family=4, feed=feed, report=report)),
                ("2004-01:8h", atoms_2024.atoms,
                 dict(label="2004-01", role="8h", year=2004.0, month=1)),
            ],
            "job-2": [
                ("2024-10:base", atoms_2024.atoms,
                 dict(label="2024-10", role="base", year=2024.75,
                      month=10, feed=feed)),
                ("2024-10:1w", atoms_2004,
                 dict(label="2024-10", role="1w", year=2024.75, month=10)),
            ],
        })
        # Several shards per snapshot, and the paths shared across parts.
        manifest = json.loads(files[MANIFEST_NAME])
        assert all(len(entry["shards"]) > 2 for entry in manifest["snapshots"])
        with AtomStore(tmp_path / "columns") as store:
            assert store.atoms("2024-10:1w").by_prefix.keys() == (
                atoms_2004.by_prefix.keys()
            )

    @given(snapshots(), snapshots())
    @settings(max_examples=25, deadline=None)
    def test_generated_snapshots_are_byte_identical(self, first, second):
        one = compute_atoms(RIBSnapshot.from_records(first))
        two = compute_atoms(RIBSnapshot.from_records(second))
        with tempfile.TemporaryDirectory() as tmp:
            assert_merges_identical(tmp, {
                "a": [("a:base", one, {}), ("a:8h", two, {})],
                "b": [("b:base", two, {}), ("b:8h", one, {})],
            })


# ----------------------------------------------------------------------
# Malformed parts
# ----------------------------------------------------------------------

def one_part(root, atoms):
    write_parts(root, {"job": [("snap:base", atoms, {})]})
    return part_dir(root, "job")


def shard_geometry(part):
    """``(relpath, rows)`` of the part's first shard."""
    manifest = json.loads((part / MANIFEST_NAME).read_text())
    shard = manifest["snapshots"][0]["shards"][0]
    return shard["file"], shard["rows"]


def rewrite_segment(part, relpath, edit):
    """Apply ``edit(bytearray)`` to a segment and re-stamp its digest,
    so the damage gets past the integrity check to the structure."""
    path = part / relpath
    image = bytearray(path.read_bytes())
    edit(image)
    path.write_bytes(bytes(image))
    manifest_path = part / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["segments"][relpath]["sha256"] = digest(bytes(image))
    manifest_path.write_text(json.dumps(manifest))


def column_offset(rows, column):
    """Byte offset of row 0 of u32 ``column`` (0 = atom ids) in a shard."""
    start = COLUMN_COUNTS.size + rows * PREFIX_RECORD.size
    start += column_padding(rows)
    return HEADER.size + start + 4 * rows * column


def edit_manifest(part, field, delta):
    manifest_path = part / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    manifest["snapshots"][0][field] += delta
    manifest_path.write_text(json.dumps(manifest))


def put_u32(offset, value):
    def edit(image):
        image[offset:offset + 4] = value.to_bytes(4, BYTE_ORDER)
    return edit


class TestMalformedParts:
    def merge_fails(self, root, match):
        with pytest.raises(StoreError, match=match):
            merge_parts(root, ["job"])

    def test_path_id_beyond_the_table(self, tmp_path, atoms_2024):
        part = one_part(tmp_path, atoms_2024.atoms)
        relpath, rows = shard_geometry(part)
        rewrite_segment(part, relpath, put_u32(column_offset(rows, 1), 10**6))
        self.merge_fails(tmp_path, "path id beyond the path table")

    def test_atom_id_out_of_order(self, tmp_path, atoms_2024):
        part = one_part(tmp_path, atoms_2024.atoms)
        relpath, rows = shard_geometry(part)
        rewrite_segment(part, relpath, put_u32(column_offset(rows, 0), 3))
        self.merge_fails(tmp_path, "appears before")

    @pytest.mark.parametrize("field, delta, match", [
        ("atoms", 1, "atoms, manifest says"),
        ("atoms", -1, "atoms, manifest says"),
        ("prefixes", 1, "prefixes, manifest says"),
    ])
    def test_wrong_count(self, tmp_path, atoms_2024, field, delta, match):
        part = one_part(tmp_path, atoms_2024.atoms)
        edit_manifest(part, field, delta)
        self.merge_fails(tmp_path, match)

    def test_flipped_byte(self, tmp_path, atoms_2024):
        part = one_part(tmp_path, atoms_2024.atoms)
        relpath, rows = shard_geometry(part)
        path = part / relpath
        image = bytearray(path.read_bytes())
        image[column_offset(rows, 1)] ^= 0x01
        path.write_bytes(bytes(image))
        self.merge_fails(tmp_path, "sha256")
