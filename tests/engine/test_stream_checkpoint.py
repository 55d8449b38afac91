"""Tests for the live pipeline's atomic cursor checkpoint (StreamCheckpoint)."""

import json

import pytest

from repro.engine.checkpoint import (
    STATE_NAME,
    STREAM_CHECKPOINT_VERSION,
    StreamCheckpoint,
    StreamCheckpointError,
)

CONFIG = {"window_seconds": 900, "family": None}

META = {
    "records_consumed": 42,
    "stream_digest": "ab" * 32,
    "vantage_points": [["rrc00", 1, "10.9.1.1"]],
}


def test_load_without_checkpoint_returns_none(tmp_path):
    assert StreamCheckpoint(tmp_path / "none").load() is None


def test_save_load_round_trip(tmp_path):
    checkpoint = StreamCheckpoint(tmp_path)
    checkpoint.save(3, 3600, CONFIG, meta=META)

    state = checkpoint.load(config=CONFIG)
    assert state == {
        "version": STREAM_CHECKPOINT_VERSION,
        "window_index": 3,
        "window_end": 3600,
        "config": CONFIG,
        "meta": META,
    }
    # the cursor is the whole checkpoint: no routing table beside it
    assert [p.name for p in tmp_path.iterdir()] == [STATE_NAME]


def test_new_save_replaces_previous_boundary(tmp_path):
    checkpoint = StreamCheckpoint(tmp_path)
    checkpoint.save(1, 900, CONFIG, meta=META)
    checkpoint.save(2, 1800, CONFIG, meta={**META, "records_consumed": 50})

    state = checkpoint.load()
    assert (state["window_index"], state["window_end"]) == (2, 1800)
    assert state["meta"]["records_consumed"] == 50


def test_config_mismatch_refuses_resume(tmp_path):
    checkpoint = StreamCheckpoint(tmp_path)
    checkpoint.save(1, 900, CONFIG)
    with pytest.raises(StreamCheckpointError, match="different live"):
        checkpoint.load(config={**CONFIG, "window_seconds": 60})


def test_version_mismatch_is_an_error(tmp_path):
    checkpoint = StreamCheckpoint(tmp_path)
    checkpoint.save(1, 900, CONFIG)
    state_path = tmp_path / STATE_NAME
    state = json.loads(state_path.read_text())
    state["version"] = STREAM_CHECKPOINT_VERSION + 1
    state_path.write_text(json.dumps(state))
    with pytest.raises(StreamCheckpointError, match="version"):
        checkpoint.load()


def test_version_1_directory_is_refused(tmp_path):
    """The RIB-carrying layout fails typed, naming its version."""
    (tmp_path / STATE_NAME).write_text(json.dumps({
        "version": 1, "window_index": 1, "window_end": 900,
        "rib_file": "rib-00000001.jsonl.gz", "config": CONFIG,
        "counters": {}, "meta": META,
    }))
    (tmp_path / "rib-00000001.jsonl.gz").write_bytes(b"")
    with pytest.raises(StreamCheckpointError, match="version 1 "):
        StreamCheckpoint(tmp_path).load(config=CONFIG)


def test_corrupt_state_file_is_an_error(tmp_path):
    checkpoint = StreamCheckpoint(tmp_path)
    checkpoint.save(1, 900, CONFIG)
    (tmp_path / STATE_NAME).write_text("{not json", encoding="utf-8")
    with pytest.raises(StreamCheckpointError, match="corrupt"):
        checkpoint.load()


@pytest.mark.parametrize("text", ["[]", "null", "3"])
def test_state_that_is_not_an_object_is_an_error(tmp_path, text):
    (tmp_path / STATE_NAME).write_text(text, encoding="utf-8")
    with pytest.raises(StreamCheckpointError, match="version None"):
        StreamCheckpoint(tmp_path).load()


def test_no_tmp_litter_after_save(tmp_path):
    checkpoint = StreamCheckpoint(tmp_path)
    checkpoint.save(1, 900, CONFIG)
    leftovers = [p.name for p in tmp_path.iterdir() if ".tmp" in p.name]
    assert leftovers == []


def test_clear_forgets_the_state(tmp_path):
    checkpoint = StreamCheckpoint(tmp_path)
    checkpoint.save(1, 900, CONFIG, meta=META)
    checkpoint.clear()
    assert checkpoint.load() is None
    assert list(tmp_path.iterdir()) == []
    checkpoint.clear()  # idempotent
