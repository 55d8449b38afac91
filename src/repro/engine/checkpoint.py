"""Checkpoint/resume for long sweeps and live streams.

A :class:`CheckpointLog` is an append-only JSONL file: one line per
completed job, ``{"key": <digest>, "label": ..., "result": {...}}``.
The scheduler appends (and flushes) a line the moment a job finishes,
so a killed multi-year sweep loses at most the jobs in flight.  On the
next run the engine loads the log, restores every completed quarter
without recomputation, and continues from the first missing one.

A truncated final line — the signature of a hard kill mid-write — is
silently dropped on load; everything before it is preserved.

:class:`StreamCheckpoint` is the live pipeline's counterpart
(:mod:`repro.stream.live`): instead of appending completed jobs it
replaces one small *state* — the replay cursor at the last window
boundary — atomically on every save.  It holds no routing table: a
pipeline killed at any instant resumes by re-applying the stream's
records up to the cursor, which rebuilds the boundary RIB exactly.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import pickle
import struct
from dataclasses import asdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.engine.jobs import (
    QuarterResult,
    result_from_payload,
    result_to_payload,
)
from repro.util.durable import atomic_file, sweep_stale_tmp


class CheckpointLog:
    """Append-only completion log keyed by job digest."""

    def __init__(self, path: os.PathLike):
        self.path = Path(path)

    def load(self) -> Dict[str, QuarterResult]:
        """{job digest: result} for every intact line of the log."""
        restored: Dict[str, QuarterResult] = {}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        entry = json.loads(line)
                        restored[entry["key"]] = result_from_payload(
                            entry["result"]
                        )
                    except (ValueError, KeyError, TypeError):
                        # Torn write at the kill instant; keep the rest.
                        continue
        except FileNotFoundError:
            pass
        return restored

    def record(self, key: str, result: QuarterResult) -> None:
        """Append one completed job, durably."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        entry = {
            "key": key,
            "label": result.label,
            "result": result_to_payload(result),
        }
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(entry, separators=(",", ":")) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def clear(self) -> None:
        """Forget all completed jobs (e.g. after a finished sweep)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# Streaming checkpoints
# ----------------------------------------------------------------------

#: Schema version of the stream-checkpoint state file.  Version 1 also
#: kept the whole RIB beside it; version 2 is the replay cursor alone.
STREAM_CHECKPOINT_VERSION = 2

#: Name of the state file inside a stream-checkpoint directory.
STATE_NAME = "state.json"


class StreamCheckpointError(RuntimeError):
    """A checkpoint directory holds state this code cannot resume."""


class StreamCheckpoint:
    """Atomically replaced replay cursor for a live pipeline.

    The directory holds one file, ``state.json``: the last saved
    window's index and end, the config payload, and the resume
    bookkeeping the pipeline owns (``meta``: records consumed, a digest
    of their identities, the vantage-point panel).  No routing table is
    stored — a resumed pipeline re-reads the stream up to the cursor,
    and applying those records rebuilds the boundary RIB exactly.

    :meth:`save` swaps ``state.json`` in with
    :func:`~repro.util.durable.atomic_file`, so a kill anywhere leaves
    the previous state or the new one, losing at most the window in
    flight; opening the directory sweeps a killed save's temp file.
    :meth:`load` returns None when no checkpoint exists and raises
    :class:`StreamCheckpointError` when the file is corrupt, of another
    version, or was saved under a different ``config`` (resuming under
    a different window size would silently change results).
    """

    def __init__(self, directory: os.PathLike):
        self.directory = Path(directory)
        sweep_stale_tmp(self.directory)

    def _state_path(self) -> Path:
        return self.directory / STATE_NAME

    def save(
        self,
        window_index: int,
        window_end: int,
        config: Dict[str, Any],
        meta: Optional[Dict[str, Any]] = None,
    ) -> Path:
        """Persist one window boundary; returns the state-file path.

        ``config`` is stored verbatim and checked on resume; ``meta`` is
        returned untouched by :meth:`load`.
        """
        state = {
            "version": STREAM_CHECKPOINT_VERSION,
            "window_index": window_index,
            "window_end": window_end,
            "config": config,
            "meta": dict(meta or {}),
        }
        state_path = self._state_path()
        with atomic_file(state_path) as handle:
            handle.write(
                (json.dumps(state, indent=1, sort_keys=True) + "\n").encode(
                    "utf-8"
                )
            )
        return state_path

    def load(
        self, config: Optional[Dict[str, Any]] = None
    ) -> Optional[Dict[str, Any]]:
        """The saved state, or None when absent.

        When ``config`` is given it must equal the saved one — a
        resumed pipeline must window exactly like the run that wrote
        the checkpoint.
        """
        state_path = self._state_path()
        try:
            raw = state_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return None
        try:
            state = json.loads(raw)
        except ValueError as error:
            raise StreamCheckpointError(
                f"corrupt checkpoint state {state_path}: {error}"
            ) from error
        version = state.get("version") if isinstance(state, dict) else None
        if version != STREAM_CHECKPOINT_VERSION:
            raise StreamCheckpointError(
                f"unsupported checkpoint version {version!r} "
                f"(this build reads v{STREAM_CHECKPOINT_VERSION}); "
                "start from a fresh --checkpoint-dir"
            )
        if config is not None and state.get("config") != config:
            raise StreamCheckpointError(
                "checkpoint was written under a different live "
                "configuration; resume with the original settings or "
                "start from a fresh --checkpoint-dir"
            )
        return state

    def clear(self) -> None:
        """Forget the saved state."""
        try:
            self._state_path().unlink()
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# World-lineage checkpoints
# ----------------------------------------------------------------------

#: Magic bytes opening every world-checkpoint file.
WORLD_MAGIC = b"RPWC"

#: World-checkpoint format version; bump on layout or pickle changes.
WORLD_CHECKPOINT_VERSION = 1

#: File header: magic + version, followed by a raw 32-byte SHA-256 of
#: the gzip blob and the blob itself.
WORLD_HEADER = struct.Struct(">4sH")

#: Default save cadence: every N applied ``advance_to`` instants (one
#: quarter's stability suite is four instants).
DEFAULT_WORLD_STRIDE = 4


class WorldCheckpoint:
    """Persisted world states, keyed by (params, birth, cadence) lineage.

    A simulated world's state is a pure function of its
    :class:`~repro.topology.evolution.WorldParams`, its birth instant
    and the exact ``advance_to`` cadence applied since — the invariant
    the engine's per-process world cache already relies on.  This class
    makes that lineage durable: :meth:`save` snapshots a world at its
    applied cadence (digest-stamped, written with
    :func:`~repro.util.durable.atomic_file`), and
    :meth:`restore` hands a freshly forked worker the *nearest* saved
    prefix of a job's warmup so the cold start replays only the gap
    instead of the whole history.

    File names are fully content-addressed —
    ``world-<lineage16>-<length>-<cadence digest12>.ckpt`` — so lookup
    is an existence probe per candidate prefix length, longest first,
    and concurrent writers of the same lineage are idempotent.  Any
    damage (bad magic, version skew, digest or cadence mismatch,
    unpicklable blob) is treated as a miss: the file is dropped and the
    worker falls back to the next shorter prefix or a from-birth replay.
    Workers never sweep the directory; the engine does, once per run
    (:meth:`~repro.engine.scheduler.ExecutionEngine.run`).
    """

    def __init__(
        self, directory: os.PathLike, stride: int = DEFAULT_WORLD_STRIDE
    ):
        self.directory = Path(directory)
        self.stride = max(1, int(stride))

    # -- naming ---------------------------------------------------------

    @staticmethod
    def _lineage(params: Any, start: int) -> str:
        from repro.engine.cache import content_digest

        return content_digest(
            {"world": asdict(params), "start": int(start)},
            salt="repro-world-v1",
        )[:16]

    @staticmethod
    def _cadence_digest(cadence: Sequence[int]) -> str:
        packed = b"".join(int(when).to_bytes(8, "big") for when in cadence)
        return hashlib.sha256(packed).hexdigest()[:12]

    def path_for(
        self, params: Any, start: int, cadence: Sequence[int]
    ) -> Path:
        """The content-addressed file for one exact world state."""
        return self.directory / (
            f"world-{self._lineage(params, start)}-{len(cadence):06d}-"
            f"{self._cadence_digest(cadence)}.ckpt"
        )

    # -- save -----------------------------------------------------------

    def save(self, internet: Any, applied: Sequence[int]) -> Optional[Path]:
        """Snapshot a world at its applied cadence; None if it exists.

        The state is deterministic in the lineage, so an existing file
        is necessarily identical — skipping the write makes concurrent
        workers racing on the same boundary cheap and idempotent.
        """
        cadence = tuple(int(when) for when in applied)
        path = self.path_for(internet.params, internet.start, cadence)
        if path.exists():
            return None
        blob = gzip.compress(
            pickle.dumps(
                (cadence, internet), protocol=pickle.HIGHEST_PROTOCOL
            ),
            compresslevel=1,
            mtime=0,
        )
        with atomic_file(path) as handle:
            handle.write(
                WORLD_HEADER.pack(WORLD_MAGIC, WORLD_CHECKPOINT_VERSION)
            )
            handle.write(hashlib.sha256(blob).digest())
            handle.write(blob)
        return path

    # -- restore --------------------------------------------------------

    def restore(
        self, params: Any, start: int, cadence: Sequence[int]
    ) -> Optional[Tuple[Any, List[int]]]:
        """The saved world at the longest prefix of ``cadence``, or None.

        Returns ``(internet, applied)`` where ``applied`` is the list
        of instants the restored world has already walked — the same
        shape the engine's per-process world cache tracks.
        """
        instants = [int(when) for when in cadence]
        for length in range(len(instants), 0, -1):
            prefix = instants[:length]
            path = self.path_for(params, start, prefix)
            if not path.is_file():
                continue
            internet = self._load(path, tuple(prefix))
            if internet is not None:
                return internet, list(prefix)
        return None

    def _load(self, path: Path, expected_cadence: Tuple[int, ...]) -> Any:
        """Verify + unpickle one file; any damage is a silent miss."""
        try:
            data = path.read_bytes()
            magic, version = WORLD_HEADER.unpack_from(data, 0)
            if magic != WORLD_MAGIC:
                raise ValueError(f"bad world magic {magic!r}")
            if version != WORLD_CHECKPOINT_VERSION:
                raise ValueError(f"unsupported world version {version}")
            offset = WORLD_HEADER.size
            stamp = data[offset:offset + 32]
            blob = data[offset + 32:]
            if hashlib.sha256(blob).digest() != stamp:
                raise ValueError("world checkpoint digest mismatch")
            stored_cadence, internet = pickle.loads(gzip.decompress(blob))
            if tuple(stored_cadence) != expected_cadence:
                raise ValueError("world checkpoint cadence mismatch")
            return internet
        except Exception:
            # A corrupt checkpoint must never fail a sweep — the world
            # is always recomputable.  Drop the file so the next run
            # rewrites it cleanly.
            try:
                path.unlink()
            except OSError:  # pragma: no cover - best effort
                pass
            return None
