"""Content-addressed result cache.

Every :class:`~repro.engine.jobs.SnapshotJob` has a stable digest over
its full content — world params, birth instant, warmup cadence,
snapshot instants, family, sanitization config and the analysis flags —
salted with a code-version string.  Two jobs with the same digest are
guaranteed to compute the same :class:`QuarterResult` (the simulator is
deterministic in exactly those inputs), so repeated sweeps can skip
recomputation entirely.

The cache is also how a killed sweep resumes: every finished job is
put the moment it completes, so a rerun answers those jobs from disk
and computes only the rest.

Entries are one JSON file each under ``<root>/<aa>/<digest>.json``:
``{"key", "digest", "result"}``, where ``digest`` is the SHA-256 of
the result payload's JSON.  Each is written with
:func:`~repro.util.durable.atomic_file` and fsynced before its rename;
opening a cache sweeps dead writers' temp files.  A read returns the
stored result or a miss: an entry that is not an object, names another
key, has no result object or fails its digest (a torn write, bit rot,
an entry written before digests) is deleted and recomputed — never
crashed on, never taken for a different result.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from repro.engine.jobs import (
    QuarterResult,
    SnapshotJob,
    result_from_payload,
    result_to_payload,
)
from repro.util.durable import atomic_file, sweep_stale_tmp

#: Bump whenever atom computation, sanitization, or the simulator
#: change semantics: old cache entries silently become unreachable.
#: v2: job spec gained the ``incremental`` component and results carry
#: incremental-maintenance counters.
#: v3: the canonical form tags node and dict-key types, so ``{1: x}``
#: vs ``{"1": x}`` and dicts vs literal pair lists no longer collide.
#: v4: the ``incremental`` spec component and result counters are gone.
CACHE_SALT = "repro-engine-v4"


def _canonical(value: Any) -> Any:
    """Normalize nested containers so json.dumps is digest-stable.

    The encoding must be *injective* over distinct job specs, not just
    stable: every container is tagged with its node type ("map"/"seq")
    and every dict key with its Python type, so a canonicalized dict
    can never collide with a literal list of pairs and ``{1: x}`` /
    ``{"1": x}`` produce different digests.  Keys sort by their
    ``[type name, str(key)]`` form, which keeps mixed-type key sets
    (e.g. the per-family ``max_prefix_length`` ints) orderable.
    """
    if isinstance(value, dict):
        return [
            "map",
            sorted(
                ([type(k).__name__, str(k)], _canonical(v))
                for k, v in value.items()
            ),
        ]
    if isinstance(value, (list, tuple)):
        return ["seq", [_canonical(v) for v in value]]
    return value


def content_digest(payload: Any, salt: str = CACHE_SALT) -> str:
    """Stable hex digest of any JSON-able payload under ``salt``.

    The content-addressing primitive behind :func:`job_digest` and the
    ``repro.serve`` response cache: equal payloads (up to dict ordering
    and tuple/list spelling) digest identically, distinct payloads
    never collide (see :func:`_canonical`).
    """
    body = {"salt": salt, "body": _canonical(payload)}
    encoded = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def job_digest(job: SnapshotJob, salt: str = CACHE_SALT) -> str:
    """Stable hex digest identifying a job's full computation content."""
    return content_digest({"spec": job.spec()}, salt=salt)


def _payload_digest(payload: Dict[str, Any]) -> str:
    """SHA-256 of a result payload's JSON, as a cache entry stores it.

    JSON keeps key order and round-trips every float, so a payload
    read back from an intact entry encodes to the very same text.
    """
    encoded = json.dumps(payload, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()


class ResultCache:
    """Persist job results on disk, keyed by :func:`job_digest`."""

    def __init__(self, root: os.PathLike):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        sweep_stale_tmp(self.root)

    def _path(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[QuarterResult]:
        """The cached result, or None on a miss or a damaged entry."""
        path = self._path(key)
        try:
            with open(path, "r", encoding="utf-8") as handle:
                entry = json.load(handle)
            if not isinstance(entry, dict) or entry.get("key") != key:
                raise ValueError("cache entry names another key")
            payload = entry.get("result")
            if not isinstance(payload, dict):
                raise ValueError("cache entry holds no result")
            if entry.get("digest") != _payload_digest(payload):
                raise ValueError("cache entry fails its digest")
            return result_from_payload(payload)
        except FileNotFoundError:
            return None
        except (ValueError, KeyError, TypeError, OSError):
            # Torn write, stale format, bit rot: discard and recompute.
            try:
                path.unlink()
            except OSError:
                pass
            return None

    def put(self, key: str, result: QuarterResult) -> Path:
        """Atomically and durably persist one result.

        The temp is flushed and fsynced before its rename, so the bytes
        are on disk by the time the entry appears under its name.
        """
        path = self._path(key)
        payload = result_to_payload(result)
        entry = {
            "key": key,
            "digest": _payload_digest(payload),
            "result": payload,
        }
        with atomic_file(path) as handle:
            handle.write(
                json.dumps(entry, separators=(",", ":")).encode("utf-8")
            )
            handle.flush()
            os.fsync(handle.fileno())
        return path

    def __contains__(self, key: str) -> bool:
        return self._path(key).exists()

    def __len__(self) -> int:
        return sum(1 for _ in self.root.glob("*/*.json"))
