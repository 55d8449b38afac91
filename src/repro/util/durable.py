"""Durable writes: one atomic file writer and one stale-temp sweep.

Every file the package persists goes through :func:`atomic_file`: it
writes ``<name>.tmp<pid>-<uuid4 hex>`` beside the target and renames it
into place with ``os.replace`` only on a clean exit, so a reader sees
the old file or the new one, and no two writers ever share a temp.  A
writer killed before its rename leaves the temp behind;
:func:`sweep_stale_tmp` removes the temps whose writer pid is dead.
The writer fsyncs nothing, so a finished write survives the death of
its process, not a power loss.  The one exception is the result cache,
the sweep's resume path: :meth:`repro.engine.cache.ResultCache.put`
flushes and fsyncs its temp inside the ``with`` block, before the
rename.
"""

from __future__ import annotations

import os
import re
import uuid
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Iterator, Union

from repro.obs import get_tracer

#: A temp name's tail: ``.tmp``, the writer's pid (at most nine digits,
#: so it always fits ``os.kill``), then ``-<uuid4 hex>``.  Names without
#: the uuid, which older writers made, are swept the same way.
_TMP_TAIL = re.compile(r"\.tmp(\d{1,9})(?:-[0-9a-f]+)?$")


@contextmanager
def atomic_file(path: Union[str, os.PathLike]) -> Iterator[BinaryIO]:
    """Write ``path`` in one step through a binary handle.

    The handle writes a temp file beside ``path`` (missing parent
    directories are created).  A clean exit from the ``with`` block
    closes it and renames it onto ``path``; any error removes it and
    leaves ``path`` as it was.
    """
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.parent / f"{target.name}.tmp{os.getpid()}-{uuid.uuid4().hex}"
    try:
        with open(tmp, "wb") as handle:
            yield handle
        os.replace(tmp, target)
    except BaseException:
        try:
            tmp.unlink()
        except OSError:  # never created
            pass
        raise


def _pid_alive(pid: int) -> bool:
    """True when ``pid`` names a live process (or one we cannot probe)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except OSError:  # EPERM: alive, owned by another user
        pass
    return True


def sweep_stale_tmp(directory: Union[str, os.PathLike]) -> int:
    """Remove dead writers' temp files under ``directory``; count them.

    A temp file is a name ending ``.tmp<pid>`` or ``.tmp<pid>-<hex>``;
    it is removed when no process ``<pid>`` is alive.  A live pid's
    temp (a writer still mid-write, this process's own included) and
    every other name stay.  Removals are counted as
    ``durable.tmp_swept``.
    """
    base = Path(directory)
    if not base.is_dir():
        return 0
    removed = 0
    for tmp in base.rglob("*.tmp*"):
        match = _TMP_TAIL.search(tmp.name)
        if match is None or _pid_alive(int(match.group(1))):
            continue
        try:
            tmp.unlink()
        except OSError:  # a directory of that name, or another sweeper won
            continue
        removed += 1
    if removed:
        tracer = get_tracer()
        if tracer.enabled:
            tracer.count("durable.tmp_swept", removed)
    return removed
