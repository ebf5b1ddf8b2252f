"""Crash-durable atomic file writes shared by cache, broker and ledger.

``tmp + os.replace`` alone is atomic against *process* crashes but not
against *host* crashes: without an fsync before the rename, journaling
filesystems may surface an empty-but-renamed file after power loss.
:func:`atomic_write_bytes` fsyncs the tmp file (and, best-effort, its
directory) before the rename.  ``REPRO_FSYNC=0`` disables the fsyncs —
the test suite runs with them off, durability tests turn them back on.

This is also the single choke point where the fault injector mangles
data on its way to disk (partial writes, bit flips) and raises
transient I/O errors for broker sites, so every consumer of atomic
writes is chaos-testable through one seam.
"""

from __future__ import annotations

import os
import pathlib
import tempfile

from repro import settings
from repro.faults import injector as _injector


def atomic_write_bytes(path: str | os.PathLike, data: bytes, *,
                       site: str | None = None,
                       fsync: bool | None = None) -> None:
    """Write ``data`` to ``path`` atomically and (by default) durably.

    ``site`` names the call seam for the fault injector ("cache.put",
    "broker.submit", ...); transient I/O errors are only injected at
    ``broker.*`` sites (broker calls are wrapped in a retry policy;
    cache/trace writes are not, their corruption is caught by content
    digests instead).  ``fsync=None`` defers to ``REPRO_FSYNC``.
    """
    path = pathlib.Path(path)
    if site is not None:
        inj = _injector.active()
        if inj is not None:
            if site.startswith("broker."):
                inj.maybe_io_error(site)
            data = inj.mangle(site, data)
    if fsync is None:
        fsync = settings.current().fsync
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    if fsync:
        try:
            dir_fd = os.open(path.parent, os.O_RDONLY)
        except OSError:
            return  # platforms without directory fds: file fsync stands
        try:
            os.fsync(dir_fd)
        except OSError:
            pass
        finally:
            os.close(dir_fd)
