"""The one crash-durable atomic file write (result cache and ledgers).

``tmp + os.replace`` alone is atomic against *process* crashes but not
against *host* crashes: without an fsync before the rename, journaling
filesystems may surface an empty-but-renamed file after power loss.
:func:`atomic_write_bytes` fsyncs the temp file, renames it over the
target, then fsyncs the directory (best-effort) so the rename itself
survives.

Harness, not simulator: imports only the standard library (so ``obs``
can use it too) and is excluded from the result-cache code fingerprint.
"""

from __future__ import annotations

import os
import pathlib
import tempfile


def atomic_write_bytes(path: str | os.PathLike, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically and durably.

    A reader sees the old file or the new one, never a torn mix; a
    failed write leaves the old file and no temp file behind.
    """
    path = pathlib.Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".",
                                    suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
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
