"""Atomic artifact writes.

Every artifact the harness writes (checkpoints, logs, resolved configs,
command outputs, IDX files) goes through ``atomic_write``: the bytes go to
a temporary file in the destination's directory, which replaces the
destination only once the writer has finished. A writer that raises
leaves the previous file, if any, byte for byte, and no temporary file.
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager


@contextmanager
def atomic_write(path: str, binary: bool = False):
    """Yield a file handle whose contents replace ``path`` on a clean exit.

    The temporary file sits beside ``path``, so ``os.replace`` is a rename
    within one file system. It is not fsynced: the guarantee is against a
    writer that fails or a process that dies, not against power loss.
    """
    tmp = f"{path}.{os.getpid()}-{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, "xb" if binary else "x") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
