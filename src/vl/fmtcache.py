"""`vl fmt`'s record of the source texts it has found canonical: one empty
marker file per text, `fmt/<fingerprint>/<digest>` under the cache root.  The
digest is the sha256 of the text as UTF-8, the fingerprint a sha256 over the
bytes of this package's modules, so any change to vl starts afresh.  A marker
is a cache entry, not an output: markers change no output, and one that
cannot be created is left out.  The first marker of a fingerprint deletes
the others not modified for `STALE_DAYS`, which costs their vl one cold run.
Only `vl fmt` loads this module."""

from __future__ import annotations

import os
from pathlib import Path

from .diagnostics import cache_root, sha256

STALE_DAYS = 30


def marks_dir() -> Path | None:
    """The directory of this vl's markers; None, and no cache, when its
    modules are not there as source or cannot be read, or there is no home
    directory."""
    try:
        package = Path(__file__).parent
        modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
        if not modules:
            return None
        return cache_root() / "fmt" / sha256(b"".join((package / name).read_bytes() for name in modules))
    except (OSError, RuntimeError):  # RuntimeError: Path.home() without a home
        return None


def mark(marker: Path) -> None:
    """Record that `marker`'s text is canonical, unless the cache cannot hold it."""
    try:
        try:
            marker.touch()
        except FileNotFoundError:  # the first marker of this fingerprint
            marker.parent.mkdir(parents=True, exist_ok=True)
            marker.touch()
            _prune(marker.parent)
    except OSError:
        pass


def _prune(marks: Path) -> None:
    """Delete the directories beside `marks` not modified for `STALE_DAYS`."""
    import shutil
    import time

    cutoff = time.time() - STALE_DAYS * 24 * 60 * 60
    for entry in os.scandir(marks.parent):
        if entry.name != marks.name and entry.is_dir(follow_symlinks=False) and entry.stat(follow_symlinks=False).st_mtime < cutoff:
            shutil.rmtree(entry.path, ignore_errors=True)
