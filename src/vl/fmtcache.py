"""`vl fmt`'s record of its verdicts on source texts: one empty file per
text, `fmt/<fingerprint>/<digest>` under the cache root for a text found
canonical, and `<digest>.drift` beside it for one that parsed without
diagnostics but that formatting changes.  A text with any diagnostic gets
neither.  The digest is the sha256 of the text as UTF-8, the fingerprint a
sha256 over the bytes of this package's modules, so any change to vl starts
afresh.  An entry is a cache entry, not an output: entries change no output,
and one that cannot be created is left out.  The first entry of a
fingerprint deletes the others not modified for `STALE_DAYS`, which costs
their vl one cold run.  Only `vl fmt` loads this module."""

from __future__ import annotations

import os
from pathlib import Path

from .diagnostics import cache_root, sha256

STALE_DAYS = 30


def marks_dir() -> Path | None:
    """The directory of this vl's entries; None, and no cache, when its
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


def drift(marker: Path) -> Path:
    """The entry that records `marker`'s text as drifted from canonical form."""
    return marker.with_suffix(".drift")


def mark(marker: Path) -> None:
    """Create the entry `marker`, unless the cache cannot hold it."""
    try:
        try:
            marker.touch()
        except FileNotFoundError:  # the first entry of this fingerprint
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
