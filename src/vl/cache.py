"""vl's record of its own results under the cache root, one directory per
kind and fingerprint, `<kind>/<fingerprint>/`.  The fingerprint is a sha256
over the Python version and the bytes of this package's modules, so any
change to vl, or to the Unicode tables that its lexer and diagnostics read,
starts afresh.
An entry is a cache entry, not an output: entries change no output, one
that cannot be created is left out, and one that cannot be read is a miss.
The first entry of a fingerprint deletes the other directories of its kind
not modified for `STALE_DAYS`, which costs their vl one cold run.

- `fmt/`: `vl fmt`'s verdicts on source texts, one empty file per text,
  `<digest>` for a text found canonical and `<digest>.drift` for one that
  parsed without diagnostics but that formatting changes.  A text with any
  diagnostic gets neither.  The digest is the sha256 of the text as UTF-8.
- `check/`: `vl check`'s last result on each project root and format, one
  file holding the key of its inputs, its exit code and the bytes it wrote
  to stdout and stderr (see `cli.cmd_check`).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from .diagnostics import cache_root, sha256

STALE_DAYS = 30


def entry_dir(kind: str) -> Path | None:
    """The directory of this vl's `kind` entries; None, and no cache, when
    its modules are not there as source or cannot be read, or there is no
    home directory."""
    try:
        package = Path(__file__).parent
        modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
        if not modules:
            return None
        modules_bytes = b"".join((package / name).read_bytes() for name in modules)
        return cache_root() / kind / sha256(sys.version.encode("utf-8") + b"\n" + modules_bytes)
    except (OSError, RuntimeError):  # RuntimeError: Path.home() without a home
        return None


def drift(marker: Path) -> Path:
    """The entry that records `marker`'s text as drifted from canonical form."""
    return marker.with_suffix(".drift")


def mark(marker: Path) -> None:
    """Create the empty entry `marker`, unless the cache cannot hold it."""
    _create(marker, Path.touch)


def check_entry(root: Path, mode: str) -> Path | None:
    """The one entry of `vl check` on the project at `root` in format `mode`."""
    directory = entry_dir("check")
    return directory and directory / sha256(os.fsencode(f"{root.resolve()}\n{mode}"))


def replay(entry: Path, key: str) -> tuple[str, str, int] | None:
    """(stdout, stderr, exit code) that `entry` holds under `key`; None when
    it holds none: missing, unreadable, damaged or of other inputs."""
    try:
        head, body = entry.read_bytes().split(b"\n", 1)
        stored, rc, n_out, n_err = head.decode("ascii").split(" ")
        n = int(n_out)
        if stored != key or rc not in ("0", "1") or len(body) != n + int(n_err):
            return None
        return body[:n].decode("utf-8"), body[n:].decode("utf-8"), int(rc)
    except (OSError, ValueError):  # a UnicodeDecodeError, a missing field or a number that is none
        return None


def store(entry: Path, key: str, out: str, err: str, rc: int) -> None:
    """Make `entry` hold `key`'s result, replacing it in one step, unless
    the cache cannot hold it."""
    try:
        out_bytes, err_bytes = out.encode("utf-8"), err.encode("utf-8")
    except UnicodeEncodeError:  # a lone surrogate, from a path that is not UTF-8
        return
    data = f"{key} {rc} {len(out_bytes)} {len(err_bytes)}\n".encode("ascii") + out_bytes + err_bytes
    _create(entry, lambda path: _replace(path, data))


def _replace(path: Path, data: bytes) -> None:
    """Write `path` through a file beside it, so that a reader finds the
    old entry or the new one, never a part of one."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError:  # e.g. a full disk, or a directory in the entry's place
        tmp.unlink(missing_ok=True)
        raise


def _create(entry: Path, write) -> None:
    """Run `write(entry)`, first making the entry's directory when it is
    missing; an entry that the cache cannot hold is left out."""
    try:
        try:
            write(entry)
        except FileNotFoundError:  # the first entry of this fingerprint
            entry.parent.mkdir(parents=True, exist_ok=True)
            write(entry)
            _prune(entry.parent)
    except OSError:
        pass


def _prune(directory: Path) -> None:
    """Delete the directories beside `directory` not modified for `STALE_DAYS`."""
    import shutil
    import time

    cutoff = time.time() - STALE_DAYS * 24 * 60 * 60
    for entry in os.scandir(directory.parent):
        if entry.name != directory.name and entry.is_dir(follow_symlinks=False) and entry.stat(follow_symlinks=False).st_mtime < cutoff:
            shutil.rmtree(entry.path, ignore_errors=True)
