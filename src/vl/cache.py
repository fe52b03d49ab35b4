"""vl's record of its own results under the cache root, one directory per
kind and fingerprint, `<kind>/<fingerprint>/`.  The fingerprint is a sha256
over the Python version, this package's directory and each module's name,
size, modification time and change time, so any change to vl, or to the
Unicode tables that its lexer and diagnostics read, starts afresh.  Python
trusts its compiled modules on size and modification time; the change time
adds what no copy or `touch` can set back, so a module rewritten with its
old size and time is a new vl too.  A stat per module costs a sixth of
reading and hashing the modules' bytes, which every run would pay.
An entry is a cache entry, not an output: entries change no output, one
that cannot be created is left out, and one that cannot be read is a miss.
The first entry of a fingerprint deletes the other directories of its kind
not modified for `STALE_DAYS`, which costs their vl one cold run.

- `fmt/`: `vl fmt`'s verdicts on source texts, one empty file per text,
  `<digest>` for a text found canonical and `<digest>.drift` for one that
  parsed without diagnostics but that formatting changes.  A text with any
  diagnostic gets neither.  The digest is the sha256 of the text as UTF-8.
- `check/`, `build/` and `doc/`: the last result of that command on each
  project root and format, one file holding the key of its inputs, the
  sha256 of the rest, its exit code, the bytes it wrote to stdout and
  stderr, and each output file it wrote, by its path relative to the out
  root, in write order (see `cli.cmd_compile`).  An entry whose rest does
  not match its sha256 is damaged, and a miss.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from .diagnostics import cache_root, sha256

STALE_DAYS = 30


def entry_dir(kind: str) -> Path | None:
    """The directory of this vl's `kind` entries; None, and no cache, when
    its modules are not there as source or cannot be listed, or there is no
    home directory."""
    try:
        package = Path(__file__).parent
        modules = sorted(name for name in os.listdir(package) if name.endswith(".py"))
        if not modules:
            return None
        stats = [(name, (st := os.stat(package / name)).st_size, st.st_mtime_ns, st.st_ctime_ns) for name in modules]
        return cache_root() / kind / sha256(repr((sys.version, str(package), stats)).encode("utf-8"))
    except (OSError, RuntimeError):  # RuntimeError: Path.home() without a home
        return None


def drift(marker: Path) -> Path:
    """The entry that records `marker`'s text as drifted from canonical form."""
    return marker.with_suffix(".drift")


def mark(marker: Path) -> None:
    """Create the empty entry `marker`, unless the cache cannot hold it."""
    _create(marker, Path.touch)


def run_entry(command: str, root: Path, mode: str) -> Path | None:
    """The one entry of `vl <command>` (`check`, `build` or `doc`) on the
    project at `root` in format `mode`."""
    directory = entry_dir(command)
    return directory and directory / sha256(os.fsencode(f"{root.resolve()}\n{mode}"))


def replay(entry: Path, key: str) -> tuple[str, str, int, list[tuple[str, str]]] | None:
    """(stdout, stderr, exit code, outputs) that `entry` holds under `key`,
    each output a (path relative to the out root, text); None when it holds
    none: missing, unreadable, damaged or of other inputs."""
    try:
        head, body = entry.read_bytes().split(b"\n", 1)
        stored, digest = head.decode("ascii").split(" ")
        if stored != key or digest != sha256(body):
            return None
        sizes, data = body.split(b"\n", 1)
        rc, *sizes = map(int, sizes.split(b" "))
        fields, at = [], 0
        for n in sizes:
            fields.append(data[at : at + n].decode("utf-8"))
            at += n
        out, err, *outputs = fields
        return out, err, rc, list(zip(outputs[::2], outputs[1::2]))
    except (OSError, ValueError):  # a UnicodeDecodeError, a missing field or a number that is none
        return None


def store(entry: Path, key: str, out: str, err: str, rc: int, outputs: list[tuple[str, str]] = ()) -> None:
    """Make `entry` hold `key`'s result, replacing it in one step, unless
    the cache cannot hold it or the exit code is 2, whose output or config
    failure the key does not cover: the stdout, stderr and exit code, and
    each output as (path relative to the out root, text).  A header line
    holds the key and the sha256 of what follows it: the exit code and the
    size of each field, then the fields."""
    if rc == 2:
        return
    try:
        fields = [part.encode("utf-8") for part in (out, err, *(part for output in outputs for part in output))]
    except UnicodeEncodeError:  # a lone surrogate, from a path that is not UTF-8
        return
    body = " ".join(map(str, [rc, *map(len, fields)])).encode("ascii") + b"\n" + b"".join(fields)
    data = f"{key} {sha256(body)}\n".encode("ascii") + body
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
