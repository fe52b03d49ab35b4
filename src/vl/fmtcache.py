"""`vl fmt`'s record of the source texts it has found canonical: one empty
marker file per text, `fmt/<fingerprint>/<digest>` under the cache root.  The
digest is the sha256 of the text as UTF-8, the fingerprint a sha256 over the
bytes of this package's modules, so any change to vl starts afresh.  A marker
is a cache entry, not an output: markers change no output, and one that
cannot be created is left out.  Only `vl fmt` loads this module."""

from __future__ import annotations

import os
from pathlib import Path

from .diagnostics import cache_root

# CPython's built-in sha256 where there is one (`_sha2` from 3.12, `_sha256`
# before): `hashlib` also loads OpenSSL, which costs `fmt` 3.6 MB and 2 ms.
try:
    from _sha2 import sha256 as _new
except ImportError:
    try:
        from _sha256 import sha256 as _new
    except ImportError:
        from hashlib import sha256 as _new


def sha256(data: bytes) -> str:
    """Hex sha256 of `data`."""
    return _new(data).hexdigest()


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
    except OSError:
        pass
