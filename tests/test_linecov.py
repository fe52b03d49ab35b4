"""`tests/linecov.py`'s allow-list names only lines that exist.  This needs no
tracing, so a rename or deletion in `src/vl` that leaves an entry stale fails
in every suite run, not only in a by-hand coverage run."""

import linecov


def test_every_allowed_entry_matches_an_executable_line():
    present = {key for path in linecov.PACKAGE.glob("*.py") for key in linecov.line_keys(path).values()}
    assert sorted(set(linecov.ALLOWED) - present) == []
