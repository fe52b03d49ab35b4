"""The reference docs list the built-in names that `vl.tokens` defines."""

import re
from pathlib import Path

from vl.tokens import CLOCK_EDGES, KEYWORDS, RESET_STYLES

DOCS = Path(__file__).resolve().parent.parent / "docs"


def test_grammar_lists_every_keyword():
    listed = re.search(r"\*\*Keywords\*\*: `([^`]*)`", (DOCS / "grammar.md").read_text(encoding="utf-8"))
    assert set(listed.group(1).split()) == KEYWORDS


def test_manifest_lists_every_clock_edge_and_reset_style():
    text = (DOCS / "manifest.md").read_text(encoding="utf-8")
    for key, values in (("clock_type", CLOCK_EDGES), ("reset_type", RESET_STYLES)):
        listed = re.search(rf'^{key} = "[^"]*" *# ([\w |]*?) *(?:\(|$)', text, re.M)
        assert tuple(listed.group(1).split(" | ")) == values, key
