"""pinned_digests.json is the one table of pinned digests: every entry in it
is read by a test module, and no test file holds a digest of its own."""

from __future__ import annotations

import importlib
import re
from pathlib import Path

from _helpers import PINNED_DIGESTS, PINNED_READS

TESTS = Path(__file__).resolve().parent


def test_every_pinned_entry_is_read_by_a_test_module():
    for path in sorted(TESTS.glob("test_*.py")):
        importlib.import_module(path.stem)
    entries = {(section, name) for section, named in PINNED_DIGESTS["digests"].items()
               for name in named}
    assert entries == PINNED_READS


def test_no_test_file_holds_a_digest_literal():
    digest = re.compile(r"\b[0-9a-f]{64}\b")
    found = [f"{path.name}:{n}" for path in sorted(TESTS.glob("*.py"))
             for n, line in enumerate(path.read_text().splitlines(), 1) if digest.search(line)]
    assert found == []
