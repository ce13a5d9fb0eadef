"""The rows of ``mutation_gate.MUTATIONS`` still fit the code they break.

The gate itself takes minutes and is run by name; this check is cheap, so a
change that rewrites a guarded line fails here on every run instead of only
when someone next runs the gate.
"""

import pytest

from mutation_gate import MUTATIONS, SRC


@pytest.mark.parametrize("name, file, old, new", MUTATIONS, ids=[row[0] for row in MUTATIONS])
def test_mutation_row_matches_its_file_exactly_once(name, file, old, new):
    text = (SRC / file).read_text(encoding="utf-8")
    assert old != new
    assert text.count(old) == 1, f"{name}: the old text occurs {text.count(old)} times in {file}"
