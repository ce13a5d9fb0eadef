"""The rows of ``mutation_gate.MUTATIONS`` still fit the code they break.

The gate itself takes minutes and is run by name; this check is cheap, so a
change that rewrites a guarded line, or renames a row's known killer, fails
here on every run instead of only when someone next runs the gate.
"""

import re

import pytest

from mutation_gate import MUTATIONS, ROOT, SRC


@pytest.mark.parametrize("name, file, old, new, killer", MUTATIONS, ids=[row[0] for row in MUTATIONS])
def test_mutation_row_matches_its_file_exactly_once(name, file, old, new, killer):
    text = (SRC / file).read_text(encoding="utf-8")
    assert old != new
    assert text.count(old) == 1, f"{name}: the old text occurs {text.count(old)} times in {file}"


@pytest.mark.parametrize("name, killer", [(row[0], row[4]) for row in MUTATIONS], ids=[row[0] for row in MUTATIONS])
def test_mutation_row_names_a_known_killer_that_exists(name, killer):
    path, _, test = killer.partition("::")
    function = test.partition("[")[0]
    assert path.startswith("tests/") and function.startswith("test_"), f"{name}: {killer!r}"
    text = (ROOT / path).read_text(encoding="utf-8")
    assert re.search(rf"^def {function}\(", text, re.MULTILINE), f"{name}: no {function} in {path}"
