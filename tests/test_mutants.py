from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_names_its_code_once(mutant):
    # a refactor that moves or rewrites the code must move the mutant too
    assert (ROOT / mutant.file).read_text(encoding="utf-8").count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.verdict in ("caught", "equivalent")
    assert mutant.rule and (mutant.verdict == "caught" or mutant.reason)
