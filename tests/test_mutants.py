"""The table of `tools/mutants.py` against the tree: every old text occurs
once in its file and every named test exists, so that the table cannot go
stale between runs of the tool."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def mutant_id(file, old, new):
    """The entry's file and texts with a short digest of the texts: an
    entry keeps its id wherever it stands in the table."""
    digest = hashlib.sha256(f"{old}\0{new}".encode()).hexdigest()[:8]
    return f"{file}-{old}-{new}-{digest}"


MUTANT_IDS = [mutant_id(*entry[:3]) for entry in mutants.MUTANTS]


def test_mutant_ids_are_unique():
    assert len(set(MUTANT_IDS)) == len(MUTANT_IDS)


@pytest.mark.parametrize("file,old,new,nodes", mutants.MUTANTS,
                         ids=MUTANT_IDS)
def test_mutant_matches_the_tree(file, old, new, nodes):
    text = (mutants.SRC / file).read_text()
    assert mutants.replace_once(text, file, old, new) != text
    for node in nodes:
        path, *names = node.split("::")
        source = (ROOT / path).read_text()
        assert f"class {names[0]}" in source or f"def {names[0]}(" in source
        assert f"def {names[-1]}(" in source


def test_stale_old_text_is_an_error():
    with pytest.raises(mutants.TableError):
        mutants.replace_once("x = 1\n", "f.py", "x = 2", "x = 3")
    with pytest.raises(mutants.TableError):
        mutants.replace_once("x = 1\nx = 1\n", "f.py", "x = 1", "x = 3")
