"""The runtime package imports nothing outside the standard library, and
its modules import no private name from one another."""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "modata"


def absolute_imports(path):
    """The top-level names of the absolute imports in one source file."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_imports_only_the_standard_library():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    outside = [(path.name, name) for path in paths
               for name in absolute_imports(path)
               if name not in sys.stdlib_module_names]
    assert outside == []


#: (importing file, module, name): the private names one module of the
#: package may import from another, the kernel's context and factorization
#: that the packed arithmetic is built on.
PRIVATE_IMPORTS = {("packed.py", "cyclo", "_context"),
                   ("packed.py", "cyclo", "_factorize")}


def private_imports(path):
    """(module, name) of each underscore name, not a dunder, that one source
    file imports from a module of the package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").startswith("modata")):
            module = (node.module or "").rpartition(".")[2]
            yield from ((module, alias.name) for alias in node.names
                        if alias.name.startswith("_")
                        and not alias.name.startswith("__"))


def test_no_private_name_crosses_a_module():
    found = {(path.name, *pair) for path in sorted(SRC.glob("*.py"))
             for pair in private_imports(path)}
    assert found == PRIVATE_IMPORTS
