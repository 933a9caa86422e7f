"""The benchmark tracer's targets still exist.

`bench/tracer.py` wraps each (module, class, attribute) of its KERNEL and
SPANS tables, looked up by `vars()` on the module or class, and fails at
install when one is gone; this test reads those tables so that deleting or
renaming a traced function fails here too, not only in a traced run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def _tables():
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.KERNEL + tracer.SPANS


@pytest.mark.parametrize("group,module,cls,attr", _tables(),
                         ids=lambda x: x if isinstance(x, str) else "-")
def test_target_resolves(group, module, cls, attr):
    owner = importlib.import_module(f"modata.{module}")
    if cls is not None:
        owner = vars(owner)[cls]
    assert attr in vars(owner), f"{group}: {module}.{cls or ''}.{attr}"
