"""Every test starts and ends with an empty table of shared packed models
(`modata.packed.packed_model`), so that no test sees caches, counts or
injected faults that another test left in a model of the same content."""

import pytest

from modata.packed import clear_models


@pytest.fixture(autouse=True)
def _fresh_packed_models():
    clear_models()
    yield
    clear_models()
