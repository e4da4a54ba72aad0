"""The chaos suite's shared autouse fixture.

The suite used to sweep every (execution core, backend) pair; one
runtime is left, so the sweep has a single configuration.  Its id stays
on every test so the suite's test names do not change.
"""

import pytest


@pytest.fixture(autouse=True, params=["batched-pure"])
def execution_core(request):
    return request.param
