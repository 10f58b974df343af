"""Suite-wide fixtures: the shard runtime's completion order.

The ``completion_order`` fixture installs one
:class:`~tests.runtime.completion_order.SeededOrder` for a single test;
parametrize it indirectly with the seeds.
"""

import pytest

from tests.runtime.completion_order import SeededOrder, install


@pytest.fixture
def completion_order(request):
    """The seeded completion order ``request.param`` for this test."""
    with install(SeededOrder(request.param)) as order:
        yield order
