from __future__ import annotations

import pytest
from hypothesis import settings

from fibgrid import GridSystem

# big-int property tests have uneven per-example cost; wall-clock deadlines
# only add flakiness there
settings.register_profile("package", deadline=None)
settings.load_profile("package")


@pytest.fixture(scope="session")
def grid_cache():
    """Memoized toggle systems, so each side length is eliminated and chased once."""
    cache: dict[int, GridSystem] = {}

    def get(n: int) -> GridSystem:
        if n not in cache:
            cache[n] = GridSystem(n)
        return cache[n]

    return get
