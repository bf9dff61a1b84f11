import functools

import pytest

from quandles import enumeration
from quandles.constructions import builtin_example
from quandles.enumeration import EnumerationTask, enumerate_quandles


@pytest.fixture(scope="session")
def q62():
    return builtin_example("Q6_2")


@pytest.fixture(scope="session")
def q94():
    return builtin_example("Q9_4")


@pytest.fixture(scope="session")
def nonlatin3():
    return builtin_example("nonlatin3")


@functools.lru_cache(maxsize=None)
def _cached_enumeration(order: int, up_to_iso: bool):
    return tuple(enumerate_quandles(EnumerationTask(order=order, up_to_iso=up_to_iso)))


@pytest.fixture(scope="session")
def enumerated():
    """Memoized enumeration shared across test modules; order 6 raw is the slow one."""
    return _cached_enumeration


@pytest.fixture
def relabelings_read(monkeypatch):
    """The (n, k) of each ``_block_relabelings(n, k)`` read from here on, in order.

    The centralisers are built again, so that their reads are seen too.
    """
    read = []
    store = enumeration._block_relabelings

    def watched(n, k):
        read.append((n, k))
        return store(n, k)

    enumeration._centralizer_parts.cache_clear()
    monkeypatch.setattr(enumeration, "_block_relabelings", watched)
    return read
