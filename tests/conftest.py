"""Fixtures shared across the test modules."""

import pytest


@pytest.fixture()
def closing():
    """Register a client, host pool, cache store or backend a test
    builds; each is closed at teardown, the last one first, so no
    keep-alive socket outlives its test (``python -X dev`` reports
    any that does as a ``ResourceWarning``)."""
    opened = []

    def register(transport):
        opened.append(transport)
        return transport

    yield register
    for transport in reversed(opened):
        transport.close()
