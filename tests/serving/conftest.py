"""Fixtures shared by the serving tests."""

import http.client

import pytest


@pytest.fixture
def connects(monkeypatch):
    """One entry per TCP connect a client makes during the test.

    Counts ``http.client.HTTPConnection.connect`` calls, the same hook
    the benchmark ladder's connect counter patches.  Entries are plain
    ints, so the list keeps no connection alive; ``list.append`` is
    atomic, so concurrent connects are all counted.
    """
    made: list[int] = []
    connect = http.client.HTTPConnection.connect

    def counting_connect(connection):
        made.append(1)
        return connect(connection)

    monkeypatch.setattr(
        http.client.HTTPConnection, "connect", counting_connect
    )
    return made
