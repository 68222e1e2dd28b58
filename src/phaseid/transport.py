"""Strictly ordered FIFO message queue between the two parties.

No session sends messages through it. It stays only because the
benchmark traces ``Transport.send`` by name, and goes when the
benchmark stops tracing it.
"""

from __future__ import annotations

from collections import deque

__all__ = ["Transport"]


class Transport:
    """Strictly ordered two-party message queue."""

    def __init__(self):
        self._queue: deque = deque()

    def send(self, message) -> None:
        self._queue.append(message)

    def __len__(self) -> int:
        return len(self._queue)
