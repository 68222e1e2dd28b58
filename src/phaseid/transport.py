"""Strictly ordered FIFO message transport between the two parties."""

from __future__ import annotations

from collections import deque

from .errors import TransportEmptyError

__all__ = ["Transport"]


class Transport:
    """Strictly ordered two-party message queue."""

    def __init__(self):
        self._queue: deque = deque()

    def send(self, message) -> None:
        self._queue.append(message)

    def recv(self):
        if not self._queue:
            raise TransportEmptyError("receive on empty transport")
        return self._queue.popleft()

    def __len__(self) -> int:
        return len(self._queue)
