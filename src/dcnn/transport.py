"""Point-to-point message passing between the ranks of one run.

One endpoint class, :class:`ProcessEndpoint` (``rank``, ``size``,
``send(dst, vector)``, ``recv(src)``), works over two kinds of link:
duplex pipes between forked processes (:class:`ProcessLinks`), which
real multi-replica training uses so the numpy work runs in parallel,
and queue pairs between threads (:class:`ThreadGroup`).

A message is the raw bytes of one flat vector of the group's dtype (the
run's precision), with no pickling; any other payload is rejected.  A
received vector is a read-only view of the bytes that arrived.  A link
closes with its rank: once either end is closed, a ``send`` or ``recv``
on it raises :class:`PeerClosed` at once, after the messages already
sent have been received.

Every endpoint counts the messages and payload bytes it sends, so
protocol-level claims (message complexity, chunk sizes) are measurable
rather than assumed.
"""

from __future__ import annotations

import multiprocessing as mp
import queue
import threading
from dataclasses import dataclass

import numpy as np

from .errors import PeerClosed, ProtocolError, ValidationError

#: How long a ``recv`` waits on a live but silent peer.
RECV_TIMEOUT_S = 600.0


@dataclass
class TransportStats:
    messages: int = 0
    bytes: int = 0
    max_message_elements: int = 0

    def record(self, arr: np.ndarray) -> None:
        self.messages += 1
        self.bytes += arr.nbytes
        if arr.size > self.max_message_elements:
            self.max_message_elements = arr.size

    def merge(self, other: "TransportStats") -> None:
        self.messages += other.messages
        self.bytes += other.bytes
        self.max_message_elements = max(
            self.max_message_elements, other.max_message_elements
        )


def _check_peer(rank: int, dst: int, size: int) -> None:
    if not (0 <= dst < size):
        raise ValidationError(f"peer rank {dst} outside group of size {size}")
    if dst == rank:
        raise ValidationError(f"rank {rank} cannot message itself")


class ProcessEndpoint:
    """One rank's ends of its links, over pipes or queue pairs alike.
    It counts only its own sends, so each rank's stats stay its own."""

    def __init__(self, rank: int, size: int, conns, dtype, timeout: float):
        self.rank = rank
        self.size = size
        self._conns = conns
        self._dtype = dtype
        self._timeout = timeout
        self.stats = TransportStats()

    def send(self, dst: int, payload: np.ndarray) -> None:
        _check_peer(self.rank, dst, self.size)
        if (not isinstance(payload, np.ndarray) or payload.ndim != 1
                or payload.dtype != self._dtype):
            raise ValidationError(
                f"rank {self.rank} sends only flat {self._dtype} vectors, got "
                f"{getattr(payload, 'dtype', type(payload).__name__)} of shape "
                f"{np.shape(payload)}"
            )
        arr = np.ascontiguousarray(payload)
        self.stats.record(arr)
        try:
            self._conns[dst].send_bytes(arr)
        except OSError:
            raise PeerClosed(
                f"rank {self.rank} cannot send: its link to rank {dst} is closed"
            ) from None

    def recv(self, src: int) -> np.ndarray:
        _check_peer(self.rank, src, self.size)
        conn = self._conns[src]
        try:
            if not conn.poll(self._timeout):
                raise ProtocolError(
                    f"rank {self.rank} timed out waiting for a message from rank {src}"
                )
            data = conn.recv_bytes()
        except (EOFError, OSError):
            raise PeerClosed(
                f"rank {self.rank} cannot receive: its link to rank {src} is closed"
            ) from None
        return np.frombuffer(data, dtype=self._dtype)

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()


_EOF = object()


class _QueueConn:
    """One end of an in-process duplex link, with the calls of a pipe
    connection that an endpoint makes.  Closing it queues an end-of-file
    mark behind the messages already sent."""

    def __init__(self, inbox, outbox):
        self._inbox = inbox
        self._outbox = outbox
        self._head = None  # a message that poll took off the inbox
        self.peer = None
        self.closed = False

    def send_bytes(self, buf) -> None:
        if self.closed or self.peer.closed:
            raise BrokenPipeError("link closed")
        self._outbox.put(bytes(buf))

    def poll(self, timeout) -> bool:
        if self.closed:
            raise OSError("handle is closed")
        if self._head is None:
            try:
                self._head = self._inbox.get(timeout=timeout)
            except queue.Empty:
                return False
        return True

    def recv_bytes(self) -> bytes:
        self.poll(None)
        if self._head is _EOF:
            raise EOFError
        data, self._head = self._head, None
        return data

    def close(self) -> None:
        if not self.closed:
            self.closed = True
            self._outbox.put(_EOF)


def _queue_pair():
    there, back = queue.SimpleQueue(), queue.SimpleQueue()
    left, right = _QueueConn(back, there), _QueueConn(there, back)
    left.peer, right.peer = right, left
    return left, right


class _Links:
    """A duplex link, made by the subclass's ``_pair``, for every pair of
    ``n`` ranks, and one endpoint per rank; every message is a flat
    vector of ``dtype``."""

    def __init__(self, n: int, dtype, timeout: float = RECV_TIMEOUT_S):
        if n < 1:
            raise ValidationError(f"group size must be >= 1, got {n}")
        self.n = n
        self.dtype = np.dtype(dtype)
        ends = {}
        for i in range(n):
            for j in range(i + 1, n):
                ends[(i, j)], ends[(j, i)] = self._pair()
        self._endpoints = [
            ProcessEndpoint(
                rank, n, {peer: ends[(rank, peer)] for peer in range(n) if peer != rank},
                self.dtype, timeout,
            )
            for rank in range(n)
        ]

    def endpoint(self, rank: int) -> ProcessEndpoint:
        if not (0 <= rank < self.n):
            raise ValidationError(f"rank {rank} outside group of size {self.n}")
        return self._endpoints[rank]

    def close(self, keep=None) -> None:
        """Close the ends of every rank but ``keep``.  A forked child keeps
        only its own, so that a link closes when one of its ranks ends."""
        for endpoint in self._endpoints:
            if endpoint.rank != keep:
                endpoint.close()


class ProcessLinks(_Links):
    """Duplex pipes, made before fork so that each process can take its
    endpoint afterwards."""

    _pair = staticmethod(mp.Pipe)


class ThreadGroup(_Links):
    """Queue-pair links between ``n`` ranks in one process."""

    _pair = staticmethod(_queue_pair)

    @property
    def stats(self) -> TransportStats:
        """The sends of every rank, merged."""
        total = TransportStats()
        for endpoint in self._endpoints:
            total.merge(endpoint.stats)
        return total

    def run(self, fns):
        """Run ``fns[r]`` as rank r on its own thread, and close its links
        when it ends.  Returns the results in rank order, or raises the
        lowest rank's failure, preferring one that is not PeerClosed."""
        if len(fns) != self.n:
            raise ValidationError(
                f"expected {self.n} callables, got {len(fns)}"
            )
        outcomes = [None] * self.n

        def target(rank):
            try:
                outcomes[rank] = (fns[rank](), None)
            except BaseException as exc:  # re-raised on the caller thread
                outcomes[rank] = (None, exc)
            finally:
                self._endpoints[rank].close()

        threads = [threading.Thread(target=target, args=(r,), daemon=True)
                   for r in range(self.n)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        failures = [exc for _result, exc in outcomes if exc is not None]
        if failures:
            raise next((exc for exc in failures if not isinstance(exc, PeerClosed)),
                       failures[0])
        return [result for result, _exc in outcomes]
