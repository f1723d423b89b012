"""In-process point-to-point message passing between worker contexts.

Two interchangeable backends expose the same endpoint interface
(``rank``, ``size``, ``send(dst, array)``, ``recv(src)``):

* :class:`ThreadGroup` — queue-backed links inside one process; cheap,
  used by the collective unit tests.
* :class:`ProcessLinks` — pipe-backed links across forked worker
  processes; used by real multi-replica training so the numpy work
  actually runs in parallel.  A message is the raw bytes of one flat
  vector of the group's dtype (the run's precision), with no pickling;
  any other payload is rejected.  A received vector is a read-only view
  of the bytes that arrived.

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

from .errors import ProtocolError, ValidationError


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


class ThreadEndpoint:
    def __init__(self, group: "ThreadGroup", rank: int):
        self._group = group
        self.rank = rank
        self.size = group.n
        self.stats = TransportStats()

    def send(self, dst: int, payload: np.ndarray) -> None:
        _check_peer(self.rank, dst, self.size)
        arr = np.array(payload, copy=True)
        self.stats.record(arr)
        with self._group._lock:
            self._group.stats.record(arr)
        self._group._queues[(self.rank, dst)].put(arr)

    def recv(self, src: int) -> np.ndarray:
        _check_peer(self.rank, src, self.size)
        try:
            return self._group._queues[(src, self.rank)].get(
                timeout=self._group.timeout
            )
        except queue.Empty:
            raise ProtocolError(
                f"rank {self.rank} timed out waiting for a message from rank {src}"
            ) from None


class ThreadGroup:
    """Fully-connected FIFO links between ``n`` ranks in one process."""

    def __init__(self, n: int, timeout: float = 60.0):
        if n < 1:
            raise ValidationError(f"group size must be >= 1, got {n}")
        self.n = n
        self.timeout = timeout
        self.stats = TransportStats()
        self._lock = threading.Lock()
        self._queues = {
            (src, dst): queue.Queue()
            for src in range(n)
            for dst in range(n)
            if src != dst
        }

    def endpoint(self, rank: int) -> ThreadEndpoint:
        if not (0 <= rank < self.n):
            raise ValidationError(f"rank {rank} outside group of size {self.n}")
        return ThreadEndpoint(self, rank)

    def run(self, fns):
        """Run one callable per rank on its own thread; return their
        results in rank order, re-raising the first failure."""
        if len(fns) != self.n:
            raise ValidationError(
                f"expected {self.n} callables, got {len(fns)}"
            )
        results = [None] * self.n
        failures = [None] * self.n

        def target(r):
            try:
                results[r] = fns[r]()
            except BaseException as exc:  # re-raised on the caller thread
                failures[r] = exc

        threads = [
            threading.Thread(target=target, args=(r,), daemon=True)
            for r in range(self.n)
        ]
        for t in threads:
            t.start()
        # poll-join so a raising rank surfaces immediately; stragglers
        # blocked in recv are daemons and die with their own timeout
        while any(t.is_alive() for t in threads):
            for t in threads:
                t.join(timeout=0.05)
            for exc in failures:
                if exc is not None:
                    raise exc
        for exc in failures:
            if exc is not None:
                raise exc
        return results


class ProcessEndpoint:
    """One rank's view of the pipe mesh; counts only its own sends, so a
    forked worker accumulates stats privately and reports them back."""

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
        self._conns[dst].send_bytes(arr)

    def recv(self, src: int) -> np.ndarray:
        _check_peer(self.rank, src, self.size)
        conn = self._conns[src]
        if not conn.poll(self._timeout):
            raise ProtocolError(
                f"rank {self.rank} timed out waiting for a message from rank {src}"
            )
        return np.frombuffer(conn.recv_bytes(), dtype=self._dtype)


class ProcessLinks:
    """Duplex pipes for every unordered rank pair, created before fork so
    each process can grab its endpoint afterwards.  Every message is a
    flat vector of ``dtype``."""

    def __init__(self, n: int, dtype, timeout: float = 120.0):
        if n < 1:
            raise ValidationError(f"group size must be >= 1, got {n}")
        self.n = n
        self.dtype = np.dtype(dtype)
        self.timeout = timeout
        self._conns = {}
        for i in range(n):
            for j in range(i + 1, n):
                left, right = mp.Pipe(duplex=True)
                self._conns[(i, j)] = left
                self._conns[(j, i)] = right

    def endpoint(self, rank: int) -> ProcessEndpoint:
        if not (0 <= rank < self.n):
            raise ValidationError(f"rank {rank} outside group of size {self.n}")
        conns = {
            peer: self._conns[(rank, peer)] for peer in range(self.n) if peer != rank
        }
        return ProcessEndpoint(rank, self.n, conns, self.dtype, self.timeout)

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()
