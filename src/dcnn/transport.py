"""Point-to-point message passing between the ranks of one run.

Every link is a duplex ``mp.Pipe`` (a Unix socket pair), made by
:class:`ProcessLinks` before any rank starts, and every rank talks
through one :class:`ProcessEndpoint` (``rank``, ``size``,
``send(dst, vector)``, ``recv(src)``).  The two backends differ only in
how ranks 1..n-1 start: as forked children, which real multi-replica
training uses so that the numpy work runs in parallel, or as threads.
Rank 0 runs in the calling thread on either backend, so a group of one
starts nothing.  On the process backend each rank of a group of two or
more is bound to one CPU, rank r to the r-th (mod their count) of the
caller's allowed CPUs in ascending order; rank 0 binds the calling
thread only while it runs.  Ranks that outnumber the CPUs then share
them in a fixed pattern, and a rank that blocks on a peer sharing its
CPU hands that CPU over instead of waking the peer on another one: at
two replicas on two CPUs the parameter server (rank 2) shares rank 0's
CPU, and the two alternate strictly, since the server reads rank 0's
report first and rank 0 then waits for its reply.  Threads are never
bound.  :func:`run_ranks` is the one runner that starts ranks,
for training and for the tests alike, with one rule for which failure a
run raises: a rank that raised, or ended without an outcome, before a
rank that only saw a closed link.  It knows nothing of what the ranks
compute: a rank whose work stops early returns a result that says so,
for the caller to read.

A message is the raw bytes of one flat vector of the group's dtype (the
run's precision), with no pickling; any other payload is rejected.  A
received vector is a read-only view of the bytes that arrived.  A link
closes with its rank: once either end is closed, a ``send`` or ``recv``
on it raises :class:`PeerClosed` at once, after the messages already
sent have been received.

Both directions are bounded by the link timeout: a ``recv`` gives up on
a silent peer, and a ``send`` on a peer that does not read, each with a
:class:`ProtocolError`.  So a message that both ranks of a pair send
before either receives (the ring and gossip swaps) must fit one pipe's
buffer, about 200 KiB on Linux (``SO_SNDBUF`` 212,992 B), or the swap
times out.  The default model's largest message is 4,988 B at f32.

Every endpoint counts the messages and payload bytes it sends, so
protocol-level claims (message complexity, chunk sizes) are measurable
rather than assumed.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import socket
import struct
import threading
import traceback
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import DcnnError, PeerClosed, ProtocolError, ValidationError

#: How long a ``recv`` waits on a live but silent peer, and a ``send``
#: on a live peer that does not read.
LINK_TIMEOUT_S = 600.0


@dataclass
class TransportStats:
    messages: int = 0
    bytes: int = 0

    def record(self, arr: np.ndarray) -> None:
        self.messages += 1
        self.bytes += arr.nbytes

    def merge(self, other: "TransportStats") -> None:
        self.messages += other.messages
        self.bytes += other.bytes


def _pipe(timeout: float):
    """A duplex pipe whose ends give up on a blocked send or receive after
    ``timeout`` (at least 1 µs): the write or read then fails with
    BlockingIOError."""
    ends = mp.Pipe()
    seconds, micros = divmod(max(1, round(timeout * 1e6)), 1_000_000)
    timeval = struct.pack("ll", seconds, micros)
    for end in ends:
        with socket.fromfd(end.fileno(), socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDTIMEO, timeval)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVTIMEO, timeval)
    return ends


def _check_peer(rank: int, dst: int, size: int) -> None:
    if not (0 <= dst < size):
        raise ValidationError(f"peer rank {dst} outside group of size {size}")
    if dst == rank:
        raise ValidationError(f"rank {rank} cannot message itself")


class ProcessEndpoint:
    """One rank's ends of its pipes, on a thread or a forked child alike.
    It counts only its own sends, so each rank's stats stay its own.

    A ``send`` or ``recv`` that waits longer than its pipe's timeout
    raises ProtocolError, so a send-first swap must fit one pipe's
    buffer; one on a closed link raises PeerClosed."""

    def __init__(self, rank: int, size: int, conns, dtype):
        self.rank = rank
        self.size = size
        self._conns = conns
        self._dtype = dtype
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
        except BlockingIOError:  # SO_SNDTIMEO ran out
            raise ProtocolError(
                f"rank {self.rank} timed out sending a message to rank {dst}"
            ) from None
        except OSError:
            raise PeerClosed(
                f"rank {self.rank} cannot send: its link to rank {dst} is closed"
            ) from None

    def recv(self, src: int) -> np.ndarray:
        _check_peer(self.rank, src, self.size)
        try:
            data = self._conns[src].recv_bytes()
        except BlockingIOError:  # SO_RCVTIMEO ran out
            raise ProtocolError(
                f"rank {self.rank} timed out waiting for a message from rank {src}"
            ) from None
        except (EOFError, OSError):
            raise PeerClosed(
                f"rank {self.rank} cannot receive: its link to rank {src} is closed"
            ) from None
        return np.frombuffer(data, dtype=self._dtype)

    def close(self) -> None:
        for conn in self._conns.values():
            conn.close()


class ProcessLinks:
    """A duplex pipe for every pair of ``n`` ranks, and one endpoint per
    rank; every message is a flat vector of ``dtype``.  The pipes are
    made before any fork, so that each process can take its endpoint
    afterwards."""

    def __init__(self, n: int, dtype, timeout: float = LINK_TIMEOUT_S):
        if n < 1:
            raise ValidationError(f"group size must be >= 1, got {n}")
        self.n = n
        self.dtype = np.dtype(dtype)
        ends = {}
        for i in range(n):
            for j in range(i + 1, n):
                ends[(i, j)], ends[(j, i)] = _pipe(timeout)
        self._endpoints = [
            ProcessEndpoint(
                rank, n, {peer: ends[(rank, peer)] for peer in range(n) if peer != rank},
                self.dtype,
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


def _outcome(links, rank, fn):
    """Run ``fn`` as ``rank``, close this rank's links so that no peer
    waits on it, and return ``(kind, payload)``: ``ok`` and the result,
    or ``closed`` (PeerClosed) or ``error`` (any other Exception) and the
    traceback."""
    try:
        return "ok", fn()
    except Exception as exc:  # named in the caller
        return ("closed" if isinstance(exc, PeerClosed) else "error",
                f"raised {exc!r}\n{traceback.format_exc()}")
    finally:
        links.endpoint(rank).close()


@contextmanager
def _bound_to(cpu):
    """Bind the calling thread to ``cpu`` for the block and restore its
    mask after it, however it ends; ``None`` binds nothing."""
    if cpu is None:
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {cpu})
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


def _placement(n, forked):
    """The CPU each of ``n`` ranks binds to, round-robin over the
    caller's allowed CPUs in ascending order, for forked ranks where the
    platform can bind; else ``None`` for every rank."""
    if not forked or n == 1 or not hasattr(os, "sched_setaffinity"):
        return [None] * n
    cpus = sorted(os.sched_getaffinity(0))
    return [cpus[rank % len(cpus)] for rank in range(n)]


def _rank_entry(links, rank, fn, sink, forked, cpu):
    """A started rank's life, bound to ``cpu``: its outcome, sent to the
    caller.  A KeyboardInterrupt or SystemExit here is sent as an error,
    then re-raised."""
    if forked:  # drop the other ranks' ends
        links.close(keep=rank)
    try:
        with _bound_to(cpu):
            outcome = _outcome(links, rank, fn)
    except BaseException as exc:
        outcome = "error", f"raised {exc!r}\n{traceback.format_exc()}"
        raise
    finally:
        with sink:
            sink.send(outcome)


def run_ranks(links, fns, forked):
    """Run ``fns[r]()`` as rank r over ``links`` and return the results in
    rank order.  Ranks 1..n-1 start on forked children or on threads;
    rank 0 runs in the calling thread, so a group of one starts nothing.
    With ``forked`` and n > 1, rank r is bound to the CPU
    ``sorted(caller's allowed CPUs)[r % count]``: a child from its start,
    and the calling thread only while rank 0 runs, its mask restored
    however rank 0 ends.

    A rank's links close when it ends, so every rank ends by itself, and
    the caller collects the outcomes in rank order.  The lowest rank that
    raised, or exited without an outcome, is named in a DcnnError; else
    the lowest rank that only saw PeerClosed is.  A KeyboardInterrupt
    or SystemExit in rank 0 propagates as itself, once the other ranks
    have ended or, if forked, been terminated.
    """
    if len(fns) != links.n:
        raise ValidationError(f"expected {links.n} callables, got {len(fns)}")
    start = mp.get_context("fork").Process if forked else threading.Thread
    cpus = _placement(links.n, forked)
    ranks, sources = [], []
    try:
        for rank in range(1, links.n):
            source, sink = mp.Pipe(duplex=False)
            worker = start(target=_rank_entry,
                           args=(links, rank, fns[rank], sink, forked, cpus[rank]),
                           daemon=True)
            worker.start()
            ranks.append(worker)
            sources.append(source)
            if forked:  # made after the earlier forks: only this child holds it
                sink.close()
        if forked:  # the children hold their own link ends; the caller keeps rank 0's
            links.close(keep=0)
        with _bound_to(cpus[0]):
            outcomes = [_outcome(links, 0, fns[0])]
        for source, worker in zip(sources, ranks):
            try:
                outcomes.append(source.recv())
            except EOFError:
                worker.join(timeout=5.0)
                outcomes.append(("error", f"exited with code "
                                 f"{getattr(worker, 'exitcode', None)} before "
                                 f"reporting a result"))
    finally:
        links.endpoint(0).close()  # if a start failed before rank 0 ran
        for worker, source in zip(ranks, sources):
            worker.join(timeout=5.0)
            if forked and worker.is_alive():
                worker.terminate()
            source.close()
    for kind in ("error", "closed"):
        for rank, (got, payload) in enumerate(outcomes):
            if got == kind:
                raise DcnnError(f"worker failure: rank {rank} {payload}")
    return [payload for _kind, payload in outcomes]
