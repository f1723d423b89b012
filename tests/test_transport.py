"""Tests for the transport: one endpoint class over one link kind, a
pipe, whether its ranks are threads or forked processes."""

import multiprocessing as mp
import random
import threading
import time

import numpy as np
import pytest

from dcnn.collective import ring_all_reduce
from dcnn.errors import PeerClosed, ProtocolError, ValidationError
from dcnn.transport import ProcessLinks, ThreadGroup, TransportStats


class TestStats:
    def test_recording(self):
        stats = TransportStats()
        stats.record(np.zeros(10, dtype=np.float32))
        stats.record(np.zeros(3, dtype=np.float64))
        assert stats.messages == 2
        assert stats.bytes == 40 + 24
        assert stats.max_message_elements == 10

    def test_merge(self):
        a = TransportStats(messages=2, bytes=100, max_message_elements=5)
        b = TransportStats(messages=3, bytes=50, max_message_elements=9)
        a.merge(b)
        assert (a.messages, a.bytes, a.max_message_elements) == (5, 150, 9)


class _LinkContract:
    """What the links must do; each subclass names its links class."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_raw_bytes_round_trip_bitwise(self, dtype):
        links = self.links_class(2, dtype)
        a, b = links.endpoint(0), links.endpoint(1)
        vectors = [
            np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 1e-30, -3.5], dtype=dtype),
            np.empty(0, dtype=dtype),  # an empty ring chunk
            np.arange(10, dtype=dtype)[::3],  # strided: sent as its contiguous copy
        ]
        for vec in vectors:
            a.send(1, vec)
        for vec in vectors:
            got = b.recv(0)
            assert got.dtype == dtype and got.shape == vec.shape
            assert got.tobytes() == np.ascontiguousarray(vec).tobytes()
            assert not got.flags.writeable
        assert a.stats.messages == 3
        assert a.stats.bytes == sum(v.nbytes for v in vectors)
        links.close()

    @pytest.mark.parametrize("payload", [
        np.zeros((2, 3), dtype=np.float32),
        np.zeros(3, dtype=np.float64),
        np.float32(1.0),
        [1.0, 2.0],
    ], ids=["2-D", "wrong-dtype", "scalar", "list"])
    def test_rejects_anything_but_a_flat_run_dtype_vector(self, payload):
        links = self.links_class(2, np.float32)
        ep = links.endpoint(0)
        with pytest.raises(ValidationError, match="flat float32 vectors"):
            ep.send(1, payload)
        assert ep.stats.messages == 0
        links.close()

    def test_send_copies_payload(self):
        links = self.links_class(2, np.float64)
        a, b = links.endpoint(0), links.endpoint(1)
        buf = np.array([1.0, 2.0])
        a.send(1, buf)
        buf[:] = -1
        assert np.array_equal(b.recv(0), [1.0, 2.0])
        links.close()

    def test_a_closed_link_raises_peer_closed_after_the_queued_messages(self):
        links = self.links_class(2, np.float32)
        a, b = links.endpoint(0), links.endpoint(1)
        a.send(1, np.ones(3, dtype=np.float32))
        a.close()
        assert np.array_equal(b.recv(0), np.ones(3))
        t0 = time.perf_counter()
        with pytest.raises(PeerClosed, match="rank 1 cannot receive"):
            b.recv(0)
        with pytest.raises(PeerClosed, match="rank 1 cannot send"):
            b.send(0, np.ones(3, dtype=np.float32))
        with pytest.raises(PeerClosed, match="rank 0 cannot receive"):
            a.recv(1)  # its own end is closed too
        with pytest.raises(PeerClosed, match="rank 0 cannot send"):
            a.send(1, np.ones(3, dtype=np.float32))
        assert time.perf_counter() - t0 < 1  # at once, not after the timeout
        links.close()

    def test_recv_timeout_is_protocol_error(self):
        links = self.links_class(2, np.float64, timeout=0.05)
        t0 = time.perf_counter()
        with pytest.raises(ProtocolError, match="rank 0 timed out waiting for a message "
                                                "from rank 1"):
            links.endpoint(0).recv(1)
        assert 0.04 < time.perf_counter() - t0 < 2
        links.close()

    def test_a_swap_larger_than_the_pipe_buffer_times_out_on_both_ranks(self):
        # both ranks send a 2 MB ring chunk before either receives
        links = self.links_class(2, np.float32, timeout=0.2)
        errors = [None, None]

        def rank(r):
            try:
                ring_all_reduce(np.ones(1_000_000, dtype=np.float32), links.endpoint(r))
            except ProtocolError as exc:
                errors[r] = exc

        threads = [threading.Thread(target=rank, args=(r,), daemon=True) for r in range(2)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)  # a send with no timeout never returns
        assert not any(thread.is_alive() for thread in threads), "a blocked send hung"
        assert time.perf_counter() - t0 < 5
        for r, exc in enumerate(errors):
            assert isinstance(exc, ProtocolError)
            assert f"rank {r} timed out sending a message to rank {1 - r}" in str(exc)
        links.close()


class TestThreadGroup(_LinkContract):
    links_class = ThreadGroup

    def test_basic_exchange(self):
        group = ThreadGroup(2, np.float64)
        a, b = group.endpoint(0), group.endpoint(1)

        def rank0():
            a.send(1, np.array([1.0, 2.0]))
            return a.recv(1)

        def rank1():
            got = b.recv(0)
            b.send(0, got * 10)
            return got

        r0, r1 = group.run([rank0, rank1])
        assert np.array_equal(r0, [10.0, 20.0])
        assert np.array_equal(r1, [1.0, 2.0])
        assert group.stats.messages == 2

    def test_fifo_per_link_with_randomized_scheduling(self):
        n, per_pair = 3, 30
        group = ThreadGroup(n, np.int64)
        sched = random.Random(1234)
        delays = {r: [sched.random() * 1e-4 for _ in range(per_pair * n)] for r in range(n)}

        def worker(rank):
            ep = group.endpoint(rank)
            def body():
                i = 0
                for k in range(per_pair):
                    for dst in range(n):
                        if dst == rank:
                            continue
                        time.sleep(delays[rank][i])
                        i += 1
                        ep.send(dst, np.array([rank, k]))
                seen = {src: -1 for src in range(n) if src != rank}
                for _ in range(per_pair * (n - 1)):
                    src = min(seen, key=lambda s: seen[s])
                    msg = ep.recv(src)
                    assert msg[0] == src
                    assert msg[1] == seen[src] + 1, "per-link FIFO violated"
                    seen[src] = msg[1]
                return seen
            return body

        results = group.run([worker(r) for r in range(n)])
        for seen in results:
            assert all(v == per_pair - 1 for v in seen.values())

    def test_peer_validation(self):
        group = ThreadGroup(2, np.float64)
        ep = group.endpoint(0)
        with pytest.raises(ValidationError, match="cannot message itself"):
            ep.send(0, np.zeros(1))
        with pytest.raises(ValidationError, match="outside"):
            ep.send(5, np.zeros(1))
        with pytest.raises(ValidationError, match="outside"):
            group.endpoint(9)

    def test_run_propagates_worker_failure(self):
        group = ThreadGroup(2, np.float64)

        def ok():
            return 1

        def bad():
            raise RuntimeError("worker exploded")

        with pytest.raises(RuntimeError, match="exploded"):
            group.run([ok, bad])

    def test_a_raising_rank_wakes_its_blocked_peer(self):
        group = ThreadGroup(2, np.float64)  # a live peer would be waited on for minutes

        def blocked():
            return group.endpoint(0).recv(1)

        def bad():
            raise RuntimeError("worker exploded")

        before = set(threading.enumerate())
        t0 = time.perf_counter()
        with pytest.raises(RuntimeError, match="exploded"):
            group.run([blocked, bad])
        assert time.perf_counter() - t0 < 5
        assert set(threading.enumerate()) <= before  # no rank left behind

    def test_run_arity_check(self):
        group = ThreadGroup(2, np.float64)
        with pytest.raises(ValidationError, match="2 callables"):
            group.run([lambda: None])


def _process_child(links, rank, out_queue):
    ep = links.endpoint(rank)
    peer = 1 - rank
    ep.send(peer, np.full(4, float(rank + 1)))
    got = ep.recv(peer)
    out_queue.put((rank, got.tolist(), ep.stats.messages, ep.stats.bytes))


class TestProcessLinks(_LinkContract):
    links_class = ProcessLinks

    def test_cross_process_exchange(self):
        ctx = mp.get_context("fork")
        links = ProcessLinks(2, np.float64, timeout=30.0)
        out = ctx.Queue()
        procs = [
            ctx.Process(target=_process_child, args=(links, rank, out))
            for rank in range(2)
        ]
        for p in procs:
            p.start()
        results = {}
        for _ in range(2):
            rank, payload, messages, nbytes = out.get(timeout=30)
            results[rank] = (payload, messages, nbytes)
        for p in procs:
            p.join(timeout=30)
            assert p.exitcode == 0
        assert results[0][0] == [2.0, 2.0, 2.0, 2.0]
        assert results[1][0] == [1.0, 1.0, 1.0, 1.0]
        # each endpoint counted exactly its own single send
        assert results[0][1] == results[1][1] == 1
        assert results[0][2] == results[1][2] == 4 * 8

    def test_endpoint_validation(self):
        links = ProcessLinks(2, np.float32)
        with pytest.raises(ValidationError, match="outside"):
            links.endpoint(2)
        links.close()
