"""Tests for the transport: one endpoint class over one link kind, a
pipe, and one runner that runs rank 0 in the caller and starts every
other rank as a thread or a forked process."""

import multiprocessing as mp
import os
import random
import threading
import time

import numpy as np
import pytest

from dcnn.collective import ring_all_reduce
from dcnn.errors import DcnnError, PeerClosed, ProtocolError, ValidationError
from dcnn.transport import ProcessLinks, TransportStats, run_ranks
from helpers import run_group


class TestStats:
    def test_recording(self):
        stats = TransportStats()
        stats.record(np.zeros(10, dtype=np.float32))
        stats.record(np.zeros(3, dtype=np.float64))
        assert stats.messages == 2
        assert stats.bytes == 40 + 24

    def test_merge(self):
        a = TransportStats(messages=2, bytes=100)
        b = TransportStats(messages=3, bytes=50)
        a.merge(b)
        assert (a.messages, a.bytes) == (5, 150)


class TestProcessLinks:
    """The one link class.  Most of these tests drive both ends of a link
    from the test itself; TestRunRanks starts ranks on both backends."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_raw_bytes_round_trip_bitwise(self, dtype):
        links = ProcessLinks(2, dtype)
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
        links = ProcessLinks(2, np.float32)
        ep = links.endpoint(0)
        with pytest.raises(ValidationError, match="flat float32 vectors"):
            ep.send(1, payload)
        assert ep.stats.messages == 0
        links.close()

    def test_send_copies_payload(self):
        links = ProcessLinks(2, np.float64)
        a, b = links.endpoint(0), links.endpoint(1)
        buf = np.array([1.0, 2.0])
        a.send(1, buf)
        buf[:] = -1
        assert np.array_equal(b.recv(0), [1.0, 2.0])
        links.close()

    def test_a_closed_link_raises_peer_closed_after_the_queued_messages(self):
        links = ProcessLinks(2, np.float32)
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
        links = ProcessLinks(2, np.float64, timeout=0.05)
        t0 = time.perf_counter()
        with pytest.raises(ProtocolError, match="rank 0 timed out waiting for a message "
                                                "from rank 1"):
            links.endpoint(0).recv(1)
        assert 0.04 < time.perf_counter() - t0 < 2
        links.close()

    def test_a_swap_larger_than_the_pipe_buffer_times_out_on_both_ranks(self):
        # both ranks send a 2 MB ring chunk before either receives
        links = ProcessLinks(2, np.float32, timeout=0.2)
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

    def test_cross_process_exchange(self):
        def exchange(ep):
            peer = 1 - ep.rank
            ep.send(peer, np.full(4, float(ep.rank + 1)))
            return ep.recv(peer).tolist(), ep.stats.messages, ep.stats.bytes

        results, _stats = run_group([exchange, exchange], np.float64, forked=True,
                                    timeout=30.0)
        assert results[0][0] == [2.0, 2.0, 2.0, 2.0]
        assert results[1][0] == [1.0, 1.0, 1.0, 1.0]
        # each endpoint counted exactly its own single send
        assert results[0][1] == results[1][1] == 1
        assert results[0][2] == results[1][2] == 4 * 8

    def test_endpoint_validation(self):
        links = ProcessLinks(2, np.float32)
        with pytest.raises(ValidationError, match="outside"):
            links.endpoint(2)
        ep = links.endpoint(0)
        with pytest.raises(ValidationError, match="cannot message itself"):
            ep.send(0, np.zeros(1, dtype=np.float32))
        with pytest.raises(ValidationError, match="outside"):
            ep.send(5, np.zeros(1, dtype=np.float32))
        links.close()


class TestThreadGroup:
    """The link contract as a group of thread ranks sees it: each end of a
    link is used by its own rank, started on a thread by ``run_ranks``
    (through ``run_group``), and a rank's links close when it returns."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_raw_bytes_round_trip_bitwise(self, dtype):
        vectors = [
            np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 1e-30, -3.5], dtype=dtype),
            np.empty(0, dtype=dtype),  # an empty ring chunk
            np.arange(10, dtype=dtype)[::3],  # strided: sent as its contiguous copy
        ]

        def sender(ep):
            for vec in vectors:
                ep.send(1, vec)

        def receiver(ep):
            # the result crosses the runner's outcome pipe as a copy, so the
            # read-only flag is taken here
            return [(got.dtype, got.shape, got.tobytes(), got.flags.writeable)
                    for got in (ep.recv(0) for _ in vectors)]

        (_, received), stats = run_group([sender, receiver], dtype, timeout=5.0)
        for vec, (got_dtype, shape, raw, writeable) in zip(vectors, received):
            assert got_dtype == dtype and shape == vec.shape
            assert raw == np.ascontiguousarray(vec).tobytes()
            assert not writeable
        assert stats.messages == 3
        assert stats.bytes == sum(v.nbytes for v in vectors)

    @pytest.mark.parametrize("payload", [
        np.zeros((2, 3), dtype=np.float32),
        np.zeros(3, dtype=np.float64),
        np.float32(1.0),
        [1.0, 2.0],
    ], ids=["2-D", "wrong-dtype", "scalar", "list"])
    def test_rejects_anything_but_a_flat_run_dtype_vector(self, payload):
        def sender(ep):
            with pytest.raises(ValidationError, match="flat float32 vectors"):
                ep.send(1, payload)

        _, stats = run_group([sender, lambda _ep: None], np.float32, timeout=5.0)
        assert stats.messages == 0

    def test_send_copies_payload(self):
        def sender(ep):
            buf = np.array([1.0, 2.0])
            ep.send(1, buf)
            buf[:] = -1

        def receiver(ep):
            return ep.recv(0)

        (_, got), _ = run_group([sender, receiver], np.float64, timeout=5.0)
        assert np.array_equal(got, [1.0, 2.0])

    def test_a_closed_link_raises_peer_closed_after_the_queued_messages(self):
        ones = np.ones(3, dtype=np.float32)

        def closer(ep):
            ep.send(1, ones)
            ep.close()
            with pytest.raises(PeerClosed, match="rank 0 cannot receive"):
                ep.recv(1)  # its own end is closed too
            with pytest.raises(PeerClosed, match="rank 0 cannot send"):
                ep.send(1, ones)

        def reader(ep):
            first = ep.recv(0)
            t0 = time.perf_counter()
            with pytest.raises(PeerClosed, match="rank 1 cannot receive"):
                ep.recv(0)
            with pytest.raises(PeerClosed, match="rank 1 cannot send"):
                ep.send(0, ones)
            return first, time.perf_counter() - t0

        (_, (first, waited)), _ = run_group([closer, reader], np.float32, timeout=5.0)
        assert np.array_equal(first, ones)
        assert waited < 1  # at once, not after the timeout

    def test_recv_timeout_is_protocol_error(self):
        timed_out = threading.Event()

        def waiter(ep):
            t0 = time.perf_counter()
            with pytest.raises(ProtocolError, match="rank 0 timed out waiting for a "
                                                    "message from rank 1"):
                ep.recv(1)
            timed_out.set()
            return time.perf_counter() - t0

        def silent(_ep):
            timed_out.wait(timeout=5)  # alive, so its link stays open, but sends nothing

        (waited, _), _ = run_group([waiter, silent], np.float64, timeout=0.05)
        assert 0.04 < waited < 2

    def test_a_swap_larger_than_the_pipe_buffer_times_out_on_both_ranks(self):
        # both ranks send a 2 MB ring chunk before either receives
        both_gave_up = threading.Barrier(2, timeout=10)

        def rank(ep):
            try:
                ring_all_reduce(np.ones(1_000_000, dtype=np.float32), ep)
            except ProtocolError as exc:
                both_gave_up.wait()  # no link closes before both sends timed out
                return str(exc)

        outcome = {}

        def run():
            try:
                outcome["messages"], _ = run_group([rank, rank], np.float32, timeout=0.2)
            except BaseException as exc:
                outcome["error"] = exc

        runner = threading.Thread(target=run, daemon=True)
        t0 = time.perf_counter()
        runner.start()
        runner.join(timeout=20)  # a send with no timeout never returns
        assert not runner.is_alive(), "a blocked send hung"
        assert time.perf_counter() - t0 < 5
        if "error" in outcome:
            raise outcome["error"]
        for r, message in enumerate(outcome["messages"]):
            assert f"rank {r} timed out sending a message to rank {1 - r}" in message

    def test_peer_validation(self):
        def rank0(ep):
            with pytest.raises(ValidationError, match="cannot message itself"):
                ep.send(0, np.zeros(1))
            with pytest.raises(ValidationError, match="outside"):
                ep.send(5, np.zeros(1))
            with pytest.raises(ValidationError, match="cannot message itself"):
                ep.recv(0)
            with pytest.raises(ValidationError, match="outside"):
                ep.recv(9)
            return ep.stats.messages

        (sent, _), _ = run_group([rank0, lambda _ep: None], np.float64, timeout=5.0)
        assert sent == 0


@pytest.mark.parametrize("forked", [False, True], ids=["threads", "processes"])
class TestRunRanks:
    """``transport.run_ranks``, the runner training uses, on both backends."""

    def test_basic_exchange(self, forked):
        def rank0(ep):
            ep.send(1, np.array([1.0, 2.0]))
            return ep.recv(1)

        def rank1(ep):
            got = ep.recv(0)
            ep.send(0, got * 10)
            return got

        (r0, r1), stats = run_group([rank0, rank1], np.float64, forked=forked)
        assert np.array_equal(r0, [10.0, 20.0])
        assert np.array_equal(r1, [1.0, 2.0])
        assert stats.messages == 2
        assert stats.bytes == 2 * 2 * 8

    def test_fifo_per_link_with_randomized_scheduling(self, forked):
        n, per_pair = 3, 30
        sched = random.Random(1234)
        delays = {r: [sched.random() * 1e-4 for _ in range(per_pair * n)] for r in range(n)}

        def worker(ep):
            rank = ep.rank
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
                seen[src] = int(msg[1])
            return seen

        results, stats = run_group([worker] * n, np.int64, forked=forked)
        for seen in results:
            assert all(v == per_pair - 1 for v in seen.values())
        assert stats.messages == n * (n - 1) * per_pair

    def test_run_propagates_worker_failure(self, forked):
        def ok(_ep):
            return 1

        def bad(_ep):
            raise RuntimeError("worker exploded")

        with pytest.raises(DcnnError, match=r"rank 1 raised RuntimeError\('worker "
                                            r"exploded'\)") as excinfo:
            run_group([ok, bad], np.float64, forked=forked)
        assert "in bad" in str(excinfo.value)  # the rank's traceback crosses with it

    def test_a_raising_rank_wakes_its_blocked_peer(self, forked):
        def blocked(ep):
            return ep.recv(1)  # the default link timeout: minutes on a live peer

        def bad(_ep):
            raise RuntimeError("worker exploded")

        before = set(threading.enumerate())
        t0 = time.perf_counter()
        with pytest.raises(DcnnError, match=r"rank 1 raised RuntimeError\('worker "
                                            r"exploded'\)"):
            run_group([blocked, bad], np.float64, forked=forked)
        assert time.perf_counter() - t0 < 5
        assert set(threading.enumerate()) <= before  # no rank left behind
        assert not mp.active_children()

    def test_rank_zero_runs_in_the_caller(self, forked):
        def where(_ep):
            return os.getpid(), threading.get_ident()

        caller = where(None)
        (r0, r1), _stats = run_group([where, where], np.float64, forked=forked)
        assert r0 == caller and r1 != caller

    def test_a_group_of_one_starts_nothing(self, forked):
        before = threading.active_count()

        def alone(_ep):
            return threading.active_count(), mp.active_children()

        (result,), stats = run_group([alone], np.float64, forked=forked)
        assert result == (before, []) and stats.messages == 0

    def test_an_interrupted_rank_zero_raises_its_interrupt_and_leaves_no_rank_behind(
            self, forked):
        def interrupted(_ep):
            raise KeyboardInterrupt

        def blocked(ep):
            return ep.recv(0)  # the default link timeout: minutes on a live peer

        before = set(threading.enumerate())
        t0 = time.perf_counter()
        with pytest.raises(KeyboardInterrupt):
            run_group([interrupted, blocked, blocked], np.float64, forked=forked)
        assert time.perf_counter() - t0 < 5
        assert set(threading.enumerate()) <= before
        assert not mp.active_children()

    def test_run_arity_check(self, forked):
        links = ProcessLinks(2, np.float64)
        with pytest.raises(ValidationError, match="expected 2 callables, got 1"):
            run_ranks(links, [lambda: None], forked)
        links.close()


def _mask(_ep):
    return os.sched_getaffinity(0)


needs_affinity = pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity"), reason="the platform cannot bind threads to CPUs"
)
needs_two_cpus = pytest.mark.skipif(
    not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs at least 2 allowed CPUs",
)


@needs_affinity
class TestPlacement:
    """On the process backend rank r runs on the r-th (mod their count)
    of the caller's allowed CPUs; threads and the caller's own mask are
    left as they were."""

    # two replicas (allreduce); two workers and the server at rank 2 (ps
    # ×2); three replicas; three workers and the server at rank 3 (ps ×3)
    @needs_two_cpus
    @pytest.mark.parametrize("n", [2, 3, 4], ids=["2-ranks", "3-ranks", "4-ranks"])
    def test_forked_ranks_bind_round_robin(self, n):
        caller = os.sched_getaffinity(0)
        cpus = sorted(caller)
        masks, _stats = run_group([_mask] * n, np.float64, forked=True)
        assert masks == [{cpus[rank % len(cpus)]} for rank in range(n)]
        assert os.sched_getaffinity(0) == caller  # rank 0 restored it

    @needs_two_cpus
    def test_the_ps_server_of_two_workers_shares_rank_zeros_cpu(self):
        # the server is rank N = 2 of three: 2 % 2 puts it on rank 0's CPU
        # when the caller may use exactly two CPUs
        caller = os.sched_getaffinity(0)
        two = set(sorted(caller)[:2])
        os.sched_setaffinity(0, two)
        try:
            (worker0, worker1, server), _stats = run_group([_mask] * 3, np.float64,
                                                           forked=True)
        finally:
            os.sched_setaffinity(0, caller)
        assert server == worker0 != worker1
        assert worker0 | worker1 == two

    def test_one_allowed_cpu_runs_every_rank_on_it(self):
        caller = os.sched_getaffinity(0)
        one = {min(caller)}
        os.sched_setaffinity(0, one)
        try:
            masks, _stats = run_group([_mask] * 3, np.float64, forked=True)
            assert os.sched_getaffinity(0) == one
        finally:
            os.sched_setaffinity(0, caller)
        assert masks == [one] * 3

    def test_threads_leave_every_mask_alone(self):
        caller = os.sched_getaffinity(0)
        masks, _stats = run_group([_mask] * 3, np.float64, forked=False)
        assert masks == [caller] * 3
        assert os.sched_getaffinity(0) == caller

    def test_a_group_of_one_is_not_bound(self):
        caller = os.sched_getaffinity(0)
        (mask,), _stats = run_group([_mask], np.float64, forked=True)
        assert mask == caller

    @pytest.mark.parametrize("raising", [0, 1], ids=["rank-0", "rank-1"])
    def test_the_callers_mask_is_restored_after_a_raising_rank(self, raising):
        def bad(_ep):
            raise RuntimeError("worker exploded")

        caller = os.sched_getaffinity(0)
        fns = [_mask, _mask]
        fns[raising] = bad
        with pytest.raises(DcnnError, match=f"rank {raising} raised RuntimeError"):
            run_group(fns, np.float64, forked=True)
        assert os.sched_getaffinity(0) == caller

    def test_the_callers_mask_is_restored_after_an_interrupt_in_rank_zero(self):
        def interrupted(_ep):
            raise KeyboardInterrupt

        caller = os.sched_getaffinity(0)
        with pytest.raises(KeyboardInterrupt):
            run_group([interrupted, _mask], np.float64, forked=True)
        assert os.sched_getaffinity(0) == caller
        assert not mp.active_children()
