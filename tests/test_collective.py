"""Tests for ring all-reduce, parameter server, and gossip averaging."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dcnn.collective import (
    gather_sum,
    gather_to_root,
    gossip_exchange,
    gossip_finalize_exchange,
    gossip_pairs,
    gossip_partner,
    mean_ascending,
    ps_halt,
    ps_server_round,
    ps_worker_round,
    ring_all_reduce,
    ring_chunks,
)
from dcnn.errors import DcnnError, ValidationError
from dcnn.transport import ProcessLinks
from helpers import run_group
from oracles import gossip_finalize, gossip_round, parameter_server_round


def run_ring(vectors, timeout=60.0):
    """Drive ring_all_reduce concurrently on thread ranks."""
    fns = [(lambda ep, vec=vec: ring_all_reduce(vec, ep)) for vec in vectors]
    return run_group(fns, vectors[0].dtype, timeout=timeout)


def run_gossip(vectors, round_index):
    """One gossip_exchange round, concurrently on thread ranks."""
    fns = [(lambda ep, vec=vec: gossip_exchange(ep, round_index, vec)) for vec in vectors]
    return run_group(fns, vectors[0].dtype)


def run_ps_round(grads, step):
    """One ps_server_round with a thread rank per gradient report and the
    server at the highest rank: (worker replies, server result, stats)."""
    server_rank = len(grads)
    fns = [(lambda ep, g=g: ps_worker_round(ep, server_rank, g)) for g in grads]
    fns.append(lambda ep: ps_server_round(ep, step))
    (*replies, server_result), stats = run_group(fns, grads[0].dtype)
    return replies, server_result, stats


def random_vectors(n, d, dtype, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    if np.issubdtype(np.dtype(dtype), np.integer):
        return [rng.integers(-1000, 1000, size=d).astype(dtype) for _ in range(n)]
    return [rng.normal(size=d).astype(dtype) for _ in range(n)]


class TestRingChunks:
    def test_five_elements_two_chunks(self):
        assert ring_chunks(5, 2) == [(0, 3), (3, 5)]

    def test_typical_parameter_vector(self):
        bounds = ring_chunks(1246, 4)
        sizes = [hi - lo for lo, hi in bounds]
        assert sizes == [312, 312, 311, 311]
        assert bounds[0][0] == 0 and bounds[-1][1] == 1246

    def test_more_chunks_than_elements(self):
        bounds = ring_chunks(1, 8)
        sizes = [hi - lo for lo, hi in bounds]
        assert sizes == [1, 0, 0, 0, 0, 0, 0, 0]

    def test_single_chunk(self):
        assert ring_chunks(10, 1) == [(0, 10)]

    def test_exact_division(self):
        assert [hi - lo for lo, hi in ring_chunks(8, 4)] == [2, 2, 2, 2]


class TestRingAllReduce:
    def test_three_workers_worked_example(self):
        vecs = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
        results, stats = run_ring(vecs)
        for out in results:
            assert np.array_equal(out, [9.0, 12.0])
        assert stats.messages == 2 * 3 * 2

    def test_single_worker_identity_no_messages(self):
        vecs = [np.array([7.0, 8.0, 9.0])]
        results, stats = run_ring(vecs)
        assert np.array_equal(results[0], vecs[0])
        assert results[0] is not vecs[0]
        assert stats.messages == 0

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8])
    @pytest.mark.parametrize("d", [1, 5, 1246])
    def test_integer_oracle_exact(self, n, d):
        vecs = random_vectors(n, d, np.int64, seed=n * 100 + d)
        results, stats = run_ring(vecs)
        expected = gather_sum(vecs)
        for out in results:
            assert np.array_equal(out, expected)
        assert stats.messages == 2 * n * (n - 1)
        # each of the 2 (N - 1) steps sends every chunk once, around the ring
        assert stats.bytes == 2 * (n - 1) * d * vecs[0].itemsize

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_float32_oracle_within_tolerance(self, n):
        # error is normalized by the summand magnitude: a sum of values
        # near +-1 can legitimately cancel to ~0, where an elementwise
        # relative error would be meaningless
        d = 1246
        vecs = random_vectors(n, d, np.float32, seed=n)
        results, _ = run_ring(vecs)
        exact = gather_sum([v.astype(np.float64) for v in vecs])
        scale = np.maximum(sum(np.abs(v.astype(np.float64)) for v in vecs), 1e-12)
        for out in results:
            rel = np.abs(out - exact) / scale
            assert rel.max() <= 1e-6

    def test_float64_oracle_tight(self):
        vecs = random_vectors(4, 10_000, np.float64, seed=17)
        results, _ = run_ring(vecs)
        expected = gather_sum(vecs)
        scale = np.maximum(sum(np.abs(v) for v in vecs), 1e-12)
        for out in results:
            rel = np.abs(out - expected) / scale
            assert rel.max() <= 1e-12

    def test_all_workers_bit_identical(self):
        vecs = random_vectors(8, 1246, np.float32, seed=23)
        results, _ = run_ring(vecs)
        baseline = results[0]
        for out in results[1:]:
            assert np.array_equal(out, baseline)

    def test_input_vectors_unmodified(self):
        vecs = random_vectors(3, 50, np.float64, seed=5)
        originals = [v.copy() for v in vecs]
        run_ring(vecs)
        for v, orig in zip(vecs, originals):
            assert np.array_equal(v, orig)

    def test_length_mismatch_is_protocol_error(self):
        vecs = [np.zeros(6), np.zeros(7)]
        with pytest.raises(DcnnError, match=r"rank 1 raised ProtocolError\('rank 1 received "
                                            r"chunk of shape \(3,\), expected \(4,\)"):
            run_ring(vecs, timeout=1.0)

    def test_non_flat_input_rejected(self):
        links = ProcessLinks(1, np.float64)
        with pytest.raises(ValidationError, match="flat"):
            ring_all_reduce(np.zeros((2, 2)), links.endpoint(0))

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(1, 5),
        d=st.integers(1, 64),
        seed=st.integers(0, 2**31),
    )
    def test_property_matches_gather_sum(self, n, d, seed):
        vecs = random_vectors(n, d, np.int64, seed=seed)
        results, stats = run_ring(vecs)
        expected = gather_sum(vecs)
        for out in results:
            assert np.array_equal(out, expected)
        assert stats.messages == 2 * n * (n - 1)


class TestParameterServer:
    def test_round_averages_in_rank_order(self):
        seen = {}

        def step(mean_grad):
            seen["mean"] = mean_grad
            return np.array([10.0, 10.0]) - mean_grad

        # two elements: a one-element report is rank 0's halt
        replies, out, _stats = run_ps_round(
            [np.array([2.0, -1.0]), np.array([4.0, 1.0])], step
        )
        assert np.array_equal(seen["mean"], [3.0, 0.0])
        assert np.array_equal(out, [7.0, 10.0])
        for got in replies:
            assert np.array_equal(got, [7.0, 10.0])

    @pytest.mark.parametrize("n_workers", [1, 2, 3, 5])
    def test_transport_round_matches_pure_form_bitwise(self, n_workers):
        grads = random_vectors(n_workers, 37, np.float32, seed=70 + n_workers)
        params = random_vectors(1, 37, np.float32, seed=90)[0]
        expected = parameter_server_round(params, grads, lambda p, g: p - 0.5 * g)
        replies, out, stats = run_ps_round(grads, lambda g: params - 0.5 * g)
        for got in replies + [out]:
            assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()
        assert stats.messages == 2 * n_workers

    def test_transport_round_message_count_and_agreement(self):
        n_workers = 3
        params = np.array([1.0, 1.0])
        worker_results, server_result, stats = run_ps_round(
            [np.full(2, float(rank)) for rank in range(n_workers)],
            lambda g: params - g,
        )
        # mean grad = (0+1+2)/3 = 1 -> params [0,0]
        for got in worker_results:
            assert np.array_equal(got, [0.0, 0.0])
        assert np.array_equal(server_result, [0.0, 0.0])
        assert stats.messages == 2 * n_workers

    def test_halt_from_rank_zero_ends_the_rounds(self):
        server_rank = 2

        def rank0(ep):
            reply = ps_worker_round(ep, server_rank, np.array([2.0, 2.0]))
            ps_halt(ep, server_rank, np.float64)
            return reply

        def rank1(ep):
            return ps_worker_round(ep, server_rank, np.array([4.0, 4.0]))

        def server(ep):
            first = ps_server_round(ep, lambda g: np.zeros(2) - g)
            return first, ps_server_round(ep, lambda g: first - g)

        (reply0, reply1, (first, halted)), stats = run_group(
            [rank0, rank1, server], np.float64, timeout=5.0
        )
        assert np.array_equal(reply0, [-3.0, -3.0]) and np.array_equal(reply1, reply0)
        assert np.array_equal(first, reply0)
        assert halted is None
        # 2 reports + 2 broadcasts, then the 8-byte halt; rank 1 sends nothing more
        assert stats.messages == 5
        assert stats.bytes == 4 * 2 * 8 + 8

    def test_missing_report_times_out(self):
        server_done = threading.Event()

        def server(ep):
            try:
                return ps_server_round(ep, lambda g: g)
            finally:
                server_done.set()

        def silent_worker(_ep):
            assert server_done.wait(timeout=30)  # alive, but never reports

        with pytest.raises(DcnnError, match=r"rank 1 raised ProtocolError\('rank 1 timed out "
                                            r"waiting for a message from rank 0'\)"):
            run_group([silent_worker, server], np.float64, timeout=0.1)

    def test_missing_report_from_a_worker_that_ended_is_peer_closed(self):
        def server(ep):
            return ps_server_round(ep, lambda g: g)

        def worker_that_ends(_ep):
            return None  # never reports

        t0 = time.perf_counter()
        # the default link timeout: a live peer would be waited on for minutes
        with pytest.raises(DcnnError, match=r"rank 1 raised PeerClosed\('rank 1 cannot "
                                            r"receive: its link to rank 0 is closed'\)"):
            run_group([worker_that_ends, server], np.float64)
        assert time.perf_counter() - t0 < 5


class TestGossipPairing:
    def test_even_round_pairs(self):
        assert gossip_pairs(4, 0) == [(0, 1), (2, 3)]
        assert gossip_pairs(6, 2) == [(0, 1), (2, 3), (4, 5)]

    def test_odd_round_pairs_wrap_for_even_n(self):
        assert gossip_pairs(4, 1) == [(1, 2), (3, 0)]
        assert gossip_pairs(6, 3) == [(1, 2), (3, 4), (5, 0)]

    def test_odd_n_leaves_one_unmatched(self):
        assert gossip_pairs(5, 0) == [(0, 1), (2, 3)]
        assert gossip_pairs(5, 1) == [(1, 2), (3, 4)]

    def test_small_groups(self):
        assert gossip_pairs(1, 0) == []
        assert gossip_pairs(2, 0) == [(0, 1)]
        assert gossip_pairs(2, 1) == [(1, 0)]

    def test_partner_lookup(self):
        assert gossip_partner(4, 0, 0) == 1
        assert gossip_partner(4, 3, 1) == 0
        assert gossip_partner(5, 4, 0) is None

    def test_every_rank_appears_at_most_once(self):
        for n in range(2, 9):
            for rnd in range(4):
                flat = [r for pair in gossip_pairs(n, rnd) for r in pair]
                assert len(flat) == len(set(flat))
                assert all(0 <= r < n for r in flat)


class TestGossipRound:
    """Gossip rounds as training runs them: gossip_exchange on every rank."""

    def test_pairwise_mean(self):
        out, _ = run_gossip([np.array([0.0]), np.array([8.0])], 0)
        assert np.array_equal(out[0], [4.0]) and np.array_equal(out[1], [4.0])

    def test_mean_invariant_float(self):
        rng = np.random.Generator(np.random.PCG64(3))
        vecs = [rng.normal(size=20) for _ in range(6)]
        total_before = gather_sum(vecs)
        for rnd in range(6):
            vecs, _ = run_gossip(vecs, rnd)
        total_after = gather_sum(vecs)
        assert np.allclose(total_before, total_after, rtol=1e-12)

    def test_mean_invariant_exact_integer(self):
        # even pairwise sums keep integer averaging exact
        vecs = [np.array([0, 100]), np.array([4, 96]), np.array([8, 104]), np.array([12, 100])]
        total = gather_sum(vecs)
        for rnd in range(5):
            vecs, _ = run_gossip(vecs, rnd)
            assert np.array_equal(gather_sum(vecs), total)

    def test_spread_trajectory_on_fixture(self):
        vecs = [np.array([0.0]), np.array([4.0]), np.array([8.0]), np.array([12.0])]
        spreads = []
        for rnd in range(5):
            vecs, _ = run_gossip(vecs, rnd)
            values = [float(v[0]) for v in vecs]
            spreads.append(max(values) - min(values))
        assert spreads == [8.0, 0.0, 0.0, 0.0, 0.0]

    def test_unmatched_worker_keeps_vector(self):
        vecs = [np.array([1.0]), np.array([3.0]), np.array([100.0])]
        out, _ = run_gossip(vecs, 0)  # N=3 even round: (0,1) pair, 2 alone
        assert np.array_equal(out[0], [2.0])
        assert np.array_equal(out[1], [2.0])
        assert np.array_equal(out[2], [100.0])


class TestGossipTransport:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    @pytest.mark.parametrize("round_index", [0, 1, 2])
    def test_matches_pure_form_bitwise(self, n, round_index):
        vecs = random_vectors(n, 33, np.float32, seed=n * 10 + round_index)
        results, stats = run_gossip(vecs, round_index)
        expected = gossip_round(vecs, round_index)
        for got, want in zip(results, expected):
            assert np.array_equal(got, want)
        assert stats.messages == 2 * len(gossip_pairs(n, round_index))

    def test_paired_workers_end_bit_identical(self):
        vecs = random_vectors(4, 100, np.float64, seed=9)
        results, _ = run_gossip(vecs, 0)
        assert np.array_equal(results[0], results[1])
        assert np.array_equal(results[2], results[3])

    def test_length_mismatch_is_protocol_error(self):
        vecs = [np.zeros(4), np.zeros(3)]
        with pytest.raises(DcnnError, match=r"rank 0 raised ProtocolError\('rank 0 received "
                                            r"vector of shape \(3,\), expected \(4,\)"):
            run_gossip(vecs, 0)


def run_finalize(vectors):
    fns = [(lambda ep, vec=vec: gossip_finalize_exchange(ep, vec)) for vec in vectors]
    return run_group(fns, vectors[0].dtype)


class TestGossipFinalize:
    def test_mean_of_three(self):
        out, _ = run_finalize([np.array([1.0]), np.array([2.0]), np.array([3.0])])
        for got in out:
            assert np.array_equal(got, [2.0])

    def test_single_worker_identity(self):
        (out,), stats = run_finalize([np.array([5.0, 6.0])])
        assert np.array_equal(out, [5.0, 6.0])
        assert stats.messages == 0

    def test_transport_form_zero_pairwise_distance(self):
        vecs = random_vectors(5, 40, np.float64, seed=31)
        results, _stats = run_finalize(vecs)
        expected = gossip_finalize(vecs)
        for got in results:
            assert np.array_equal(got, expected)
        for a in results:
            for b in results:
                assert np.abs(a - b).max() == 0.0


class TestGatherToRoot:
    @pytest.mark.parametrize("forked", [False, True], ids=["threads", "processes"])
    def test_rank_zero_joins_the_parts_in_rank_order(self, forked):
        length, n = 5, 3
        sizes = [hi - lo for lo, hi in ring_chunks(length, n)]
        whole = np.arange(length, dtype=np.float32) + 0.5
        fns = [(lambda ep, lo=lo, hi=hi: gather_to_root(ep, whole[lo:hi], sizes))
               for lo, hi in ring_chunks(length, n)]
        out, stats = run_group(fns, np.float32, forked=forked)
        assert out[0].tobytes() == whole.tobytes()
        assert out[1:] == [None, None]
        assert (stats.messages, stats.bytes) == (n - 1, (length - sizes[0]) * 4)

    def test_an_empty_part_is_still_sent(self):
        sizes = [1, 0]
        fns = [lambda ep: gather_to_root(ep, np.ones(1), sizes),
               lambda ep: gather_to_root(ep, np.ones(0), sizes)]
        out, stats = run_group(fns, np.float64)
        assert out[0].tolist() == [1.0] and stats.messages == 1

    def test_only_the_first_len_sizes_ranks_take_part(self):
        # a parameter server at the highest rank sends and receives nothing
        sizes = [2, 1]
        fns = [lambda ep: gather_to_root(ep, np.zeros(2), sizes),
               lambda ep: gather_to_root(ep, np.ones(1), sizes),
               lambda ep: "server"]
        out, stats = run_group(fns, np.float64)
        assert out[0].tolist() == [0.0, 0.0, 1.0] and out[2] == "server"
        assert stats.messages == 1

    def test_a_part_of_the_wrong_length_is_a_protocol_error(self):
        fns = [lambda ep: gather_to_root(ep, np.zeros(2), [2, 2]),
               lambda ep: gather_to_root(ep, np.zeros(3), [2, 2])]
        with pytest.raises(DcnnError, match=r"rank 0 raised ProtocolError\('rank 0 received "
                                            r"part of shape \(3,\), expected \(2,\)"):
            run_group(fns, np.float64)


class TestMeanAscending:
    def test_fixed_fold_order(self):
        vecs = [np.array([1.0]), np.array([2.0]), np.array([6.0])]
        assert np.array_equal(mean_ascending(vecs), [3.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError, match="shape"):
            gather_sum([np.zeros(2), np.zeros(3)])
        with pytest.raises(ValidationError, match="zero vectors"):
            gather_sum([])
