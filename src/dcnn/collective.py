"""Aggregation strategies over the transport: ring all-reduce,
parameter server, and gossip averaging, plus the gather that joins the
ranks' validation shares on rank 0.

Each strategy runs concurrently on every rank's endpoint, and that form
is the only one: training calls exactly these functions.  The tests keep
a single-call reference of each (a list of vectors in, a list out) in
``tests/oracles.py`` and check the transport forms against it.  An N=1
run of ``allreduce`` or ``gossip`` exchanges nothing.

Determinism contract: every reduction folds its operands in a fixed
order (ascending rank, or ring order for the chunked all-reduce), so
repeated runs produce bit-identical results and all workers agree
exactly, not just approximately.
"""

from __future__ import annotations

import numpy as np

from .errors import ProtocolError, ValidationError

STRATEGIES = ("allreduce", "ps", "gossip")


def _recv_shaped(endpoint, peer: int, shape, what: str) -> np.ndarray:
    """The next message from ``peer``, which must have ``shape``."""
    received = endpoint.recv(peer)
    if received.shape != shape:
        raise ProtocolError(
            f"rank {endpoint.rank} received {what} of shape {received.shape}, "
            f"expected {shape}: peers disagree on vector length"
        )
    return received


# ---------------------------------------------------------------------------
# Ring all-reduce


def ring_chunks(length: int, n: int):
    """[start, stop) bounds of the n ring chunks: the first
    ``length % n`` chunks carry ceil(length/n) elements, the rest
    floor(length/n); short vectors produce empty trailing chunks."""
    if n < 1:
        raise ValidationError(f"chunk count must be >= 1, got {n}")
    base, extra = divmod(length, n)
    bounds = []
    start = 0
    for k in range(n):
        size = base + (1 if k < extra else 0)
        bounds.append((start, start + size))
        start += size
    return bounds


def ring_all_reduce(vec: np.ndarray, endpoint) -> np.ndarray:
    """Elementwise SUM of every worker's vector, via reduce-scatter plus
    all-gather around the ring; all workers return bit-identical output.

    Runs concurrently on all N workers.  2(N-1) steps, so exactly
    2*N*(N-1) messages per collective across the group; empty chunks are
    still sent so the message count is shape-independent.
    """
    vec = np.asarray(vec)
    if vec.ndim != 1:
        raise ValidationError(f"all-reduce expects a flat vector, got shape {vec.shape}")
    n = endpoint.size
    rank = endpoint.rank
    out = vec.copy()
    if n == 1:
        return out
    bounds = ring_chunks(out.shape[0], n)
    succ = (rank + 1) % n
    pred = (rank - 1) % n

    def chunk(idx):
        lo, hi = bounds[idx % n]
        return out[lo:hi]

    # reduce-scatter: after N-1 steps rank r fully owns chunk (r+1) mod N
    for step in range(n - 1):
        endpoint.send(succ, chunk(rank - step))
        target = chunk(rank - step - 1)
        target += _recv_shaped(endpoint, pred, target.shape, "chunk")
    # all-gather: circulate completed chunks
    for step in range(n - 1):
        endpoint.send(succ, chunk(rank - step + 1))
        target = chunk(rank - step)
        target[:] = _recv_shaped(endpoint, pred, target.shape, "chunk")
    return out


def gather_sum(vectors) -> np.ndarray:
    """Reference reduction: fold the vectors in ascending rank order."""
    if not vectors:
        raise ValidationError("cannot reduce zero vectors")
    first = np.asarray(vectors[0])
    acc = first.copy()
    for v in vectors[1:]:
        v = np.asarray(v)
        if v.shape != acc.shape:
            raise ValidationError(
                f"vector shape {v.shape} does not match {acc.shape}"
            )
        acc += v
    return acc


def mean_ascending(vectors) -> np.ndarray:
    """Ascending-rank mean with a fixed fold order."""
    acc = gather_sum(vectors)
    if np.issubdtype(acc.dtype, np.integer):
        return acc // len(vectors)
    return acc / len(vectors)


def gather_to_root(endpoint, part: np.ndarray, sizes) -> np.ndarray:
    """Rank 0 returns the flat ``part`` of each rank r < len(sizes),
    which has ``sizes[r]`` elements, joined in rank order; every other of
    those ranks sends its part to rank 0 and returns None.  len(sizes)-1
    messages, an empty part included."""
    if endpoint.rank != 0:
        endpoint.send(0, part)
        return None
    return np.concatenate([part] + [
        _recv_shaped(endpoint, r, (sizes[r],), "part") for r in range(1, len(sizes))
    ])


# ---------------------------------------------------------------------------
# Parameter server


def ps_worker_round(endpoint, server_rank: int, grad: np.ndarray) -> np.ndarray:
    """Worker side: report the local gradient, block for fresh params."""
    endpoint.send(server_rank, grad)
    return endpoint.recv(server_rank)


def ps_halt(endpoint, server_rank: int, dtype) -> None:
    """Rank 0's last message to the server: one element, which no
    gradient report is, in place of its next report."""
    endpoint.send(server_rank, np.ones(1, dtype=dtype))


def ps_server_round(endpoint, optimizer_step):
    """Server side of one round; the server sits at the highest rank and
    every lower rank is a worker.  2N messages per round: N gradient
    reports in, N parameter broadcasts out.  The reports are averaged in
    ascending rank order, and ``optimizer_step(mean)`` returns the
    parameters every worker receives.

    Returns None, reading nothing further, when rank 0 sends the
    one-element halt of :func:`ps_halt` in place of its report.
    """
    worker_ranks = [r for r in range(endpoint.size) if r != endpoint.rank]
    first = endpoint.recv(worker_ranks[0])
    if first.size == 1:
        return None
    grads = [first] + [endpoint.recv(r) for r in worker_ranks[1:]]
    new_params = optimizer_step(mean_ascending(grads))
    for r in worker_ranks:
        endpoint.send(r, new_params)
    return new_params


# ---------------------------------------------------------------------------
# Gossip


def gossip_pairs(n: int, round_index: int):
    """Deterministic ring edge-matching: even rounds pair (0,1),(2,3),..;
    odd rounds pair (1,2),(3,4),.. plus (N-1,0) when N is even.  Workers
    without a partner this round are simply absent from the list."""
    if n < 2:
        return []
    if round_index % 2 == 0:
        return [(a, a + 1) for a in range(0, n - 1, 2)]
    pairs = [(a, a + 1) for a in range(1, n - 1, 2)]
    if n % 2 == 0:
        pairs.append((n - 1, 0))
    return pairs


def gossip_partner(n: int, rank: int, round_index: int):
    for a, b in gossip_pairs(n, round_index):
        if rank == a:
            return b
        if rank == b:
            return a
    return None


def _pair_mean(lo_vec, hi_vec):
    total = lo_vec + hi_vec
    if np.issubdtype(total.dtype, np.integer):
        return total // 2
    return total / 2


def gossip_exchange(endpoint, round_index: int, vec: np.ndarray) -> np.ndarray:
    """One gossip round for one worker: swap vectors with this round's
    partner and average; a worker without a partner keeps its vector.
    Both sides put the lower-rank vector first, so the pair ends
    bit-identical."""
    partner = gossip_partner(endpoint.size, endpoint.rank, round_index)
    if partner is None:
        return np.asarray(vec).copy()
    endpoint.send(partner, vec)
    other = _recv_shaped(endpoint, partner, np.shape(vec), "vector")
    if endpoint.rank < partner:
        return _pair_mean(vec, other)
    return _pair_mean(other, vec)


def gossip_finalize_exchange(endpoint, vec: np.ndarray) -> np.ndarray:
    """Exact global mean, folded in ascending rank order: rank 0 gathers,
    averages and broadcasts it, which leaves zero pairwise distance."""
    if endpoint.size == 1:
        return np.asarray(vec).copy()
    if endpoint.rank == 0:
        vectors = [vec] + [endpoint.recv(r) for r in range(1, endpoint.size)]
        mean = mean_ascending(vectors)
        for r in range(1, endpoint.size):
            endpoint.send(r, mean)
        return mean
    endpoint.send(0, vec)
    return endpoint.recv(0)
